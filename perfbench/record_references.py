"""Regenerate ``references.json``: the result digest of every operation of
every workload for the recorded seeds.

Run from the repository root, only when the model's outputs change on
purpose (the benchmark counts every digest mismatch as a failed op)::

    python3 perfbench/record_references.py --seeds 0-10

Paper configurations are seed-independent, so their digests are checked
on every seed; seeded points outside the recorded seeds get the
invariant checks only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

RECORDED_SEEDS = "0-10"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def record(seeds: range) -> dict:
    references: dict = {}
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        session = workloads.Session(workload, scratch)
        try:
            for seed in seeds:
                session.begin_pass()
                for op in workloads.build_ops(workload, seed):
                    if op.key in references:
                        continue
                    result = workloads.execute(op, session)
                    problems = workloads.invariant_problems(op, result)
                    if problems:
                        raise SystemExit(f"{op.key}: {problems}")
                    references[op.key] = workloads.digest(op, result)
                session.end_pass()
                print(f"{workload} seed {seed}: {len(references)} digests", file=sys.stderr)
        finally:
            session.close()
    return dict(sorted(references.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default=RECORDED_SEEDS, help="inclusive range, e.g. 0-10")
    args = parser.parse_args()
    references = record(seed_range(args.seeds))
    (HERE / "references.json").write_text(
        json.dumps(references, indent=0, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
