"""Rule catalog of the exhaustive model checker (``C-series``).

Five families, each a :class:`~repro.lint.diagnostics.Rule` reported
through the shared :class:`~repro.lint.diagnostics.Diagnostic` framework
and registered in the one rule registry (:func:`repro.lint.all_rules`)
that both ``repro lint`` and ``repro check`` validate ``--select``
patterns against:

* ``C1xx`` — state-space structure: deadlocks, FSM states and flow
  steps the exploration never reaches, livelock cycles that never
  re-reach the active state, truncated exploration, and compile-time
  binding errors (unknown clocks, safety declarations naming unknown
  objects).
* ``C2xx`` — safety-invariant violations found in a reachable composed
  state (see :mod:`repro.check.invariants` for the invariant catalog).
* ``C4xx`` — interprocedural unit-dataflow findings of
  :mod:`repro.check.dataflow`: unit tags (``_ps``, ``_watts``, ``_mw``,
  ``_joules``, ...) propagated across call boundaries disagree.
* ``C5xx`` — interprocedural effect/determinism findings of
  :mod:`repro.check.effects`, in three contract families: ``C501-C509``
  cache soundness (an effect reaches a fingerprint-cached result that
  the fingerprint does not capture), ``C511-C514`` parallel-sweep
  safety, and ``C521+`` determinism hygiene (iteration-order escapes).
* ``C6xx`` — quantitative budget findings of
  :mod:`repro.check.budgets`: the priced-timed analysis annotates the
  compiled transition system with per-step latencies and per-state
  powers, then verifies the declared wake-latency budgets, break-even
  residencies, and per-cycle energy bounds (``budget_description()``).

Rule ids must never collide with the ``M``/``S`` series; the gate tests
assert the registry's ids are unique.
"""

from __future__ import annotations

from typing import Tuple

from repro.lint.diagnostics import Rule, Severity


C101_RULE = Rule(
    "C101", "deadlock", Severity.ERROR,
    "reachable composed state with no outgoing transition",
)
C102_RULE = Rule(
    "C102", "unreachable-step", Severity.ERROR,
    "declared FSM state or flow step never reached in the reachable state space",
)
C103_RULE = Rule(
    "C103", "livelock", Severity.ERROR,
    "reachable cycle that never re-reaches the active state",
)
C104_RULE = Rule(
    "C104", "state-space-truncated", Severity.WARNING,
    "exploration hit the --max-states bound before exhausting the space",
)
C105_RULE = Rule(
    "C105", "flow-unknown-clock", Severity.ERROR,
    "flow step references a clock that does not exist",
)
C106_RULE = Rule(
    "C106", "unknown-safety-reference", Severity.ERROR,
    "safety declaration references an unknown domain or clock",
)

C201_RULE = Rule(
    "C201", "clock-gated-while-live", Severity.ERROR,
    "a live domain's required clock source is gated",
)
C202_RULE = Rule(
    "C202", "rails-not-restored", Severity.ERROR,
    "the active state is re-entered with domains still gated off",
)
C203_RULE = Rule(
    "C203", "ledger-unbalanced", Severity.ERROR,
    "suspend/resume ledger not conserved across a closed walk",
)
C204_RULE = Rule(
    "C204", "wake-source-unarmed", Severity.ERROR,
    "an idle state is reachable with every wake source torn down",
)

C401_RULE = Rule(
    "C401", "call-unit-mismatch", Severity.ERROR,
    "argument unit disagrees with the parameter's declared unit",
)
C402_RULE = Rule(
    "C402", "return-unit-mismatch", Severity.ERROR,
    "returned unit disagrees with the function's declared unit",
)
C403_RULE = Rule(
    "C403", "arith-unit-mismatch", Severity.ERROR,
    "addition/subtraction mixes incompatible units",
)

# --- C5xx: effect & determinism contracts (repro.check.effects) ---------------
# C501-C509 cache soundness: an undeclared effect reaches a result that
# is memoized under a config fingerprint, so the cache key no longer
# determines the value.  C508/C509 are reserved for future effect kinds.

C501_RULE = Rule(
    "C501", "cache-wallclock-read", Severity.ERROR,
    "host clock read reaches a fingerprint-cached result",
)
C502_RULE = Rule(
    "C502", "cache-unseeded-rng", Severity.ERROR,
    "process-global/unseeded RNG reaches a fingerprint-cached result",
)
C503_RULE = Rule(
    "C503", "cache-env-read", Severity.ERROR,
    "environment read reaches a fingerprint-cached result",
)
C504_RULE = Rule(
    "C504", "cache-fs-access", Severity.ERROR,
    "filesystem access reaches a fingerprint-cached result",
)
C505_RULE = Rule(
    "C505", "cache-net-access", Severity.ERROR,
    "network access reaches a fingerprint-cached result",
)
C506_RULE = Rule(
    "C506", "cache-module-state", Severity.ERROR,
    "module-level or closure state mutated under a cached entry point",
)
C507_RULE = Rule(
    "C507", "cache-identity-dependence", Severity.ERROR,
    "id()/hash()/pid dependence reaches a fingerprint-cached result",
)

# C511-C514 parallel-sweep safety: a ProcessPoolExecutor worker whose
# behavior depends on (or mutates) state that does not travel across
# the process boundary.

C511_RULE = Rule(
    "C511", "parallel-shared-mutation", Severity.ERROR,
    "sweep worker mutates module-level state invisible across processes",
)
C512_RULE = Rule(
    "C512", "parallel-unpicklable-capture", Severity.ERROR,
    "lambda or nested closure handed to a process-parallel sweep",
)
C513_RULE = Rule(
    "C513", "parallel-accumulator-write", Severity.ERROR,
    "sweep worker accumulates into a module-level container",
)
C514_RULE = Rule(
    "C514", "parallel-unseeded-rng", Severity.ERROR,
    "sweep worker draws from the process-global RNG (fork-correlated streams)",
)

# C521+ determinism hygiene: result assembly whose value can differ
# between runs or backends with identical configuration.

C521_RULE = Rule(
    "C521", "order-dependent-result", Severity.ERROR,
    "set iteration order escapes into a result",
)
C522_RULE = Rule(
    "C522", "order-dependent-accumulation", Severity.ERROR,
    "float accumulation over an unordered collection",
)

# --- C6xx: quantitative budgets (repro.check.budgets) -------------------------
# The priced-timed analysis prices every transition-system edge with its
# flow-step latency and every resident state with its power-tree power,
# then checks the numbers the platform declares via budget_description().

C601_RULE = Rule(
    "C601", "wake-budget-exceeded", Severity.ERROR,
    "worst-case exit-latency path exceeds the declared wake budget",
)
C602_RULE = Rule(
    "C602", "residency-below-break-even", Severity.ERROR,
    "power state reachable with guaranteed residency below its break-even time",
)
C603_RULE = Rule(
    "C603", "break-even-drift", Severity.ERROR,
    "declared break-even constant disagrees with the derived one beyond tolerance",
)
C604_RULE = Rule(
    "C604", "missing-budget-declaration", Severity.ERROR,
    "deep power state has no parseable budget declaration",
)
C605_RULE = Rule(
    "C605", "cycle-energy-above-golden", Severity.ERROR,
    "per-cycle energy lower bound exceeds the golden figure value",
)


#: The full checker catalog, in catalog order (registry + docs).
CHECK_RULES: Tuple[Rule, ...] = (
    C101_RULE,
    C102_RULE,
    C103_RULE,
    C104_RULE,
    C105_RULE,
    C106_RULE,
    C201_RULE,
    C202_RULE,
    C203_RULE,
    C204_RULE,
    C401_RULE,
    C402_RULE,
    C403_RULE,
    C501_RULE,
    C502_RULE,
    C503_RULE,
    C504_RULE,
    C505_RULE,
    C506_RULE,
    C507_RULE,
    C511_RULE,
    C512_RULE,
    C513_RULE,
    C514_RULE,
    C521_RULE,
    C522_RULE,
    C601_RULE,
    C602_RULE,
    C603_RULE,
    C604_RULE,
    C605_RULE,
)
