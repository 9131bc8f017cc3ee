"""Exhaustive BFS over the composed state space.

:func:`explore` walks every composed state reachable from the initial
state of a compiled :class:`~repro.check.ts.TransitionSystem`, with a
memoized visited set (states hash-cache their identity, so revisits cost
one set probe).  The walk produces:

* **C101 deadlock** — a reachable state with no outgoing edge.  When a
  flow step's ``requires`` blocked the only edge, the diagnostic names
  the step and the already-gated domains it needed.
* **C102 unreachable-step** — a declared FSM state the walk never
  visits, a declared flow step no explored edge ever executed (dead
  spec), and flows attached to no FSM state at all.  An unreached active
  state is left to C101/C103: one of them always explains it.
* **C103 livelock** — reachable states from which no path ever
  re-reaches the active state: the platform cycles but never wakes.
* **C2xx invariant violations** — each enabled
  :class:`~repro.check.invariants.Invariant` is evaluated in every
  visited state; the first witness of each distinct violation is
  reported with the path that produced it.
* **C104 truncation** — the ``max_states`` bound stopped the walk early.
  Absence-style findings (C102/C103) are suppressed on a truncated walk:
  they can only be trusted after an exhaustive one.

The space is finite (FSM states x flow positions x effect subsets), so
on declared platforms the walk exhausts in well under a thousand states;
``max_states`` is a safety valve for pathological user-authored views.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.diagnostics import Diagnostic, sort_diagnostics
from repro.check.invariants import BUILTIN_INVARIANTS, Invariant
from repro.check.rules import C101_RULE, C102_RULE, C103_RULE, C104_RULE
from repro.check.ts import ComposedState, TransitionSystem, iter_flow_steps

#: Default exploration bound (the real platform needs a few dozen states).
DEFAULT_MAX_STATES = 100_000

#: Longest witness path rendered in a diagnostic before eliding the middle.
_MAX_WITNESS_LABELS = 12


@dataclass
class ExploreResult:
    """Everything one exhaustive walk learned about the state space."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    states_explored: int = 0
    transitions_taken: int = 0
    truncated: bool = False
    executed_steps: Set[Tuple[str, str]] = field(default_factory=set)
    invariants_checked: Tuple[str, ...] = ()

    def summary(self) -> Dict[str, object]:
        """JSON-ready state-space summary (the CI artifact payload)."""
        return {
            "states_explored": self.states_explored,
            "transitions_taken": self.transitions_taken,
            "truncated": self.truncated,
            "steps_executed": sorted(
                f"{flow}:{label}" if not label.startswith(f"{flow}:") else label
                for flow, label in self.executed_steps
            ),
            "invariants_checked": list(self.invariants_checked),
            "diagnostics": len(self.diagnostics),
        }


Parent = Optional[Tuple[ComposedState, str]]


def _witness_path(
    state: ComposedState, parents: Dict[ComposedState, Parent]
) -> str:
    """Render the label sequence that reached ``state`` from the initial."""
    labels: List[str] = []
    cursor: Optional[ComposedState] = state
    while cursor is not None:
        parent = parents[cursor]
        if parent is None:
            break
        cursor, label = parent
        labels.append(label)
    labels.reverse()
    if len(labels) > _MAX_WITNESS_LABELS:
        keep = _MAX_WITNESS_LABELS // 2
        labels = labels[:keep] + ["..."] + labels[-keep:]
    return " -> ".join(labels) if labels else "<initial>"


def explore(
    ts: TransitionSystem,
    invariants: Tuple[Invariant, ...] = BUILTIN_INVARIANTS,
    max_states: int = DEFAULT_MAX_STATES,
) -> ExploreResult:
    """Exhaustively explore ``ts`` and report every structural finding."""
    result = ExploreResult(
        invariants_checked=tuple(inv.name for inv in invariants)
    )
    parents: Dict[ComposedState, Parent] = {ts.initial: None}
    reverse: Dict[ComposedState, List[ComposedState]] = {}
    successors_of: Dict[ComposedState, int] = {}
    queue: deque = deque([ts.initial])
    seen_violations: Set[Tuple[str, str]] = set()
    diagnostics = result.diagnostics

    while queue:
        if len(successors_of) >= max_states:
            result.truncated = True
            break
        state = queue.popleft()
        if state in successors_of:
            continue

        for invariant in invariants:
            violation = invariant.check(ts, state)
            if violation is None:
                continue
            key = (invariant.rule.rule_id, violation)
            if key in seen_violations:
                continue
            seen_violations.add(key)
            diagnostics.append(
                invariant.rule.diagnostic(
                    f"{violation} (in state {state.describe()})",
                    obj=f"invariant {invariant.name}",
                    hint=f"witness: {_witness_path(state, parents)}",
                )
            )

        edges, blocked = ts.successors(state)
        successors_of[state] = len(edges)
        if not edges:
            detail = "; ".join(edge.describe() for edge in blocked)
            diagnostics.append(
                C101_RULE.diagnostic(
                    f"state {state.describe()} has no outgoing transition"
                    + (f": {detail}" if detail else ""),
                    obj=f"state {state.fsm}",
                    hint=f"witness: {_witness_path(state, parents)}",
                )
            )
            continue
        for label, target in edges:
            result.transitions_taken += 1
            reverse.setdefault(target, []).append(state)
            if target.flow is not None and target.step >= 0:
                result.executed_steps.add((target.flow, label))
            if target not in parents:
                parents[target] = (state, label)
                queue.append(target)

    result.states_explored = len(successors_of)

    if not result.truncated:
        _report_unreachable(ts, result, {state.fsm for state in successors_of})
        _report_livelocks(ts, result, parents, reverse, successors_of)
    else:
        diagnostics.append(
            C104_RULE.diagnostic(
                f"exploration stopped at the {max_states}-state bound with "
                "unexplored states remaining; unreachable-step and livelock "
                "analysis skipped",
                obj="explorer",
                hint="raise --max-states for an exhaustive walk",
            )
        )

    result.diagnostics = sort_diagnostics(diagnostics)
    return result


def _report_unreachable(
    ts: TransitionSystem, result: ExploreResult, visited: Set[str]
) -> None:
    """C102: FSM states and flow steps the exhaustive walk never reached.

    A never-visited active state is skipped: every reachable state then
    fails to return to it, which C101 or C103 already reports.  Flows of
    unreached states are reported with their state, not step by step.
    """
    unreached = [
        name for name in ts.state_names if name not in visited and name != ts.active
    ]
    for name in unreached:
        result.diagnostics.append(
            C102_RULE.diagnostic(
                f"platform state {name!r} is never reached from {ts.initial.fsm!r}",
                obj=f"fsm state {name}",
                hint="add the missing transition or delete the dead state",
            )
        )
    detached = set(ts.detached_flows)
    for flow_name in sorted(detached):
        result.diagnostics.append(
            C102_RULE.diagnostic(
                f"flow {flow_name!r} is attached to no FSM state; none of its "
                "steps can ever execute",
                obj=f"flow {flow_name}",
                hint="flow names must match an FSM state (e.g. 'entry' for ENTRY)",
            )
        )
    skipped = detached | {ts.flow_for_state.get(name) for name in unreached}
    for flow_name, label in iter_flow_steps(ts):
        if flow_name in skipped:
            continue  # already reported wholesale
        if (flow_name, label) not in result.executed_steps:
            result.diagnostics.append(
                C102_RULE.diagnostic(
                    f"flow {flow_name!r} step {label!r} never executed in the "
                    "reachable state space",
                    obj=f"flow {flow_name}:{label}",
                    hint="an earlier deadlock or blocked requirement may cut the flow short",
                )
            )


def _report_livelocks(
    ts: TransitionSystem,
    result: ExploreResult,
    parents: Dict[ComposedState, Parent],
    reverse: Dict[ComposedState, List[ComposedState]],
    successors_of: Dict[ComposedState, int],
) -> None:
    """Reachable cycles from which the active state is unreachable (C103).

    States that merely feed a downstream deadlock are already explained
    by that deadlock's C101, so a livelock is only reported when the
    stuck region actually contains a cycle — the platform spins forever
    without ever re-reaching the active state.
    """
    can_return: Set[ComposedState] = set()
    stack = [state for state in successors_of if state.fsm == ts.active]
    can_return.update(stack)
    while stack:
        state = stack.pop()
        for predecessor in reverse.get(state, ()):
            if predecessor not in can_return:
                can_return.add(predecessor)
                stack.append(predecessor)
    stuck = {
        state
        for state in successors_of
        if state not in can_return and successors_of[state] > 0
    }
    cycle_state = _find_cycle_state(ts, stuck)
    if cycle_state is None:
        return
    result.diagnostics.append(
        C103_RULE.diagnostic(
            f"{len(stuck)} reachable state(s) cycle without ever returning to "
            f"the active state {ts.active!r}; e.g. {cycle_state.describe()}",
            obj=f"state {cycle_state.fsm}",
            hint=f"witness: {_witness_path(cycle_state, parents)}",
        )
    )


def _find_cycle_state(
    ts: TransitionSystem, stuck: Set[ComposedState]
) -> Optional[ComposedState]:
    """A state on some cycle inside the stuck region, if one exists."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[ComposedState, int] = {state: WHITE for state in stuck}
    for root in stuck:
        if color[root] != WHITE:
            continue
        stack: List[ComposedState] = [root]
        color[root] = GREY
        while stack:
            state = stack[-1]
            advanced = False
            edges, _blocked = ts.successors(state)
            for _label, target in edges:
                if target not in stuck:
                    continue
                if color[target] == GREY:
                    return target
                if color[target] == WHITE:
                    color[target] = GREY
                    stack.append(target)
                    advanced = True
                    break
            if not advanced:
                color[state] = BLACK
                stack.pop()
    return None
