"""M307: every experiment driver must declare its golden values.

The regression watchdog (:mod:`repro.regress`) can only guard what the
drivers declare: a driver registered in
:data:`repro.core.experiments.EXPERIMENTS` without
:class:`~repro.core.experiments.GoldenValue` entries silently opts out
of fidelity checking, and a public driver function that never registered
at all is invisible to both the flight recorder and the watchdog.  M307
closes that gap statically:

* every public driver in :mod:`repro.core.experiments` whose name
  matches the paper-artifact patterns (``fig*``, ``sec*``, ``table*``)
  must be registered through ``@experiment_driver``;
* every registered driver must declare at least one golden value or an
  explicit ``golden_exempt`` reason;
* golden keys must be unique, drawn from the driver's ``metric_keys``,
  carry non-negative tolerances, and use a known comparison kind.
"""

from __future__ import annotations

import re
from typing import List

from repro.lint.diagnostics import Diagnostic, Rule, Severity, sort_diagnostics

M307_RULE = Rule(
    "M307", "experiment-golden-coverage", Severity.ERROR,
    "experiment driver declares no golden-value coverage",
)

#: Public functions in core.experiments matching these are paper
#: artifacts and must be registered drivers.
_DRIVER_NAME = re.compile(r"^(fig|sec|table)")


def lint_experiments() -> List[Diagnostic]:
    """Check the experiment registry's golden-value coverage (M307)."""
    from repro.core import experiments as experiments_module
    from repro.core.experiments import EXPERIMENTS, GOLDEN_KINDS

    diagnostics: List[Diagnostic] = []

    registered = {spec.runner for spec in EXPERIMENTS.values()}
    for name in dir(experiments_module):
        if name.startswith("_") or not _DRIVER_NAME.match(name):
            continue
        value = getattr(experiments_module, name)
        if not callable(value):
            continue
        if getattr(value, "__module__", None) != experiments_module.__name__:
            continue  # helper imported from another module, not a driver
        wrapped = getattr(value, "__wrapped__", None)
        if getattr(value, "spec", None) is None and wrapped not in registered:
            diagnostics.append(
                M307_RULE.diagnostic(
                    f"public driver {name!r} in core.experiments is not "
                    "registered with @experiment_driver, so its runs are "
                    "never recorded or fidelity-checked",
                    obj=f"experiment {name}",
                    hint="decorate it with @experiment_driver(...) declaring "
                         "metric_keys and goldens (or a golden_exempt reason)",
                )
            )

    for name, spec in sorted(EXPERIMENTS.items()):
        obj = f"experiment {name}"
        if not spec.goldens and not spec.golden_exempt:
            diagnostics.append(
                M307_RULE.diagnostic(
                    f"driver {name!r} declares no golden values and no "
                    "golden_exempt reason, silently opting out of the "
                    "regression watchdog",
                    obj=obj,
                    hint="declare GoldenValue entries for the paper's figures, "
                         "or set golden_exempt to say why none apply",
                )
            )
        if spec.goldens and spec.golden_exempt:
            diagnostics.append(
                M307_RULE.diagnostic(
                    f"driver {name!r} declares both golden values and a "
                    "golden_exempt reason; pick one",
                    obj=obj,
                )
            )
        seen = set()
        for golden in spec.goldens:
            if golden.key in seen:
                diagnostics.append(
                    M307_RULE.diagnostic(
                        f"driver {name!r} declares golden key {golden.key!r} "
                        "more than once",
                        obj=obj,
                    )
                )
            seen.add(golden.key)
            if golden.key not in spec.metric_keys:
                diagnostics.append(
                    M307_RULE.diagnostic(
                        f"driver {name!r} golden key {golden.key!r} is not in "
                        "its metric_keys, so the watchdog can never find the "
                        "measured value",
                        obj=obj,
                        hint="add the key to metric_keys and emit it from the "
                             "metrics extractor",
                    )
                )
            if golden.tolerance < 0:
                diagnostics.append(
                    M307_RULE.diagnostic(
                        f"driver {name!r} golden {golden.key!r} has a negative "
                        f"tolerance ({golden.tolerance!r})",
                        obj=obj,
                    )
                )
            if golden.kind not in GOLDEN_KINDS:
                diagnostics.append(
                    M307_RULE.diagnostic(
                        f"driver {name!r} golden {golden.key!r} has unknown "
                        f"kind {golden.kind!r}; allowed: {', '.join(GOLDEN_KINDS)}",
                        obj=obj,
                    )
                )
    return sort_diagnostics(diagnostics)
