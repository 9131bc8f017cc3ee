"""AST-based unit-discipline checker over the ``repro`` sources.

Parses each Python file with the stdlib :mod:`ast` module and runs the
``S4xx`` rule catalog of :mod:`repro.lint.rules_source` over it.  No code
is imported or executed; the checker is safe to run on broken trees and
reports syntax errors as diagnostics instead of raising.

A finding can be suppressed at its line with an explicit pragma naming
the rule::

    t0 = time.perf_counter()  # lint: allow(S401) host-phase profiler

The pragma is deliberately per-line and per-rule: a file cannot opt out
of a rule wholesale, and an unrelated finding on the same line still
fires.  The canonical use is host-side instrumentation (the
:mod:`repro.obs.profile` phase profiler, the :mod:`repro.obs.runlog`
flight recorder), which measures *host* wall time by design — exactly
what S401 exists to keep out of simulation code.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set

from repro.lint.astcache import (  # noqa: F401  (re-exported legacy names)
    ModuleCache,
    ParsedModule,
    PathLike,
    default_source_root,
    iter_python_files,
)
from repro.lint.diagnostics import Diagnostic, sort_diagnostics
from repro.lint.rules_source import S400_RULE, S407_RULE, SOURCE_RULES


#: ``# lint: allow(S401)`` / ``# lint: allow(S401, S403)`` pragma.
_ALLOW_PRAGMA = re.compile(r"#\s*lint:\s*allow\(([A-Za-z0-9_,\s-]+)\)")


def _allow_pragmas(source: str) -> Dict[int, Set[str]]:
    """Per-line rule-id suppressions declared with the allow pragma."""
    allows: Dict[int, Set[str]] = {}
    for line_no, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_PRAGMA.search(line)
        if match is not None:
            allows[line_no] = {
                token.strip() for token in match.group(1).split(",") if token.strip()
            }
    return allows


def _expand_over_statements(
    tree: ast.AST, allows: Dict[int, Set[str]]
) -> Dict[int, Set[str]]:
    """Spread pragmas across the physical lines of multi-line statements.

    A pragma on a continuation line of a simple statement (a wrapped
    call, a parenthesized assignment) suppresses findings anywhere in
    that statement — rules report at the statement or sub-expression
    line, which need not be the line carrying the comment.  Compound
    statements (defs, loops, ``if``) do **not** spread a body pragma:
    a pragma inside a function body must never blanket the whole
    function.  A ``def``/``class`` *header* does spread, though — the
    decorator lines, the signature lines and the ``def`` line are one
    span, so a pragma on a decorated ``def`` covers findings reported
    at its decorators (and vice versa) without touching the body.
    """
    expanded = {line: set(rules) for line, rules in allows.items()}
    if not allows:
        return expanded

    def spread(first_line: int, last_line: int) -> None:
        span_rules: Set[str] = set()
        for line in range(first_line, last_line + 1):
            span_rules |= allows.get(line, set())
        if span_rules:
            for line in range(first_line, last_line + 1):
                expanded.setdefault(line, set()).update(span_rules)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min(
                [node.lineno] + [dec.lineno for dec in node.decorator_list]
            )
            spread(start, node.body[0].lineno - 1)
            continue
        if not isinstance(node, ast.stmt) or hasattr(node, "body"):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        if end == node.lineno:
            continue
        spread(node.lineno, end)
    return expanded


def allow_map_for(source: str, tree: ast.AST) -> Dict[int, Set[str]]:
    """The effective line -> allowed-rule-ids map for one parsed module.

    Shared by the source checker and the unit-dataflow pass of
    :mod:`repro.check.dataflow`, so ``repro lint`` and ``repro check``
    honor exactly the same pragma.
    """
    return _expand_over_statements(tree, _allow_pragmas(source))


def _known_rule_ids() -> Set[str]:
    from repro.lint import all_rules

    return {rule.rule_id for rule in all_rules()}


def _unknown_pragma_diagnostics(
    allows: Dict[int, Set[str]], filename: str
) -> List[Diagnostic]:
    """S407: a pragma naming a rule id that exists in no catalog.

    A typoed id silently disables nothing — the finding it meant to
    suppress still fires — so the bad pragma itself is reported.
    """
    known = _known_rule_ids()
    diagnostics = []
    for line_no in sorted(allows):
        for rule_id in sorted(allows[line_no] - known):
            diagnostics.append(
                S407_RULE.diagnostic(
                    f"allow pragma names unknown rule {rule_id!r}",
                    file=filename,
                    line=line_no,
                    hint="see docs/LINT.md and docs/CHECK.md for the rule catalogs",
                )
            )
    return diagnostics


def _suppressed(diag: Diagnostic, allows: Dict[int, Set[str]]) -> bool:
    line = diag.location.line
    return line is not None and diag.rule in allows.get(line, ())


def lint_module(module: ParsedModule) -> List[Diagnostic]:
    """Run every source rule over one already-parsed module.

    Findings on lines carrying a matching ``# lint: allow(<rule-id>)``
    pragma are suppressed; the pragma names exact rule ids, never
    prefixes.  Passing the same :class:`ParsedModule` the interprocedural
    check passes consume means the file is parsed once for all of them.
    """
    if module.tree is None:
        error = module.syntax_error
        assert error is not None
        return [
            S400_RULE.diagnostic(
                f"cannot parse: {error.msg}", file=module.filename, line=error.lineno or 1
            )
        ]
    allows = module.allows
    diagnostics: List[Diagnostic] = []
    for rule, check in SOURCE_RULES:
        diagnostics.extend(
            diag
            for diag in check(rule, module.tree, module.filename)
            if not _suppressed(diag, allows)
        )
    diagnostics.extend(
        diag
        for diag in _unknown_pragma_diagnostics(
            _allow_pragmas(module.source), module.filename
        )
        if not _suppressed(diag, allows)
    )
    return sort_diagnostics(diagnostics)


def lint_source_text(source: str, filename: str = "<string>") -> List[Diagnostic]:
    """Run every source rule over one module's text."""
    return lint_module(ModuleCache().module_for_source(source, filename))


def lint_file(path: PathLike, cache: Optional[ModuleCache] = None) -> List[Diagnostic]:
    """Lint one Python file (parsed through ``cache`` when given)."""
    if cache is None:
        cache = ModuleCache()
    return lint_module(cache.module_for_path(path))


def lint_paths(
    paths: Iterable[PathLike], cache: Optional[ModuleCache] = None
) -> List[Diagnostic]:
    """Lint every Python file under ``paths`` (files or directories).

    ``cache`` shares parsed trees with other passes of the same
    invocation (the CLI passes one :class:`ModuleCache` to the source
    rules, the unit dataflow and the effect analysis).
    """
    if cache is None:
        cache = ModuleCache()
    diagnostics: List[Diagnostic] = []
    for module in cache.modules_for_paths(paths):
        diagnostics.extend(lint_module(module))
    return sort_diagnostics(diagnostics)
