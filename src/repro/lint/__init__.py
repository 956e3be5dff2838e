"""Static analysis for the reproduction: ``repro lint``.

An AST-based auditor that machine-checks the invariants the rest of the
stack merely documents: no ambient randomness, wall clocks or
environment reads in the engine path, deterministic filesystem and set iteration, registry schemas
in sync with their factory constructors, ``to_dict``/``from_dict``
parity, and fail-stop error discipline.  See
:func:`repro.lint.engine.run_lint` for the pipeline and
:mod:`repro.lint.rules` for the analyzers.
"""

from .baseline import load_baseline, save_baseline
from .engine import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    LintResult,
    run_lint,
)
from .findings import Finding
from .report import render_json, render_text, to_json
from .rules import rule_names, rule_registry
from .symbols import Project

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_INTERNAL",
    "Finding",
    "LintResult",
    "Project",
    "load_baseline",
    "render_json",
    "render_text",
    "rule_names",
    "rule_registry",
    "run_lint",
    "save_baseline",
    "to_json",
]
