"""``repro.lint`` — static analysis for specs and for the codebase.

Two rule packs behind one diagnostic model:

* the **spec pack** (:mod:`repro.lint.specrules`) diagnoses
  specifications, compiled nets and scheduler configurations before
  any search runs — ``ezrt lint`` is its CLI, and its
  :func:`~repro.lint.specrules.presearch_diagnostics` subset gates
  :func:`repro.scheduler.dfs.find_schedule`, the batch engine and the
  service's ``POST /jobs``;
* the **code pack** (:mod:`repro.lint.coderules`) enforces repository
  invariants over the source tree itself — run it as
  ``python -m repro.lint --self``.

See ``docs/linting.md`` for the rule table and workflows.
"""

from __future__ import annotations

from importlib import import_module

#: defining submodule -> the public names it contributes
_SUBMODULES = {
    ".diagnostics": (
        "ERROR", "WARNING", "Diagnostic", "LintReport", "errors",
        "format_report", "has_errors",
    ),
    ".coderules": (
        "check_fixture_dir", "fingerprint_drift", "lint_file",
        "lint_source", "lint_tree",
    ),
    ".specrules": (
        "classify_problem", "config_diagnostics",
        "dbm_bound_diagnostics", "infeasibility_diagnostics",
        "lint_spec", "net_diagnostics", "presearch_diagnostics",
        "token_cap_diagnostics", "validation_diagnostics",
    ),
}

#: public name -> defining submodule
_EXPORTS = {
    name: module for module, names in _SUBMODULES.items() for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    # PEP 562: import the defining submodule on first access and cache
    # the value, so a process pays only for the layers it uses
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
