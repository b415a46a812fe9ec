"""Import layering: a cold process loads only the layers it runs.

Every package resolves its public names on first access (PEP 562), the
CLI imports the batch, service, report, PNML and lint stacks inside the
subcommands that use them, and the search adapters import their engine
modules when built.  These tests pin that structure — which modules a
fresh interpreter ends up holding — and never measure time.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.batch",
    "repro.blocks",
    "repro.codegen",
    "repro.lint",
    "repro.obs",
    "repro.pnml",
    "repro.scheduler",
    "repro.service",
    "repro.sim",
    "repro.spec",
    "repro.tpn",
)

#: Modules a cold ``ezrt simulate``/``ezrt codegen`` must never load.
FORBIDDEN_ON_COLD_PIPELINE = (
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
    "repro.batch",
    "repro.service",
    "repro.pnml",
    "repro.analysis.report",
    "repro.tpn.dbm",
    "repro.tpn._dbmc",
    "repro.tpn.stateclass",
)


def _loaded_modules(code: str) -> tuple[list[str], str]:
    """Run ``code`` in a fresh interpreter; return its module names
    and stdout (the code's own output precedes the module list)."""
    script = (
        "import json, sys\n"
        + code
        + "\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *output, modules = done.stdout.rstrip("\n").split("\n")
    return json.loads(modules), "\n".join(output)


def _cli(argv: list[str]) -> str:
    return (
        "from repro.cli import main\n"
        f"code = main({argv!r})\n"
        "assert code == 0, code\n"
    )


class TestColdImports:
    def test_import_repro_loads_no_subpackage(self):
        modules, _ = _loaded_modules("import repro")
        ours = {m for m in modules if m.startswith("repro")}
        assert ours <= {"repro", "repro.errors"}

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "@fig3"], ["codegen", "@fig8", "-o", "{out}"]],
        ids=["simulate", "codegen"],
    )
    def test_cold_pipeline_skips_unused_layers(self, argv, tmp_path):
        argv = [arg.format(out=tmp_path / "gen") for arg in argv]
        modules, _ = _loaded_modules(_cli(argv))
        loaded = set(modules)
        for name in FORBIDDEN_ON_COLD_PIPELINE:
            assert name not in loaded, f"{argv[0]} imported {name}"
        # the pipeline itself did run
        assert "repro.scheduler.dfs" in loaded
        assert "repro.sim.machine" in loaded

    def test_discrete_search_skips_the_kernel_it_does_not_run(self):
        # the default discrete search runs the packed kernel, and only
        # that engine: neither the incremental engine nor the dense
        # stack loads
        modules, _ = _loaded_modules(_cli(["schedule", "@fig3"]))
        assert "repro.tpn.kernel" in modules
        for name in (
            "repro.tpn.fastengine",
            "repro.tpn.dbm",
            "repro.tpn._dbmc",
            "repro.tpn.stateclass",
            "repro.scheduler.parallel",
        ):
            assert name not in modules, name

    def test_portfolio_search_skips_the_incremental_engine(self):
        # a default portfolio race runs every slot on the kernel, so
        # the parent never loads the incremental engine either
        modules, _ = _loaded_modules(
            _cli(["schedule", "@fig3", "--parallel", "2"])
        )
        assert "repro.scheduler.parallel" in modules
        assert "repro.tpn.kernel" in modules
        assert "repro.tpn.fastengine" not in modules

    def test_parallel_module_defers_multiprocessing(self):
        # only a parallel search needs process pools; importing the
        # module (for validate_with_reference, say) must not load them
        modules, _ = _loaded_modules("import repro.scheduler.parallel")
        assert "multiprocessing" not in modules

    def test_stateclass_schedule_runs_from_cold(self):
        modules, output = _loaded_modules(
            _cli(["schedule", "@fig3", "--engine", "stateclass"])
        )
        assert "schedule        : feasible" in output
        assert "repro.tpn.dbm" in modules
        assert "multiprocessing" not in modules


class TestLazySurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listing = dir(module)
        for name in module.__all__:
            getattr(module, name)  # raises if the lazy table is wrong
            assert name in listing, f"{package}.{name} missing from dir()"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_exported_name_shadows_a_submodule(self, package):
        # importing a submodule binds it on the package under its own
        # name, so an export of the same name would be clobbered
        module = importlib.import_module(package)
        submodules = {
            info.name for info in pkgutil.iter_modules(module.__path__)
        }
        assert not submodules & set(module.__all__)

    def test_unknown_name_raises_attribute_error(self):
        import repro.scheduler

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.scheduler.no_such_name  # noqa: B018

    def test_from_import_matches_the_defining_module(self):
        from repro import find_schedule
        from repro.scheduler import validate_with_reference
        from repro.scheduler.core import (
            validate_with_reference as defined,
        )
        from repro.scheduler.dfs import find_schedule as dfs_find
        from repro.scheduler.parallel import (
            validate_with_reference as reexported,
        )

        assert find_schedule is dfs_find
        assert validate_with_reference is defined is reexported
