"""Run the ``ezrt`` CLI with spans around its layers (traced runs only).

Usage: ``python3 perfbench/clishim.py --spans OUT.json <ezrt arguments>``

Behaves like the ``ezrt`` console script, but first swaps the CLI's
layer entry points (spec loading, composition, compilation, search,
schedule extraction, code generation, simulation; for ``serve`` the
request parsing and pre-search lint) for timing wrappers, and on exit
writes the recorded spans to ``OUT.json`` for the parent benchmark
process to adopt.  The program itself is unchanged.
"""

import time

STARTED = time.monotonic_ns()

import os  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:1] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import common, tracing  # noqa: E402

CLI_LAYERS = (
    ("_load_spec", "spec.load"),
    ("compose", "blocks.compose"),
    ("find_schedule", "scheduler.find_schedule"),
    ("run_schedule", "sim.run"),
    ("verify_trace", "sim.verify"),
)


def _install(tracer, patches, argv) -> None:
    serving = argv[:1] == ["serve"]
    with tracer.span("import.repro_cli") if not serving else nullcontext():
        import repro.cli as cli
    if serving:
        # only the server's own process: its forked pool workers must
        # run unwrapped code (their spans could not be collected)
        from repro.service import app

        patches.set(
            app,
            "spec_from_json",
            tracing.wrap(tracer, app.spec_from_json, "spec.load"),
        )
        patches.set(
            app,
            "presearch_diagnostics",
            tracing.wrap(tracer, app.presearch_diagnostics, "lint.presearch"),
        )
        return
    from repro.blocks.composer import ComposedModel

    tracing.install_search_layers(tracer, patches)
    for attr, name in CLI_LAYERS:
        patches.set(cli, attr, tracing.wrap(tracer, getattr(cli, attr), name))

    compiled = ComposedModel.compiled
    seen = set()

    def traced_compiled(model):
        with tracer.span("tpn.compile"):
            net = compiled(model)
        if id(model) not in seen:
            seen.add(id(model))
            tracer.count("tpn.compiles")
            tracer.count("blocks.net_places", net.num_places)
            tracer.count("blocks.net_transitions", net.num_transitions)
        return net

    patches.set(ComposedModel, "compiled", traced_compiled)

    extract, generate = cli.schedule_from_result, cli.generate_project

    def traced_extract(model, result, check=True):
        with tracer.span("schedule.extract"):
            schedule = extract(model, result, check)
        tracer.count("schedule.items", len(schedule.items))
        return schedule

    def traced_generate(model, schedule, target="hostsim"):
        with tracer.span("codegen.generate"):
            project = generate(model, schedule, target)
        tracer.count("codegen.bytes", common.c_bytes(project.files))
        return project

    patches.set(cli, "schedule_from_result", traced_extract)
    patches.set(cli, "generate_project", traced_generate)


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 2 or args[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, argv = args[1], args[2:]
    tracer = tracing.Tracer()
    tracer.record("shim.setup", STARTED, common.now_ns(), None)
    patches = tracing.Patches()
    _install(tracer, patches, argv)
    import repro.cli as cli

    try:
        if argv[:1] == ["serve"]:
            # a server's lifetime is no request's span
            code = cli.main(argv)
        else:
            with tracer.span("cli.main"):
                code = cli.main(argv)
    finally:
        patches.undo()
        tracing.dump(tracer, spans_path, started=STARTED)
    return code


if __name__ == "__main__":
    sys.exit(main())
