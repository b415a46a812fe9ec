"""Shared helpers for the benchmark harness.

Every bench module reproduces one table/figure of the paper or gates
one engine (the README's Benchmarks section lists them; ``docs/``
describes each subsystem they measure).  Benches both *measure* (via
pytest-benchmark) and *verify* (assertions on the reproduced numbers);
the printed paper-vs-measured rows are appended to
``benchmark_report.txt``.
"""

from __future__ import annotations

import pytest


def paper_row(label: str, paper: object, measured: object) -> str:
    """Format one paper-vs-measured comparison row."""
    return f"  {label:<34} paper: {paper!s:>12}  measured: {measured!s:>12}"


@pytest.fixture(scope="session")
def report():
    """Collect and print paper-vs-measured rows at session end."""
    rows: list[str] = []

    def add(experiment: str, label: str, paper, measured) -> None:
        rows.append(f"[{experiment}] " + paper_row(label, paper, measured))

    yield add
    if rows:
        header = [
            "=" * 72,
            "paper-vs-measured summary",
            "=" * 72,
        ]
        body = header + rows
        print("\n" + "\n".join(body))
        # persist the summary regardless of output capturing
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "benchmark_report.txt"
        )
        with open(os.path.abspath(path), "a", encoding="utf-8") as fh:
            fh.write("\n".join(body) + "\n")
