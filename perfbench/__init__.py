"""The repository's end-to-end benchmark of the synthesis pipeline.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (see :mod:`perfbench.run`).  Everything
here lives outside the program: the benchmark drives the package under
``src/`` through its public functions, its CLI and its HTTP service.
"""
