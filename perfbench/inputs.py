"""Workload inputs: fixed pools of specs and nets, seeded request orders.

Every input a workload can send comes from a fixed pool whose expected
answers are stored in ``answers.json`` (see :mod:`perfbench.answers`).
The ``--seed`` only chooses which pool members are sent and in which
order, so any seed is checkable against the stored answers and the
program sees nothing but the generated inputs.

Pools are identified by string keys (``"r5/12"``, ``"race/5/16"``,
``"case/fig3"``); the functions below turn a key back into its input.
"""

from __future__ import annotations

import random

CASES = ("mine-pump", "fig3", "fig4", "fig8")

#: Search budget of every ``search-grid`` request (a fixed
#: ``max_states``): refutations that would run past it end as
#: ``budget`` verdicts, which the reference engine reproduces exactly.
GRID_MAX_STATES = 10_000
#: Members per family of the ``search-grid`` pool.
GRID_SEEDS = 60
#: µs-magnitude slice: base periods 100–500 scaled ×1000, so every
#: period (10⁵–5·10⁵) exceeds the packed kernel's 65534 clock cap.
US_PERIODS = (100, 125, 200, 250, 500)
US_SCALE = 1000

RACE_JOBS = (4, 5, 6)
RACE_WIDTHS = tuple(range(8, 25))
JOBNET_WIDTHS = tuple(range(4, 17))

#: Members per family of the ``service-mix`` pool.
SERVICE_SEEDS = 1500
#: Share of ``service-mix`` requests that repeat an earlier spec.
REPEAT_SHARE = 0.4
#: Cost strata of the ``service-mix`` fresh-spec stream.
SERVICE_STRATA = 20


def workload_rng(workload: str, seed: int) -> random.Random:
    # string seeding is stable across interpreter runs
    return random.Random(f"{workload}:{seed}")


# ----------------------------------------------------------------------
# search-grid
# ----------------------------------------------------------------------
def grid_keys() -> list[str]:
    return [
        f"{family}/{seed}"
        for family in ("r5", "rel6", "us")
        for seed in range(GRID_SEEDS)
    ]


def grid_spec(key: str):
    from repro.workloads import (
        random_task_set,
        random_task_set_with_relations,
        time_scaled_task_set,
    )

    family, seed = key.split("/")
    seed = int(seed)
    if family == "r5":
        return random_task_set(5, 0.7, seed=seed)
    if family == "rel6":
        return random_task_set_with_relations(6, seed=seed)
    if family == "us":
        base = random_task_set(4, 0.6, seed=seed, period_grid=US_PERIODS)
        return time_scaled_task_set(base, US_SCALE)
    raise KeyError(key)


def stratified_rounds(keys: list[str], cost: dict, per_round: int, rng):
    """Endless request order drawn from cost strata.

    The pool is sorted by its stored cost (states visited by the
    oracle) and cut into ``per_round`` strata of equal size; each
    round sends one member of every stratum, in random order, and
    each stratum is walked in a seeded permutation (reshuffled when
    spent).  Every round therefore has the same cost profile and a run
    sees each stratum's members about equally often, which keeps a
    run's latency quantiles and throughput steady across seeds while
    the seed still picks the members and their order.
    """
    ordered = sorted(keys, key=lambda k: (cost[k], k))
    size = len(ordered) / per_round
    strata = [
        ordered[round(i * size) : round((i + 1) * size)]
        for i in range(per_round)
    ]
    walks = [[] for _ in strata]
    while True:
        batch = []
        for stratum, walk in zip(strata, walks):
            if not walk:
                walk.extend(stratum)
                rng.shuffle(walk)
            batch.append(walk.pop())
        rng.shuffle(batch)
        yield from batch


# ----------------------------------------------------------------------
# dense-classes
# ----------------------------------------------------------------------
def dense_keys() -> list[str]:
    keys = [f"race/{n}/{w}" for n in RACE_JOBS for w in RACE_WIDTHS]
    keys += [f"jobnet/{w}" for w in JOBNET_WIDTHS]
    keys += [f"case/{name}" for name in CASES]
    return keys


def dense_input(key: str):
    """``("net", TimePetriNet)`` or ``("spec", EzRTSpec)`` for a key."""
    from repro.spec import paper_examples
    from repro.workloads import wide_interval_job_net, wide_interval_race_net

    parts = key.split("/")
    if parts[0] == "race":
        return "net", wide_interval_race_net(int(parts[1]), int(parts[2]))
    if parts[0] == "jobnet":
        return "net", wide_interval_job_net(
            n_jobs=4, width=int(parts[1]), feasible=True
        )
    if parts[0] == "case":
        return "spec", paper_examples()[parts[1]]
    raise KeyError(key)


#: Race refutations per round, by job count.  Four of the ~40 ms
#: five-job nets put the round's median inside one cost cluster
#: instead of on the edge between two.
RACE_PER_ROUND = {4: 2, 5: 4, 6: 2}


def _walk(values, rng):
    """Endless seeded walk: each pass is a fresh permutation of ``values``."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def dense_rounds(rng):
    """Rounds of race refutations (:data:`RACE_PER_ROUND`), one feasible
    job net and the four case studies, in random order.  Widths are
    walked in seeded permutations, not drawn independently, so every
    run sends each width about equally often: a refutation's cost grows
    with its width, and the round's median is a five-job race."""
    races = {n: _walk(RACE_WIDTHS, rng) for n in RACE_PER_ROUND}
    jobnets = _walk(JOBNET_WIDTHS, rng)
    while True:
        batch = [
            f"race/{n}/{next(races[n])}"
            for n, count in RACE_PER_ROUND.items()
            for _ in range(count)
        ]
        batch.append(f"jobnet/{next(jobnets)}")
        batch += [f"case/{name}" for name in CASES]
        rng.shuffle(batch)
        yield from batch


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def service_keys() -> list[str]:
    return [
        f"{family}/{seed}"
        for family in ("r4", "rel4")
        for seed in range(SERVICE_SEEDS)
    ]


def service_spec(key: str):
    from repro.workloads import random_task_set, random_task_set_with_relations

    family, seed = key.split("/")
    if family == "r4":
        return random_task_set(4, 0.6, seed=int(seed))
    if family == "rel4":
        return random_task_set_with_relations(4, seed=int(seed))
    raise KeyError(key)


def service_stream(keys: list[str], cost: dict, rng):
    """Endless stream of service keys.

    In every block of five requests exactly two (at seeded positions)
    repeat an earlier spec, so :data:`REPEAT_SHARE` is the same in every
    run; the other three are fresh pool members drawn from cost strata
    (see :func:`stratified_rounds`), so every run sends fresh computes
    of the same cost profile.  A drawn member already sent (once the
    strata wrap around) goes out as one more repeat.
    """
    fresh = stratified_rounds(keys, cost, SERVICE_STRATA, rng)
    sent: list[str] = []
    seen: set[str] = set()
    block = 5
    repeats_per_block = round(REPEAT_SHARE * block)
    while True:
        repeat_at = set(rng.sample(range(block), repeats_per_block))
        for position in range(block):
            if sent and position in repeat_at:
                yield rng.choice(sent)
                continue
            key = next(fresh)
            if key not in seen:
                seen.add(key)
                sent.append(key)
            yield key


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------
def cli_rounds(rng):
    """Rounds of ``simulate`` and ``codegen`` for every case study."""
    while True:
        batch = [
            (command, case)
            for case in CASES
            for command in ("simulate", "codegen")
        ]
        rng.shuffle(batch)
        yield from batch
