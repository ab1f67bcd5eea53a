"""A ladder of networks past today's limits, in tier-1.

Each row builds its network in code and holds the question, a reference
where one is cheap, and today's outcome: either the row answers, and
equals its reference within 1e-12, or it is refused with a
`BudgetExceededError` that names its cap (``limit``) and its estimate,
before any contraction (`Cbn._contract`) ran.  A change that lifts a limit
flips a refused row to answered by changing only its expected outcome; a
row that moves from answered to refused is a regression.

The references are closed forms by matrix-vector products over the
networks' own tables, or `oracle.naive_policy_search`, or, for dead
drivers, the event's marginal.  `test_each_closed_form_holds_where_the_engine_answers`
checks every closed form against the engine on a copy small enough to
answer today.
"""

from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from cbnctrl import (
    CLASS_INF,
    BudgetExceededError,
    Cbn,
    Dag,
    Direction,
    naive_policy_search,
    optimal_policy_value,
    random_cbn,
)
from cbnctrl.netfile import parse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BOTH = (Direction.MAX, Direction.MIN)
#: today's caps, as `Budget` sets them by default
STATE_CAP = 2 ** 14
WORK_CAP = 50_000_000


def table(cbn: Cbn, node: str) -> np.ndarray:
    """``node``'s CPD as an array over its parents, in the CPD's order,
    then its own values."""
    cpd = cbn.cpd(node)
    return np.array(cpd.rows).reshape(*cpd.parent_cards, cbn.cards[node])


# -- builders ---------------------------------------------------------------

def names(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def chain(n: int, seed: int) -> Cbn:
    """A binary chain v0 -> ... -> v(n-1) with random tables."""
    nodes = names(n)
    return random_cbn(np.random.default_rng(seed), Dag(nodes, list(zip(nodes, nodes[1:]))))


def skip_chain(n: int, seed: int) -> Cbn:
    """A binary chain with skip edges, v_i -> v_(i+1) and v_i -> v_(i+2),
    with random tables."""
    nodes = names(n)
    edges = list(zip(nodes, nodes[1:])) + list(zip(nodes, nodes[2:]))
    return random_cbn(np.random.default_rng(seed), Dag(nodes, edges))


def cfan(k: int, seed: int) -> Cbn:
    """``cfanK``: r -> d_i, r -> m, d_i -> m, m -> o, binary."""
    drivers = [f"d{i}" for i in range(k)]
    edges = [("r", d) for d in drivers] + [(d, "m") for d in drivers] + [("r", "m"), ("m", "o")]
    return random_cbn(np.random.default_rng(seed), Dag(["r", *drivers, "m", "o"], edges))


def pfan(k: int, seed: int) -> Cbn:
    """``pfanK``: r_i -> d_i, r_i -> m, d_i -> m, m -> o, binary."""
    nodes, edges = [], [("m", "o")]
    for i in range(k):
        nodes += [f"r{i}", f"d{i}"]
        edges += [(f"r{i}", f"d{i}"), (f"r{i}", "m"), (f"d{i}", "m")]
    return random_cbn(np.random.default_rng(seed), Dag([*nodes, "m", "o"], edges))


def fan(k: int, roots: int, seed: int) -> Cbn:
    """The benchmark's ``fan(k, roots)``: drivers d_i, each with private
    roots r{i}_{j}, joined by a mediator m above the target o, binary."""
    nodes, edges = [], [("m", "o")]
    for i in range(k):
        rs = [f"r{i}_{j}" for j in range(roots)]
        nodes += [*rs, f"d{i}"]
        edges += [(r, f"d{i}") for r in rs] + [(f"d{i}", "m")]
    return random_cbn(np.random.default_rng(seed), Dag([*nodes, "m", "o"], edges))


def dead_driver() -> Cbn:
    """``fixtures/dead_driver.json``'s network: x and y reach no target."""
    return parse((FIXTURES / "dead_driver.json").read_text(encoding="utf-8")).cbn


# -- questions --------------------------------------------------------------

def marginal(event: Callable[[Cbn], dict]):
    """The question ``P(event)``, as a one-entry tuple."""
    return lambda cbn: (cbn.marginal_prob(event(cbn)),)


def last_is_one(cbn: Cbn) -> dict:
    return {cbn.dag.nodes[-1]: 1}


def all_ones(cbn: Cbn) -> dict:
    return dict.fromkeys(cbn.dag.nodes, 1)


def optimum(drivers: Callable[[Cbn], tuple], desired: Callable[[Cbn], dict] = last_is_one):
    """The question: the best value at class inf over policies on
    ``drivers``, in each direction."""
    return lambda cbn: tuple(
        optimal_policy_value(cbn, drivers(cbn), CLASS_INF, desired(cbn), direction)[0] for direction in BOTH
    )


def node_at(back: int):
    """The drivers: node ``v(n-back)`` alone."""
    return lambda cbn: (cbn.dag.nodes[-back],)


def fan_drivers(cbn: Cbn) -> tuple:
    return tuple(n for n in cbn.dag.nodes if n.startswith("d"))


# -- references -------------------------------------------------------------

def chain_last_is_one(cbn: Cbn) -> tuple:
    """``P(v(n-1) = 1)`` on a chain: v0's row times each transition."""
    nodes = cbn.dag.nodes
    p = table(cbn, nodes[0])
    for node in nodes[1:]:
        p = p @ table(cbn, node)
    return (float(p[1]),)


def chain_all_ones(cbn: Cbn) -> tuple:
    """``P(every node = 1)`` on a chain: a product of n entries."""
    nodes = cbn.dag.nodes
    return (float(table(cbn, nodes[0])[1] * prod(table(cbn, n)[1, 1] for n in nodes[1:])),)


def chain_best_constant(cbn: Cbn) -> tuple:
    """The optimum of driver v(n-3) at class inf for ``v(n-1) = 1`` on a
    chain: its requisite scope is empty, so the best constant, read off the
    last two transitions."""
    nodes = cbn.dag.nodes
    values = table(cbn, nodes[-2]) @ table(cbn, nodes[-1])[:, 1]
    return float(values.max()), float(values.min())


def skip_chain_best_rule(cbn: Cbn) -> tuple:
    """The optimum of driver v(n-2) at class inf for ``v(n-1) = 1`` on a
    skip chain: its requisite scope is v(n-3) alone, so the best value per
    value of v(n-3), weighted by v(n-3)'s marginal.  That marginal comes
    from a forward pass over each pair of adjacent nodes."""
    nodes = cbn.dag.nodes

    def by(node, *parents):
        # ``node``'s table with its parents' axes in the order given
        cpd = cbn.cpd(node)
        return table(cbn, node).transpose([cpd.parents.index(p) for p in parents] + [len(parents)])

    # pair[a, b]: P(v(i-1) = a, v(i) = b), from i = 1 up to i = n-3
    pair = table(cbn, nodes[0])[:, None] * table(cbn, nodes[1])
    for i in range(2, len(nodes) - 2):
        pair = np.einsum("ab,abc->bc", pair, by(nodes[i], nodes[i - 2], nodes[i - 1]))
    last = by(nodes[-1], nodes[-3], nodes[-2])[..., 1]
    below = pair.sum(axis=0)
    return float(below @ last.max(axis=1)), float(below @ last.min(axis=1))


def naive(drivers) -> Callable[[Cbn], tuple]:
    """`naive_policy_search`'s optimum at class inf over policies on
    ``drivers``, in each direction."""
    return lambda cbn: tuple(
        naive_policy_search(cbn, drivers(cbn), CLASS_INF, last_is_one(cbn), direction)[0] for direction in BOTH
    )


def dead_marginal(cbn: Cbn) -> tuple:
    """With every driver dead, each direction's optimum is the event's
    marginal."""
    return (cbn.marginal_prob({"t": 1}),) * 2


# -- the ladder -------------------------------------------------------------

@dataclass(frozen=True)
class Refused:
    """Today's refusal: a `BudgetExceededError` with its cap and estimate."""

    limit: int
    estimate: int


@dataclass(frozen=True)
class Row:
    """A rung: its network, its question (values per direction, or one
    probability), its reference where one is cheap, and today's outcome,
    ``None`` for a row that answers."""

    build: Callable[[], Cbn]
    ask: Callable[[Cbn], tuple]
    reference: Callable[[Cbn], tuple] | None
    outcome: Refused | None


def over_states(n: int) -> Refused:
    """The state-space cap's refusal of a binary network of ``n`` nodes."""
    return Refused(STATE_CAP, 2 ** n)


ROWS = {
    # each needs a few nodes' tables at a time, yet the whole network's
    # state space is capped; 60 nodes also pass einsum's 52 labels
    **{
        f"chain{n} marginal": Row(lambda n=n: chain(n, n), marginal(last_is_one), chain_last_is_one, over_states(n))
        for n in (26, 40, 52, 60)
    },
    # a fold that keeps every pinned node's axis would hold 2^24 entries:
    # this must stay refused, or answer without such a fold
    "chain24 every node pinned": Row(lambda: chain(24, 24), marginal(all_ones), chain_all_ones, over_states(24)),
    # the driver's requisite scope is empty, yet a chained driver keeps
    # its whole class scope in the base
    **{
        f"chain{n} driver v(n-3)": Row(
            lambda n=n: chain(n, n), optimum(node_at(3)), chain_best_constant, over_states(n)
        )
        for n in (16, 40)
    },
    # the driver's requisite scope is one node, so its witness needs two
    # rows, where a witness on its class scope needs 2^(n-2)
    **{
        f"skip chain{n} driver v(n-2)": Row(
            lambda n=n: skip_chain(n, n), optimum(node_at(2)), skip_chain_best_rule, over_states(n)
        )
        for n in (16, 40)
    },
    # drivers that share a confounder are enumerated: the work estimate
    # refuses cfan9 and cfan10, and the state-space cap the larger ones
    "cfan9": Row(lambda: cfan(9, 9), optimum(fan_drivers), None, Refused(WORK_CAP, 268_435_456)),
    "cfan10": Row(lambda: cfan(10, 10), optimum(fan_drivers), None, Refused(WORK_CAP, 2_147_483_648)),
    "cfan12": Row(lambda: cfan(12, 12), optimum(fan_drivers), None, over_states(15)),
    "pfan7": Row(lambda: pfan(7, 7), optimum(fan_drivers), None, over_states(16)),
    # rows that answer today
    "fan(3, 2)": Row(lambda: fan(3, 2, 32), optimum(fan_drivers), naive(fan_drivers), None),
    "dead drivers x, y": Row(
        dead_driver, optimum(lambda cbn: ("x", "y"), lambda cbn: {"t": 1}), dead_marginal, None
    ),
}


@pytest.mark.parametrize("name", ROWS)
def test_each_row_has_its_outcome(monkeypatch, name):
    row = ROWS[name]
    cbn = row.build()
    contracted = []
    real = Cbn._contract

    def recording(self, *args, **kwargs):
        contracted.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Cbn, "_contract", recording)
    if row.outcome is None:
        got = row.ask(cbn)
        assert got == pytest.approx(row.reference(cbn), abs=1e-12, rel=0)
        return
    with pytest.raises(BudgetExceededError) as refused:
        row.ask(cbn)
    assert (refused.value.limit, refused.value.estimate) == (row.outcome.limit, row.outcome.estimate)
    assert contracted == []
    if row.reference is not None:
        # the reference a flipped row is checked against is ready
        assert all(0.0 <= value <= 1.0 for value in row.reference(cbn))


@pytest.mark.parametrize(
    "build, ask, reference",
    [
        (lambda: chain(12, 1), marginal(last_is_one), chain_last_is_one),
        (lambda: chain(12, 2), marginal(all_ones), chain_all_ones),
        (lambda: chain(10, 3), optimum(node_at(3)), chain_best_constant),
        (lambda: skip_chain(10, 4), optimum(node_at(2)), skip_chain_best_rule),
        (lambda: skip_chain(6, 5), optimum(node_at(2)), skip_chain_best_rule),
    ],
    ids=["chain marginal", "chain pinned", "chain driver", "skip chain driver", "short skip chain driver"],
)
def test_each_closed_form_holds_where_the_engine_answers(build, ask, reference):
    cbn = build()
    assert ask(cbn) == pytest.approx(reference(cbn), abs=1e-12, rel=0)
