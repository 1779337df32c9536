"""Searches over hiero lattices whose float sums round, cancel or overflow.

Every search keys paths exactly (``semiring.pack_keys``), so on many
small, tie-heavy hiero lattices with cancelling or overflowing scores
each must find the least path that an exact walk of every path in
Fractions finds (``helpers.least_exact_key``).  The unique n-best is also
checked for the prefix property the corpus report relies on, and against
a brute-force walk of every path.
"""

import math
import random

import pytest

from latcomb import (EPSILON, ONE, ZERO, Arc, ContractError, NoPathError, ParamVector, SymbolTable,
                     Wfst, weight)
from latcomb.algorithms import (_backward, _forward, _nbest_raw, _prune_mask, _search, _unique, nbest,
                                shortest_path)
from latcomb.pipeline import HIERO_ONLY
from latcomb.semiring import HIERO_SCORE

from helpers import least_exact_key, path_key

TIES = (-1.0, 0.0, 0.5, 1.0, 2.0)
CANCELLING = (0.1, 0.2, -0.3, 0.7, -0.4, 1e-16)
OVERFLOWING = (1e308, -1e308, 1.5e308, 0.0, 1.0)


def hiero_lattice(rng: random.Random, syms: SymbolTable, scores) -> Wfst:
    """A small acyclic hiero lattice: 2-8 states numbered out of
    topological order, up to 3 arcs per state (a quarter of them
    epsilon) over 3 words, so many paths share a string, 1-3 finals;
    one lattice in eight starts mid-way, so some finals (or all) are
    out of reach."""
    words = [syms.add(w) for w in "abc"]
    n = rng.randint(2, 8)
    fst = Wfst(syms, syms)
    for _ in range(n):
        fst.add_state()
    at = list(range(n))  # at[i]: the state in topological position i
    rng.shuffle(at)
    start = rng.randrange(n - 1) if rng.random() < 0.125 else 0
    fst.set_initial(at[start])
    for i in range(n - 1):
        for _ in range(rng.randint(1 if i == start else 0, 3)):
            label = EPSILON if rng.random() < 0.25 else rng.choice(words)
            fst.add_arc(at[i], Arc(label, label, weight({1: rng.choice(scores)}),
                                   at[rng.randrange(i + 1, n)]))
    for i in rng.sample(range(n), rng.randint(1, min(3, n))):
        fst.set_final(at[i], ONE if rng.random() < 0.5 else weight({1: rng.choice(scores)}))
    return fst.freeze()


def lattices(seed: int, count: int, scores):
    rng = random.Random(seed)
    syms = SymbolTable()
    return [hiero_lattice(rng, syms, scores) for _ in range(count)]


def exact(path):
    """A path as a value that compares floats bit for bit (repr keeps -0.0 and nan)."""
    return path.rows, repr(path.cost), repr(path.weight.values), path.final_weight


def cheapest_strings(h):
    """Brute force: walk every path of ``h`` from its initial state to
    acceptance and keep, per distinct output string, its least cost."""
    best = {}

    def walk(s, labels, cost):
        fw = h.final_weight(s)
        if fw is not None:
            total = cost + fw.values[HIERO_SCORE]
            best[labels] = min(best.get(labels, total), total)
        for t, _, olabel, values in h.rows(s):
            walk(t, labels if olabel == EPSILON else labels + (olabel,), cost + values[HIERO_SCORE])

    walk(h.initial, (), 0.0)
    return best


@pytest.mark.parametrize("scores, count", [(TIES, 2000), (CANCELLING, 2000), (OVERFLOWING, 2000)],
                         ids=["ties", "cancelling", "overflowing"])
def test_searches_find_the_exact_least_path(scores, count):
    # With CANCELLING, float sums such as 0.1 + 0.2 - 0.3 fall below
    # CANONICAL_EPS and are zeroed; with OVERFLOWING, they reach inf, -inf
    # and, through inf - inf, nan.  The keys are exact: the shortest path,
    # the 1-best and the unique 1-best all have the least key of the walk,
    # the shortest path is the 1-best, ties included, and pruning keeps the
    # shortest path at every budget from its state count up (a
    # ContractError below it).
    no_path = 0
    for h in lattices(18, count, scores):
        least = least_exact_key(h, HIERO_ONLY)
        if least is None:
            with pytest.raises(NoPathError):
                shortest_path(h, HIERO_ONLY)
            no_path += 1
            continue
        best = shortest_path(h, HIERO_ONLY)
        (first,) = nbest(h, 1, HIERO_ONLY)
        (unique,) = nbest(h, 1, HIERO_ONLY, unique=True)
        assert [path_key(p.rows, p.final_weight, HIERO_ONLY) for p in (best, first, unique)] \
            == [least] * 3
        assert best.rows == first.rows
        states = {h.initial, *(row[0] for row in best.rows)}
        with pytest.raises(ContractError):
            _prune_mask(h, len(states) - 1, HIERO_ONLY)
        for budget in range(len(states), h.num_states + 1):
            assert states <= set(_prune_mask(h, budget, HIERO_ONLY)[0])
    assert no_path > count // 20


@pytest.mark.parametrize("scores", [CANCELLING, OVERFLOWING], ids=["cancelling", "overflowing"])
def test_unique_nbest_lists_are_prefixes_of_longer_ones(scores):
    # The corpus report reads every smaller n off the list at its largest
    # n: the first n strings of the unique 6-best are the unique n-best.
    # Under float keys, a stream that capped its pops at n broke that on 1
    # cancelling and 27 overflowing lattices of these 8,000 each.
    for h in lattices(18, 8000, scores):
        try:
            six = [p.output_labels() for p in nbest(h, 6, HIERO_ONLY, unique=True)]
        except NoPathError:
            continue
        for n in range(1, min(6, len(six))):
            assert [p.output_labels() for p in nbest(h, n, HIERO_ONLY, unique=True)] == six[:n]


@pytest.mark.parametrize("hiero", [1.0, 0.5], ids=["floats", "vectors"])
def test_over_budget_pruning_needs_an_accessible_final_state(hiero):
    # Over budget, pruning reads reachability off its forward pass.  No
    # final state accessible: the machine accepts nothing.  One reached
    # only through an INF arc is accessible but on no path, as before.
    # Under a hiero lambda of 1.0 and of 0.5.
    params = ParamVector(nmt=0.0, hiero=hiero, edit=0.0, sub=0.0, ins=0.0)
    syms = SymbolTable()
    a = syms.add("a")

    def lattice(arcs):
        h = Wfst(syms, syms)
        for _ in range(5):
            h.add_state()
        h.set_initial(0)
        for src, w, dst in arcs:
            h.add_arc(src, Arc(a, a, w, dst))
        h.set_final(4, ONE)
        return h.freeze()

    chain = [(0, weight({1: 0.5}), 1), (1, weight({1: 0.5}), 2)]
    nothing = lattice(chain + [(3, ONE, 4)])
    no_path = lattice(chain + [(2, ZERO, 4)])
    for budget in (1, 2, 3, 4):
        with pytest.raises(NoPathError, match="^machine accepts nothing$"):
            _prune_mask(nothing, budget, params)
        with pytest.raises(NoPathError, match="^no path from the initial state to a final state$"):
            _prune_mask(no_path, budget, params)
    # Within budget, only accessibility is checked.
    with pytest.raises(NoPathError, match="^machine accepts nothing$"):
        _prune_mask(nothing, 5, params)
    assert list(_prune_mask(no_path, 5, params)[0]) == [0, 1, 2, 3, 4]


def test_unique_nbest_equals_a_brute_force_reference():
    # Every sum of these scores is exact, so each string's least cost is
    # too.  The n-best lists n strings at their least costs, the n least
    # of all, and every string cheaper than the n-th; which of the strings
    # tied at the n-th cost it lists is the search's tie rule.
    for h in lattices(20, 3000, TIES):
        best = cheapest_strings(h)
        if not best:
            with pytest.raises(NoPathError):
                nbest(h, 1, HIERO_ONLY, unique=True)
            continue
        least = sorted(best.values())
        for n in range(1, 7):
            got = nbest(h, n, HIERO_ONLY, unique=True)
            strings = [p.output_labels() for p in got]
            assert len(set(strings)) == len(strings)
            assert [p.cost for p in got] == [best[s] for s in strings] == least[:n]
            assert {s for s, c in best.items() if c < got[-1].cost} <= set(strings)


def test_unique_nbest_must_not_cap_its_pops():
    # A stream that expands no state more than n times finds other strings
    # than the unique n-best on some of these lattices: with several paths
    # per string, n distinct strings can need a state's (n+1)-th prefix.
    capped = 0
    for h in lattices(19, 2000, TIES):
        search = _search(h, HIERO_ONLY)
        bkey = _backward(h, search)
        if bkey[h.initial] is None:
            continue
        for n in range(1, 7):
            once = [tuple(rows) for rows, _ in _unique(_nbest_raw(h, n, search, bkey), n)]
            capped += once != [p.rows for p in nbest(h, n, HIERO_ONLY, unique=True)]
    assert capped > 0


def test_an_overflowed_sum_is_reached_at_inf():
    # 1e308 + 1e308 overflows to inf in floats, and the state it reaches is
    # reached, at its exact cost 2e308: n-best finds the one path through
    # it, and reports its float cost, inf.  The shortest path's exact cost
    # is 1e308, so pruning finds its threshold as for any other cost
    # (state 4, which nothing reaches, is dropped).
    syms = SymbolTable()
    a, b = syms.add("a"), syms.add("b")
    h = Wfst(syms, syms)
    for _ in range(5):
        h.add_state()
    h.set_initial(0)
    for src, label, score, dst in ((0, a, 1e308, 1), (1, a, 1e308, 2), (2, a, -1e308, 3),
                                   (4, b, 1.0, 3)):
        h.add_arc(src, Arc(label, label, weight({1: score}), dst))
    h.set_final(3, ONE)
    h = h.freeze()
    fwd = _forward(h, _search(h, HIERO_ONLY))
    assert fwd[0] == 0 and fwd[2] == 2 * fwd[1] == 2 * fwd[3] > 0 and fwd[4] is None
    (path,) = nbest(h, 3, HIERO_ONLY, unique=True)
    assert (path.output_labels(), path.cost) == ((a, a, a), math.inf)
    keep, arcs, finals = _prune_mask(h, 4, HIERO_ONLY)
    assert (keep, list(finals)) == ([0, 1, 2, 3], [3])
    assert [len(rows) for rows in arcs] == [1, 1, 1, 0, 0]
