"""The float searches against the vector searches they stand in for.

Pruning and n-best add floats instead of value vectors on a hiero
lattice under a hiero lambda of 1.0 (``algorithms._on_floats``).  These
tests run both on many small, tie-heavy hiero lattices, the vector
searches by switching the float path off, and require the same masks,
paths, costs, backpointers and errors, bit for bit.  The unique n-best
is also checked for the prefix property the corpus report relies on,
and against a brute-force walk of every path.
"""

import math
import random

import pytest

from latcomb import (EPSILON, ONE, ZERO, Arc, ContractError, NoPathError, ParamVector, SymbolTable,
                     Wfst, weight)
from latcomb import algorithms
from latcomb.algorithms import (PathWitness, _distances, _nbest_raw, _prune_mask, _search, _unique,
                                nbest, shortest_path)
from latcomb.pipeline import HIERO_ONLY
from latcomb.semiring import HIERO_SCORE

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
    out = [hiero_lattice(rng, syms, scores) for _ in range(count)]
    assert all(algorithms._on_floats(h, HIERO_ONLY) for h in out)
    return out


def exact(path):
    """A path as a value that compares floats bit for bit (repr keeps -0.0 and nan)."""
    return path.rows, repr(path.cost), repr(path.weight.values), path.final_weight


def outcome(search, *args):
    """What a search returns, or the type and message of the error it raises."""
    try:
        return search(*args)
    except (ContractError, NoPathError) as exc:
        return type(exc), str(exc)


def mask(h, budget):
    got = outcome(_prune_mask, h, budget, HIERO_ONLY)
    if isinstance(got[0], type):
        return got
    keep, arcs, finals = got
    return list(keep), [tuple(rows) for rows in arcs], finals


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


def searches(h):
    """Every search a lattice is checked on, on whichever path is switched
    on: both distance passes, the shortest path, the mask at every budget
    from one below the shortest path's state count up (a ContractError
    below it), the unique n-best for n = 1..6 and the raw 6-best (a
    NoPathError without a path)."""
    search = _search(h, HIERO_ONLY)
    fwd, back = _distances(h, search)
    bwd, _ = _distances(h, search, backward=True)

    def costs(keys):
        return [repr(k if k is None else search.cost(k)) for k in keys]

    def paths(n, unique):
        got = outcome(nbest, h, n, HIERO_ONLY, unique)
        return got if isinstance(got[0], type) else [exact(p) for p in got]

    shortest = outcome(shortest_path, h, HIERO_ONLY)
    found = isinstance(shortest, PathWitness)
    lowest = len(shortest.rows) if found else 1
    return {
        "forward": costs(fwd), "back": back, "backward": costs(bwd),
        "shortest": exact(shortest) if found else shortest,
        "masks": [mask(h, b) for b in range(lowest, h.num_states + 1)],
        "unique": [paths(n, True) for n in range(1, 7)],
        "raw": paths(6, False),
    }


@pytest.mark.parametrize("scores, count", [(TIES, 10000), (CANCELLING, 5000), (OVERFLOWING, 5000)],
                         ids=["ties", "cancelling", "overflowing"])
def test_float_searches_equal_the_vector_searches(monkeypatch, scores, count):
    # 20,000 lattices in all.  With CANCELLING, sums such as 0.1 + 0.2 -
    # 0.3 fall below CANONICAL_EPS and are zeroed; with OVERFLOWING, sums
    # reach inf, -inf and, through inf - inf, nan: an overflowed state is
    # reached at inf on both paths, not taken for unreached.
    machines = lattices(18, count, scores)
    fast = [searches(h) for h in machines]
    with monkeypatch.context() as m:
        m.setattr(algorithms, "_on_floats", lambda fst, params: False)
        slow = [searches(h) for h in machines]
    assert [i for i, (f, s) in enumerate(zip(fast, slow)) if f != s] == []
    # The float backward pass takes each state's least candidate over its
    # own arcs, the vector pass relaxes the reversed arcs; a state that
    # reaches no final state stays None in both.
    assert sum(f["backward"].count("None") for f in fast) > count // 20
    # The corpus report reads every smaller n off the list at its largest
    # n.  Capping a search's pops at n breaks that where sums round (on 1
    # cancelling and 16 overflowing lattices); one uncapped stream cannot.
    unique = [f["unique"] for f in fast]
    assert [i for i, u in enumerate(unique) if isinstance(u[-1], list)
            and any(u[n - 1] != u[-1][:n] for n in range(1, 6))] == []
    no_path = (NoPathError, "no path from the initial state to a final state")
    assert sum(f["raw"] == no_path for f in fast) > count // 20


@pytest.mark.parametrize("hiero", [1.0, 0.5], ids=["floats", "vectors"])
def test_over_budget_pruning_needs_an_accessible_final_state(hiero):
    # Over budget, pruning reads reachability off its forward pass.  No
    # final state accessible: the machine accepts nothing.  One reached
    # only through an INF arc is accessible but on no path, as before.
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
    assert algorithms._on_floats(nothing, params) == (hiero == 1.0)
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
        beta, _ = _distances(h, search, backward=True)
        if beta[h.initial] is None:
            continue
        for n in range(1, 7):
            once = [exact(p) for p in _unique(_nbest_raw(h, n, search, beta), n)]
            capped += once != [exact(p) for p in nbest(h, n, HIERO_ONLY, unique=True)]
    assert capped > 0


def test_an_overflowed_sum_is_reached_at_inf():
    # 1e308 + 1e308 overflows to inf, and the state it reaches is reached,
    # not unreached: n-best finds the one path through it, at cost inf.
    # A shortest path that costs inf leaves pruning no threshold, so it
    # keeps that path alone (state 4, which nothing reaches, included, it
    # raised TypeError before).
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
    assert algorithms._on_floats(h, HIERO_ONLY)
    fwd, _ = _distances(h, _search(h, HIERO_ONLY))
    assert fwd == [0.0, 1e308, math.inf, math.inf, None]
    (path,) = nbest(h, 3, HIERO_ONLY, unique=True)
    assert (path.output_labels(), path.cost) == ((a, a, a), math.inf)
    keep, arcs, finals = _prune_mask(h, 4, HIERO_ONLY)
    assert (keep, list(finals)) == ([0, 1, 2, 3], [3])
    assert [len(rows) for rows in arcs] == [1, 1, 1, 0, 0]
