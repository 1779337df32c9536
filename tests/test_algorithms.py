import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from latcomb import (
    EPSILON,
    ONE,
    UNK,
    ZERO,
    Arc,
    ContractError,
    NoPathError,
    ParamVector,
    SymbolTable,
    Wfst,
    count_paths,
    nbest,
    prune_to_node_budget,
    shortest_path,
    weight,
)
from latcomb.algorithms import PathWitness
from latcomb.editfst import expand_unk_runs
from latcomb.fst import is_acyclic
from latcomb.oracle import enumerate_paths
from latcomb.pipeline import HIERO_ONLY
from latcomb.semiring import scalarize

from helpers import (acceptor_from_sentences, dyadic, grid_params, grid_weight, holds_negative,
                     linear_chain, path_signature, random_dag_lattice)

UNIT = ParamVector(1.0, 1.0, 1.0, 1.0, 1.0)


def two_arc_machine(syms, w1, w2, cyclic=False, second_label="a"):
    a, b = syms.add("a"), syms.add(second_label)
    fst = Wfst(syms, syms)
    s0, s1 = fst.add_state(), fst.add_state()
    fst.set_initial(s0)
    fst.add_arc(s0, Arc(a, a, w1, s1))
    fst.add_arc(s0, Arc(b, b, w2, s1))
    if cyclic:
        fst.add_arc(s1, Arc(a, a, weight({0: 1.0}), s1))
    fst.set_final(s1, ONE)
    return fst.freeze()


def test_shortest_path_picks_cheaper_arc():
    syms = SymbolTable()
    fst = two_arc_machine(syms, weight({0: 1.0}), weight({0: 2.0}))
    path = shortest_path(fst, UNIT)
    assert path.cost == 1.0
    assert path.weight == weight({0: 1.0})


def test_shortest_path_negative_cycle_guard():
    syms = SymbolTable()
    a = syms.add("a")
    fst = Wfst(syms, syms)
    s = fst.add_state()
    fst.set_initial(s)
    fst.set_final(s, ONE)
    fst.add_arc(s, Arc(a, a, weight({0: 1.0}), s))
    fst.freeze()
    # Cyclic but nonnegative: fine (the loop never helps).
    assert shortest_path(fst, UNIT).cost == 0.0
    with pytest.raises(ContractError):
        shortest_path(fst, ParamVector(nmt=-1.0, hiero=1.0, edit=1.0, sub=1.0, ins=1.0))


def test_shortest_path_empty_language():
    syms = SymbolTable()
    fst = Wfst(syms, syms)
    s0, s1 = fst.add_state(), fst.add_state()
    fst.set_initial(s0)
    fst.set_final(s1, ONE)  # unreachable
    fst.freeze()
    with pytest.raises(NoPathError):
        shortest_path(fst, UNIT)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_shortest_path_matches_enumeration(seed):
    rng = random.Random(seed)
    syms = SymbolTable()
    lattice = random_dag_lattice(rng, syms, score_feature=0, max_paths=60)
    path = shortest_path(lattice, UNIT)
    best = min(p.score for p in enumerate_paths(lattice, UNIT))
    assert path.cost == pytest.approx(best, abs=1e-9)


def test_nbest_one_equals_shortest_path():
    syms = SymbolTable()
    fst = two_arc_machine(syms, weight({0: 1.0}), weight({0: 2.0}))
    top = nbest(fst, 1, UNIT)
    sp = shortest_path(fst, UNIT)
    assert len(top) == 1
    assert top[0].cost == sp.cost
    assert top[0].weight == sp.weight


def test_nbest_returns_all_paths_sorted():
    syms = SymbolTable()
    fst = acceptor_from_sentences(syms, ["a", "b", "c"], score_feature=1,
                                  scores=[2.0, 0.5, 1.0])
    got = nbest(fst, 10, UNIT)
    assert [p.output_labels() for p in got] == [
        (syms.label("b"),), (syms.label("c"),), (syms.label("a"),)]
    assert [p.cost for p in got] == [0.5, 1.0, 2.0]


def test_nbest_unique_collapses_duplicate_strings():
    syms = SymbolTable()
    a = syms.add("a")
    fst = Wfst(syms, syms)
    s0, s1 = fst.add_state(), fst.add_state()
    fst.set_initial(s0)
    fst.add_arc(s0, Arc(a, a, weight({0: 1.0}), s1))
    fst.add_arc(s0, Arc(a, a, weight({0: 2.0}), s1))
    fst.set_final(s1, ONE)
    fst.freeze()
    raw = nbest(fst, 5, UNIT)
    uniq = nbest(fst, 5, UNIT, unique=True)
    assert len(raw) == 2
    assert len(uniq) == 1
    assert uniq[0].cost == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_nbest_membership_monotone(seed):
    rng = random.Random(seed)
    syms = SymbolTable()
    lattice = random_dag_lattice(rng, syms, score_feature=1, max_paths=40)
    target = nbest(lattice, rng.randint(1, 5), ParamVector(0, 1, 0, 0, 0), unique=True)[-1]
    target_string = target.output_labels()
    member = []
    for n in (1, 2, 4, 8, 16, 32, 64):
        strings = {p.output_labels() for p in nbest(lattice, n, ParamVector(0, 1, 0, 0, 0), unique=True)}
        member.append(target_string in strings)
    assert member == sorted(member)  # False ... False True ... True
    assert member[-1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_unique_nbest_lists_are_prefixes_of_longer_ones(seed):
    # corpus_report runs one unique n-best search at its largest n and
    # reads every smaller n off the prefix.
    rng = random.Random(seed)
    syms = SymbolTable()
    lattice = random_dag_lattice(rng, syms, score_feature=1, max_paths=60, max_states=12)
    params = ParamVector(0, 1, 0, 0, 0)
    deepest = nbest(lattice, 30, params, unique=True)
    for n in range(1, 31):
        got = nbest(lattice, n, params, unique=True)
        assert [p.output_labels() for p in got] == [p.output_labels() for p in deepest[:n]]
        assert [p.cost for p in got] == [p.cost for p in deepest[:n]]
    assert deepest[0].output_labels() == shortest_path(lattice, params).output_labels()


def random_cyclic_machine(rng, syms):
    """1-4 states with up to 3 arcs each to any state, itself included, so
    most such machines have a cycle.  An arc weighs one feature at a
    dyadic value in [0.5, 2]; a final weight is ONE or a dyadic value."""
    a, b = syms.add("a"), syms.add("b")
    fst = Wfst(syms, syms)
    n = rng.randint(1, 4)
    for _ in range(n):
        fst.add_state()
    fst.set_initial(0)
    for s in range(n):
        for _ in range(rng.randint(0, 3)):
            label = rng.choice((a, b))
            w = weight({rng.randrange(5): dyadic(rng, 0.5, 2.0)})
            fst.add_arc(s, Arc(label, label, w, rng.randrange(n)))
    for s in rng.sample(range(n), rng.randint(1, n)):
        fst.set_final(s, ONE if rng.random() < 0.5 else weight({2: dyadic(rng, 0.0, 2.0)}))
    return fst.freeze()


def least_path_costs(fst, k):
    """The k least costs under UNIT of the complete paths of ``fst`` (all
    of them if fewer), by listing every path that costs at most a bound,
    the bound raised by 0.5 until k paths fit or none was cut off.  Only
    prefixes that can complete within the bound are walked, by the least
    cost on from each state (Bellman-Ford); every arc costs at least 0.5,
    so each bound admits finitely many paths.  Dyadic sums are exact."""
    to_go = [math.inf] * fst.num_states
    for s, fw in fst.finals():
        to_go[s] = scalarize(fw, UNIT)
    for _ in fst.states():
        for s in fst.states():
            for arc in fst.arcs(s):
                to_go[s] = min(to_go[s], scalarize(arc.weight, UNIT) + to_go[arc.target])
    bound = to_go[fst.initial]
    while bound < math.inf:
        costs, cut = [], False
        stack = [(fst.initial, 0.0)]
        while stack:
            s, c = stack.pop()
            fw = fst.final_weight(s)
            if fw is not None and c + scalarize(fw, UNIT) <= bound:
                costs.append(c + scalarize(fw, UNIT))
            elif fw is not None:
                cut = True
            for arc in fst.arcs(s):
                on = c + scalarize(arc.weight, UNIT)
                cut |= bound < on + to_go[arc.target] < math.inf
                if on + to_go[arc.target] <= bound:
                    stack.append((arc.target, on))
        if len(costs) >= k or not cut:
            return sorted(costs)[:k]
        bound += 0.5
    return []


def test_raw_nbest_on_cyclic_machines_lists_the_least_path_costs():
    # On a cyclic machine the n-best's backward pass is Dijkstra on the
    # reversed arcs (what `latcomb nbest` runs on a flower transducer).
    rng = random.Random(23)
    syms = SymbolTable()
    cyclic = listed = 0
    for _ in range(1000):
        fst = random_cyclic_machine(rng, syms)
        if is_acyclic(fst):
            continue
        cyclic += 1
        expected = least_path_costs(fst, 6)
        if not expected:
            with pytest.raises(NoPathError):
                nbest(fst, 6, UNIT)
            continue
        assert [p.cost for p in nbest(fst, 6, UNIT)] == expected
        listed += len(expected) == 6
    assert cyclic > 500 and listed > 300


def _layered_lattice(rng, syms, n_states):
    fst = Wfst(syms, syms)
    for _ in range(n_states):
        fst.add_state()
    fst.set_initial(0)
    fst.set_final(n_states - 1, ONE)
    for i in range(n_states - 1):
        label = syms.add(rng.choice(["a", "b", "c", "d"]))
        fst.add_arc(i, Arc(label, label, weight({1: rng.uniform(0.0, 2.0)}), i + 1))
        for _ in range(rng.randint(0, 2)):
            t = rng.randint(i + 1, n_states - 1)
            label = syms.add(rng.choice(["a", "b", "c", "d"]))
            fst.add_arc(i, Arc(label, label, weight({1: rng.uniform(0.0, 2.0)}), t))
    return fst.freeze()


def test_prune_identity_when_budget_covers_machine():
    syms = SymbolTable()
    chain = linear_chain([syms.add("a")] * 4, syms)
    assert prune_to_node_budget(chain, 5, UNIT) is chain
    assert prune_to_node_budget(chain, 500, UNIT) is chain


def test_prune_rejects_budget_below_shortest_path():
    syms = SymbolTable()
    chain = linear_chain([syms.add("a")] * 4, syms)
    with pytest.raises(ContractError):
        prune_to_node_budget(chain, 4, UNIT)


def test_prune_fallback_numbers_the_best_path_in_path_order():
    # Two tied paths 0 -c-> 3 -d-> 1 and 0 -a-> 2 -b-> 1 make an optimal
    # plateau of 4 states, over the budget of 3, so only the best path is
    # kept: the first path of the n-best stream, which takes the tie in
    # push order.  It visits the ids 0, 3, 1 and comes out numbered 0, 1, 2.
    syms = SymbolTable()
    a, b, c, d = (syms.add(word) for word in "abcd")
    fst = Wfst(syms, syms)
    for _ in range(4):
        fst.add_state()
    fst.set_initial(0)
    for src, label, dst in ((0, c, 3), (0, a, 2), (3, d, 1), (2, b, 1)):
        fst.add_arc(src, Arc(label, label, ONE, dst))
    fst.set_final(1, ONE)
    fst.freeze()
    assert shortest_path(fst, UNIT).rows == nbest(fst, 1, UNIT)[0].rows
    assert [arc.target for arc in shortest_path(fst, UNIT).arcs] == [3, 1]
    pruned = prune_to_node_budget(fst, 3, UNIT)
    assert pruned.num_states == 3 and pruned.initial == 0
    assert list(pruned.arcs(0)) == [Arc(c, c, ONE, 1)]
    assert list(pruned.arcs(1)) == [Arc(d, d, ONE, 2)]
    assert list(pruned.arcs(2)) == []
    assert list(pruned.finals()) == [(2, ONE)]


def test_prune_counts_a_state_exactly_at_the_slack():
    # A threshold c keeps every state whose through-cost is within c plus
    # the slack (1e-9 at best cost 0).  State 2's is exactly 1e-9, so no
    # threshold keeps 3 of the 4 states, and only the best path is kept.
    syms = SymbolTable()
    a = syms.add("a")
    fst = Wfst(syms, syms)
    for _ in range(4):
        fst.add_state()
    fst.set_initial(0)
    for src, score, dst in ((0, 0.0, 1), (1, 0.0, 3), (0, 1e-9, 2), (2, 0.0, 3)):
        fst.add_arc(src, Arc(a, a, weight({1: score}), dst))
    fst.set_final(3, ONE)
    fst.freeze()
    for params in (UNIT, HIERO_ONLY):
        pruned = prune_to_node_budget(fst, 3, params)
        assert [arc.ilabel for arc in shortest_path(pruned, params).arcs] == [a, a]
        assert pruned.num_states == 3 and pruned.num_arcs == 2


def test_prune_rejects_cyclic():
    syms = SymbolTable()
    a = syms.add("a")
    fst = Wfst(syms, syms)
    s = fst.add_state()
    fst.set_initial(s)
    fst.set_final(s, ONE)
    fst.add_arc(s, Arc(a, a, ONE, s))
    fst.freeze()
    with pytest.raises(ContractError):
        prune_to_node_budget(fst, 10, UNIT)


def test_prune_rejects_non_integer_budget():
    # A nan budget used to fail every comparison and keep only the 1-best.
    syms = SymbolTable()
    lattice = acceptor_from_sentences(syms, ["a b", "c d", "e f"], score_feature=1,
                                      scores=[1.0, 2.0, 3.0])
    for bad in (float("nan"), 2.5, 100.0, True):
        with pytest.raises(ContractError):
            prune_to_node_budget(lattice, bad, UNIT)


def test_nbest_rejects_non_integer_n():
    # n=2.5 used to return three paths.
    syms = SymbolTable()
    lattice = acceptor_from_sentences(syms, ["a", "b", "c"], score_feature=1,
                                      scores=[1.0, 2.0, 3.0])
    for bad in (2.5, 2.0, float("nan"), True):
        with pytest.raises(ContractError):
            nbest(lattice, bad, UNIT)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_prune_keeps_shortest_path(seed):
    rng = random.Random(seed)
    syms = SymbolTable()
    lattice = _layered_lattice(rng, syms, 200)
    before = shortest_path(lattice, UNIT)
    pruned = prune_to_node_budget(lattice, 50, UNIT)
    assert pruned.num_states <= 50
    after = shortest_path(pruned, UNIT)
    assert after.cost == pytest.approx(before.cost, abs=1e-9)
    assert after.output_labels() == before.output_labels()


def witness(arc_triples, syms):
    arcs = []
    total = ONE
    from latcomb.semiring import times

    for il, ol, w in arc_triples:
        label_i = UNK if il == "UNK" else (EPSILON if il is None else syms.add(il))
        label_o = UNK if ol == "UNK" else (EPSILON if ol is None else syms.add(ol))
        arcs.append(Arc(label_i, label_o, w, 0))
        total = times(total, w)
    return PathWitness(rows=tuple((a.target, a.ilabel, a.olabel, a.weight.values) for a in arcs),
                       final_weight=ONE, weight=total,
                       cost=scalarize(total, UNIT))


def test_projections_on_acceptor_path():
    syms = SymbolTable()
    path = witness([("a", "a", ONE), ("b", "b", ONE)], syms)
    a, b = syms.label("a"), syms.label("b")
    assert path.input_labels() == (a, b)
    assert path.output_labels() == (a, b)
    assert path.unk_filled_labels() == (a, b)


def test_projections_unk_fill():
    syms = SymbolTable()
    path = witness([("die", "die", ONE), ("UNK", "Grosswahlstadt", ONE)], syms)
    words_in = [syms.word(l) for l in path.input_labels()]
    words_out = [syms.word(l) for l in path.output_labels()]
    filled = [syms.word(l) for l in path.unk_filled_labels()]
    assert words_in == ["die", "UNK"]
    assert words_out == ["die", "Grosswahlstadt"]
    assert filled == ["die", "Grosswahlstadt"]


def test_projections_deletion_and_insertion():
    syms = SymbolTable()
    path = witness([("a", None, weight({2: 1.0})), (None, "b", weight({2: 1.0}))], syms)
    assert [syms.word(l) for l in path.input_labels()] == ["a"]
    assert [syms.word(l) for l in path.output_labels()] == ["b"]
    # The combined string follows the input side except at UNK.
    assert [syms.word(l) for l in path.unk_filled_labels()] == ["a"]


def test_projection_unk_deleted_contributes_nothing():
    syms = SymbolTable()
    path = witness([("a", "a", ONE), ("UNK", None, weight({2: 1.0})), ("b", "b", ONE)], syms)
    assert [syms.word(l) for l in path.unk_filled_labels()] == ["a", "b"]


# UNK run expansion: every UNK arc replaced by the runs it stands for.


def test_replace_without_matches_is_isomorphic():
    syms = SymbolTable()
    root = acceptor_from_sentences(syms, ["der plan steht"], score_feature=0, scores=[1.0])
    out = expand_unk_runs(root, 3)
    assert path_signature(out, UNIT) == path_signature(root, UNIT)


def test_replace_expands_unk_runs():
    syms = SymbolTable()
    x, y = syms.add("x"), syms.add("y")
    root = linear_chain([x, UNK, y], syms, [weight({0: 1.0}), weight({0: 0.75}), ONE])
    out = expand_unk_runs(root, 3)
    for ext in (0.0, 1.0, 2.0):
        paths = enumerate_paths(out, ParamVector(1.0, 1.0, 1.0, 1.0, ext))
        by_tokens = {p.tokens: p for p in paths}
        assert set(by_tokens) == {
            ("x", "UNK", "y"),
            ("x", "UNK", "UNK", "y"),
            ("x", "UNK", "UNK", "UNK", "y"),
        }
        for k in (1, 2, 3):
            p = by_tokens[("x",) + ("UNK",) * k + ("y",)]
            # The UNK arc's score is on every run; each extra copy adds one extension.
            assert p.feature(0) == 1.75
            assert p.feature(4) == k - 1
            assert p.score == 1.75 + (k - 1) * ext


def test_replace_max_run_one_is_identity():
    syms = SymbolTable()
    root = acceptor_from_sentences(syms, ["x UNK y", "x y"], score_feature=0, scores=[1.0, 2.0])
    out = expand_unk_runs(root, 1)
    assert path_signature(out, UNIT) == path_signature(root, UNIT)


def test_replace_path_count_grows_exponentially_with_unks():
    syms = SymbolTable()
    root = acceptor_from_sentences(syms, ["UNK a UNK"])
    out = expand_unk_runs(root, 3)
    assert count_paths(out) == 9  # 3 run lengths per UNK arc


def test_expand_unk_runs_keeps_the_sign_of_its_lattice():
    syms = SymbolTable()
    x = syms.add("x")
    for unk_score, x_score in ((0.75, 1.0), (-0.75, 1.0), (0.75, -1.0), (-1e-16, 1.0)):
        root = linear_chain([x, UNK], syms, [weight({0: x_score}), weight({0: unk_score})])
        for max_run in (1, 2, 3, 4):
            assert holds_negative(expand_unk_runs(root, max_run)) == holds_negative(root)


@pytest.mark.parametrize("max_run", [0, 2.5, True])
def test_expand_unk_runs_rejects_bad_max_run(max_run):
    syms = SymbolTable()
    root = acceptor_from_sentences(syms, ["UNK a"])
    with pytest.raises(ContractError, match="max_run"):
        expand_unk_runs(root, max_run)


def test_expand_unk_runs_rejects_a_machine_without_initial_state():
    syms = SymbolTable()
    nmt = Wfst(syms, syms)
    nmt.add_state()
    nmt.set_final(0, ONE)
    with pytest.raises(ContractError, match="no initial state"):
        expand_unk_runs(nmt.freeze(), 3)


def _unk_rich_lattice(rng, syms):
    """Random acyclic NMT lattice with several UNK arcs, parallel UNK arcs,
    UNK arcs out of the initial state and into a final state, epsilon arcs,
    ZERO arcs and signed scores."""
    words = [syms.add(w) for w in ("a", "b")]
    n = rng.randint(2, 5)
    fst = Wfst(syms, syms)
    for _ in range(n):
        fst.add_state()
    fst.set_initial(0)
    fst.set_final(n - 1, weight({0: dyadic(rng, -1.0, 1.0)}))
    if n > 2 and rng.random() < 0.5:
        fst.set_final(rng.randint(1, n - 2), ONE)
    for s in range(n - 1):
        for _ in range(rng.randint(1, 3)):
            t = rng.randint(s + 1, n - 1)
            label = rng.choice([UNK, UNK, EPSILON, *words])
            w = ZERO if rng.random() < 0.1 else weight({0: dyadic(rng, -2.0, 2.0)})
            fst.add_arc(s, Arc(label, label, w, t))
            if label == UNK and rng.random() < 0.3:
                fst.add_arc(s, Arc(UNK, UNK, weight({0: dyadic(rng, -2.0, 2.0)}), t))
    fst.add_arc(0, Arc(UNK, UNK, weight({0: dyadic(rng, -2.0, 2.0)}), rng.randint(1, n - 1)))
    fst.add_arc(rng.randint(0, n - 2), Arc(UNK, UNK, ONE, n - 1))
    return fst.freeze()


def test_expand_unk_runs_matches_oracle_run_enumeration():
    # The oracle's own run enumeration, per path of the unexpanded lattice,
    # gives exactly the paths of the expanded one (as a multiset).
    from collections import Counter

    from latcomb.oracle import _expansions

    rng = random.Random(121212)
    for _ in range(250):
        syms = SymbolTable()
        nmt = _unk_rich_lattice(rng, syms)
        m = rng.choice([1, 2, 3, 4])
        expected = Counter()
        for p in enumerate_paths(nmt, UNIT):
            for tokens, ext in _expansions(p.tokens, m, "UNK"):
                features = dict(p.features)
                if ext:
                    features[4] = features.get(4, 0.0) + ext
                expected[tokens, tuple(sorted(features.items()))] += 1
        got = Counter((p.tokens, p.features)
                      for p in enumerate_paths(expand_unk_runs(nmt, m), UNIT))
        assert got == expected


def test_expand_unk_runs_structure():
    # With u UNK arcs: n + (m-1)u states and arcs + 2(m-1)u arcs, no new
    # epsilon arc, and each UNK arc followed by the first arc of its run.
    def epsilon_arcs(fst):
        return sum(EPSILON in (a.ilabel, a.olabel) for s in fst.states() for a in fst.arcs(s))

    rng = random.Random(343434)
    for _ in range(50):
        syms = SymbolTable()
        nmt = _unk_rich_lattice(rng, syms)
        m = rng.choice([1, 2, 3, 4])
        u = sum(arc.ilabel == UNK for s in nmt.states() for arc in nmt.arcs(s))
        out = expand_unk_runs(nmt, m)
        assert out.frozen
        assert out.num_states == nmt.num_states + (m - 1) * u
        assert out.num_arcs == nmt.num_arcs + 2 * (m - 1) * u
        assert out.initial == nmt.initial and list(out.finals()) == list(nmt.finals())
        assert epsilon_arcs(out) == epsilon_arcs(nmt)
        for s in nmt.states():
            arcs = list(out.arcs(s))
            for arc in nmt.arcs(s):
                assert arcs.pop(0) == arc
                if arc.ilabel == UNK and m > 1:
                    first = arcs.pop(0)
                    assert (first.ilabel, first.olabel, first.weight) == (UNK, UNK, arc.weight)
                    assert first.target >= nmt.num_states
            assert arcs == []


def _signed_grid_machine(rng, syms):
    """Acyclic machine with signed dyadic arc and final weights and some ZERO arcs.

    A backbone of non-ZERO arcs keeps the last state reachable.
    """
    labels = [syms.add(w) for w in ("a", "b", "c")]
    n = rng.randint(2, 9)
    fst = Wfst(syms, syms)
    for _ in range(n):
        fst.add_state()
    fst.set_initial(0)
    for i in range(n - 1):
        backbone = grid_weight(rng)
        fst.add_arc(i, Arc(labels[0], labels[0], ONE if backbone.infinite else backbone, i + 1))
        for _ in range(rng.randint(0, 2)):
            label = rng.choice(labels)
            fst.add_arc(i, Arc(label, label, grid_weight(rng), rng.randint(i + 1, n - 1)))
    for s in range(n):
        if s == n - 1 or rng.random() < 0.3:
            fw = grid_weight(rng)
            fst.set_final(s, ONE if fw.infinite else fw)
    return fst.freeze()


def _cancelling_chain(syms):
    # 0.1 + 0.2 - 0.3 leaves 5.6e-17, which times zeroes; a parallel
    # arc gives the searches a second path.
    a, b = syms.add("a"), syms.add("b")
    fst = linear_chain([a, a, a, a], syms, [weight({0: v}) for v in (0.1, 0.2, -0.3, 0.001)])
    out = Wfst(syms, syms)
    for _ in fst.states():
        out.add_state()
    out.set_initial(fst.initial)
    for s in fst.states():
        for arc in fst.arcs(s):
            out.add_arc(s, arc)
    out.add_arc(0, Arc(b, b, weight({0: 0.1, 1: -0.25}), 2))
    for s, w in fst.finals():
        out.set_final(s, w)
    return out.freeze()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_path_witness_weight_consistency(seed):
    # The stored total must equal the product of arc weights and final
    # weight, and the cost its scalarization, exactly: on machines with
    # negative values, ZERO arcs and cancelling sums, for every search and
    # for searches on pruned machines.
    from latcomb.semiring import times

    rng = random.Random(seed)
    syms = SymbolTable()
    params = grid_params(rng)
    machines = [random_dag_lattice(rng, syms, score_feature=0, max_paths=40),
                _signed_grid_machine(rng, syms), _cancelling_chain(syms)]
    for machine in machines:
        best = shortest_path(machine, params)
        budget = rng.randint(len(best.arcs) + 1, machine.num_states)
        pruned = prune_to_node_budget(machine, budget, params)
        paths = [best, shortest_path(pruned, params)]
        paths += nbest(machine, 5, params) + nbest(machine, 5, params, unique=True)
        paths += nbest(pruned, 3, params)
        for path in paths:
            total = ONE
            for arc in path.arcs:
                total = times(total, arc.weight)
            total = times(total, path.final_weight)
            assert total == path.weight
            assert path.cost == scalarize(path.weight, params)
    # The chain's second path is exactly the 0.001 left after cancellation.
    assert nbest(_cancelling_chain(syms), 2, UNIT)[1].weight == weight({0: 0.001})


def test_shortest_path_tie_rule():
    # Equal costs: the smaller dense vector wins, whatever the arc order,
    # for topological relaxation and for Dijkstra (the loop makes the
    # machine cyclic).  Equal keys: the first arc in arc order wins.
    params = ParamVector(nmt=1.0, hiero=1.0, edit=2.0, sub=1.0, ins=1.0)
    edit, sub = weight({2: 1.0}), weight({3: 2.0})
    for cyclic in (False, True):
        for w1, w2 in ((edit, sub), (sub, edit)):
            syms = SymbolTable()
            fst = two_arc_machine(syms, w1, w2, cyclic)
            path = shortest_path(fst, params)
            assert path.weight == sub and path.cost == 2.0
        syms = SymbolTable()
        fst = two_arc_machine(syms, edit, edit, cyclic, second_label="b")
        assert shortest_path(fst, params).output_labels() == (syms.label("a"),)
