"""``combine``'s direct alignment search against the flower construction.

``combine`` aligns the two lattices with one shortest-distance pass over
pairs of states; ``helpers.flower_combine`` composes them through the
modified edit flower and takes the shortest path.  Both must select the
same optimum, bit for bit.
"""

import math
import random
import sys
from dataclasses import replace as dc_replace

import pytest
from hypothesis import assume, given, settings, strategies as st

import latcomb
from latcomb import (
    EPSILON,
    ONE,
    UNK,
    Arc,
    CombinationParams,
    EditStats,
    FeatureWeight,
    SymbolTable,
    Wfst,
    combine,
    corpus_report,
    shortest_path,
    weight,
)
from latcomb import algorithms, editfst, pipeline
from latcomb.editfst import build_modified_edit_fst, edit_weight
from latcomb.fst import has_negative, topological_order
from latcomb.lattice_io import read_lattice, write_lattice
from latcomb.algorithms import PathWitness
from latcomb.semiring import dense_times, search_key

from helpers import (
    acceptor_from_sentences,
    all_labels,
    assert_matches_flower_combine,
    flower_combine,
    linear_chain,
    random_combination_instance,
    tie_rule_alignment,
)

WORDS = ["haus", "fluss", "stadt", "die", "und"]


def test_combine_equals_flower_chain_on_c03_stream():
    rng = random.Random(303)
    for _ in range(500):
        syms, nmt, hiero, params, _ = random_combination_instance(
            rng, n_max_paths=20, h_max_paths=200, max_states=12, sized=True)
        assert_matches_flower_combine(combine(nmt, hiero, params),
                                      flower_combine(nmt, hiero, params), syms)


def test_combine_equals_flower_chain_on_c07_stream():
    rng = random.Random(707)
    for _ in range(200):
        syms, nmt, hiero, params, _ = random_combination_instance(rng)
        assert_matches_flower_combine(combine(nmt, hiero, params),
                                      flower_combine(nmt, hiero, params), syms)


FAMILIES = (0.1, 0.2, 0.3)
# A score every path adds once and takes back once: sums reach ~1e9 and
# cancel to small totals.
BIG = (1e9 + 0.1, -(1e9 + 0.3), 1e9 - 0.2)


def test_combine_equals_flower_chain_on_pruned_stream():
    # Budgets between the hiero shortest path's state count and one state
    # short of the lattice: combine reads the lattice through what pruning
    # keeps, the flower chain composes the machine prune_to_node_budget builds.
    rng = random.Random(1414)
    pruned = 0
    while pruned < 300:
        syms, nmt, hiero, params, _ = random_combination_instance(
            rng, n_max_paths=20, h_max_paths=200, max_states=12, sized=True)
        sp_states = len(shortest_path(hiero, pipeline.HIERO_ONLY).arcs) + 1
        if sp_states > hiero.num_states - 1:
            continue
        params = dc_replace(params,
                            hiero_node_budget=rng.randint(sp_states, hiero.num_states - 1))
        assert_matches_flower_combine(combine(nmt, hiero, params),
                                      flower_combine(nmt, hiero, params), syms)
        pruned += 1


def build_lattice(pick, syms, score_feature, labels, inexact=False):
    """Small layered DAG acceptor over ``labels`` (EPSILON and UNK allowed).

    ``pick(options)`` chooses one of ``options``; it is a Hypothesis draw or
    a seeded ``rng.choice``.  Every state reaches the next one, so all
    states are useful; extra arcs skip ahead.  Optionally one epsilon arc
    spans the whole lattice, giving an empty hypothesis.  Each arc's
    score is a coarse part plus its own power of two below 1/8, so
    distinct paths never tie on the score feature.  The coarse part is a
    multiple of 1/4, which keeps all sums exact, or with ``inexact`` a
    signed multiple of 0.1, 0.2 or 0.3; then, at random, every arc
    leaving the initial state adds a score near +-1e9 that every arc
    entering the final state takes back.
    """
    n = pick(range(2, 6))
    fst = Wfst(syms, syms)
    for _ in range(n):
        fst.add_state()
    fst.set_initial(0)
    fst.set_final(n - 1, ONE)
    big = pick((0.0,) + BIG) if inexact else 0.0
    bit = 0

    def add(src, dst, label):
        nonlocal bit
        if inexact:
            score = pick(FAMILIES) * pick(range(-6, 10))
        else:
            score = pick(range(0, 9)) / 4.0
        score += 2.0 ** -(bit + 4)
        bit += 1
        if src == 0 and dst != n - 1:
            score += big
        elif src != 0 and dst == n - 1:
            score -= big
        fst.add_arc(src, Arc(label, label, weight({score_feature: score}), dst))

    for i in range(n - 1):
        add(i, i + 1, pick(labels))
        if pick((False, True)):
            add(i, pick(range(i + 1, n)), pick(labels))
    if pick((False, True)):
        add(0, n - 1, EPSILON)
    return fst.freeze()


def build_instance(pick, inexact=False):
    """(symbols, NMT lattice, hiero lattice, params); lambdas are dyadic
    unless ``inexact``."""
    syms = SymbolTable()
    words = [syms.add(w) for w in WORDS]
    nmt = build_lattice(pick, syms, 0, words[:3] + [UNK, UNK, EPSILON], inexact)
    hiero = build_lattice(pick, syms, 1, words + [EPSILON], inexact)
    if inexact:
        scales, subs, gaps, inss = (0.1, 0.3, 0.7, 1.1), (0.0, 0.1, 0.3), (0.2, 0.7, 1.3), \
            (0.0, 0.3, 0.7)
    else:
        scales, subs, gaps, inss = (0.5, 1.0, 2.0), (0.0, 0.5, 1.0), (0.25, 1.0, 3.0), \
            (0.0, 0.5, 1.5)
    sub = pick(subs)
    params = CombinationParams(
        lambda_nmt=pick(scales),
        lambda_hiero=pick(scales),
        lambda_sub=sub,
        lambda_edit=sub + pick(gaps),
        lambda_ins=pick(inss),
        max_unk_run=pick((1, 2, 3)),
        nmt_vocab=frozenset(w for w in words if pick((False, False, True))),
    )
    return syms, nmt, hiero, params


def has_word(nmt, hiero):
    return bool((all_labels(nmt) | all_labels(hiero)) - {EPSILON, UNK})  # the flower needs one


@st.composite
def instances(draw, inexact=False):
    instance = build_instance(lambda options: draw(st.sampled_from(options)), inexact)
    assume(has_word(*instance[1:3]))
    return instance


@settings(max_examples=150, deadline=None)
@given(instances())
def test_combine_equals_flower_chain_property(instance):
    syms, nmt, hiero, params = instance
    assert_matches_flower_combine(combine(nmt, hiero, params),
                                  flower_combine(nmt, hiero, params), syms)


def test_tie_rule_prefers_the_first_alignment_found():
    # NMT "UNK die" against hiero "die", with "die" out of vocabulary:
    # deleting the UNK and matching "die" ties exactly with filling the
    # UNK with "die" and deleting the NMT "die".  Cells are visited in
    # (NMT, hiero) order, so the deletion of the UNK reaches the final
    # cell first and keeps it, also when the UNK may stand for a run.
    syms = SymbolTable()
    nmt = acceptor_from_sentences(syms, ["UNK die"], score_feature=0, scores=[1.0])
    hiero = acceptor_from_sentences(syms, ["die"], score_feature=1, scores=[1.0])
    for max_unk_run in (1, 2, 3):
        params = CombinationParams(lambda_sub=1.0, lambda_edit=2.0, max_unk_run=max_unk_run)
        result = combine(nmt, hiero, params)
        assert result.t_comb == ("die",)
        assert result.t_nmt == ("UNK", "die")
        assert result.stats == EditStats(unk_extensions=0, type2_subs=0, type3_edits=1)
        reference = flower_combine(nmt, hiero, params)
        assert (result.total_cost, result.feature_vector) == \
            (reference.total_cost, reference.feature_vector)


def test_tie_rule_orders_hiero_states_as_the_read_lattice_does():
    # NMT "UNK w" against hiero "x w" and "y w", x and y out of
    # vocabulary and both paths of score 1.5: the two fills tie exactly.
    # The budget of 4 drops state 3 (0 -z-> 3 -v-> 1), whose arc into
    # state 1 puts 1 ("x") before 2 ("y") in the read lattice's
    # topological order; a renumbered copy without state 3 would order
    # them the other way round.  Hiero positions are those of the read
    # lattice, so the fill with "x" reaches the final cell first and keeps it.
    syms = SymbolTable()
    x, y, z, v, w = (syms.add(word) for word in ("x", "y", "z", "v", "w"))
    hiero = Wfst(syms, syms)
    for _ in range(5):
        hiero.add_state()
    hiero.set_initial(0)
    for src, label, score, dst in ((0, x, 1.0, 1), (0, y, 1.0, 2), (0, z, 4.0, 3),
                                   (3, v, 0.0, 1), (1, w, 0.5, 4), (2, w, 0.5, 4)):
        hiero.add_arc(src, Arc(label, label, weight({1: score}), dst))
    hiero.set_final(4, ONE)
    hiero.freeze()
    nmt = acceptor_from_sentences(syms, ["UNK w"], score_feature=0, scores=[1.0])
    assert [s for s in topological_order(hiero) if s != 3] == [0, 1, 2, 4]
    for budget in (4, 5):
        params = CombinationParams(hiero_node_budget=budget, nmt_vocab=frozenset({w}))
        result = combine(nmt, hiero, params)
        assert result.t_comb == result.t_hiero == ("x", "w")
        assert result.total_cost == 2.5
        reference = flower_combine(nmt, hiero, params)
        assert (result.total_cost, result.feature_vector) == \
            (reference.total_cost, reference.feature_vector)


def test_combine_builds_no_flower_and_no_composition(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("combine must not build a flower or compose machines")

    for module in (latcomb, pipeline, algorithms, editfst):
        monkeypatch.setattr(module, "build_modified_edit_fst", boom, raising=False)
        monkeypatch.setattr(module, "compose", boom, raising=False)
    syms = SymbolTable()
    nmt = acceptor_from_sentences(syms, ["die UNK Politik"], score_feature=0, scores=[1.0])
    hiero = acceptor_from_sentences(syms, ["die regionale Politik"], score_feature=1,
                                    scores=[2.0])
    result = combine(nmt, hiero, CombinationParams())
    assert result.t_comb == ("die", "regionale", "Politik")


def test_combine_aligns_lattices_without_words():
    # Only UNK on one side and only epsilon on the other: there is no
    # alphabet to build a flower over, but the alignment still exists.
    syms = SymbolTable()
    nmt = acceptor_from_sentences(syms, ["UNK"], score_feature=0, scores=[1.0])
    hiero = Wfst(syms, syms)
    hiero.add_state(), hiero.add_state()
    hiero.set_initial(0)
    hiero.add_arc(0, Arc(EPSILON, EPSILON, weight({1: 0.5}), 1))
    hiero.set_final(1, ONE)
    result = combine(nmt, hiero.freeze(), CombinationParams(lambda_edit=2.0))
    assert result.t_comb == () and result.t_hiero == ()
    assert result.total_cost == 1.0 + 0.5 + 2.0
    assert result.stats.type3_edits == 1


def test_flower_reads_its_weights_from_edit_weight():
    syms = SymbolTable()
    a, b = syms.add("a"), syms.add("b")
    flower = build_modified_edit_fst({a, b}, {b}, syms)
    for arc in flower.arcs(flower.initial):
        assert arc.weight == edit_weight({b}, arc.ilabel, arc.olabel)
    # per word a match, a deletion, an insertion and an UNK fill; two
    # substitutions; the deletion of UNK
    assert flower.num_arcs == 4 * 2 + 2 + 1


def test_cancelling_scores_are_canonicalized_like_times():
    # 0.1 + 0.2 - 0.3 leaves 5.6e-17, which times zeroes; the alignment
    # pass's accumulation must zero it too, or the next score
    # (0.001) would be added to the remainder instead of to zero.
    syms = SymbolTable()
    a, b, c = (syms.add(w) for w in "abc")
    scores = (0.1, 0.2, -0.3, 0.001)
    nmt = linear_chain([a, b, c, a], syms, [weight({0: v}) for v in scores])
    hiero = linear_chain([a, b, c, a], syms, [weight({1: v}) for v in scores])
    params = CombinationParams(lambda_edit=2.0)
    result = combine(nmt, hiero, params)
    assert_matches_flower_combine(result, flower_combine(nmt, hiero, params), syms)
    assert result.feature_vector.get(0) == result.feature_vector.get(1) == 0.001


# Inexact arithmetic: the pass screens each move by a float estimate
# (the source cost plus the move's weight costs) and builds the exact key
# only within a slack of the target's cost.  Non-dyadic scores and
# lambdas make the estimate differ from the exact cost; scores near
# +-1e9 that cancel test that the slack is not taken from the (small)
# costs alone.

def test_combine_equals_flower_chain_on_inexact_stream():
    rng = random.Random(1109)
    checked = signed = big = 0
    while checked < 300:
        syms, nmt, hiero, params = build_instance(rng.choice, inexact=True)
        if not has_word(nmt, hiero):
            continue
        assert_matches_flower_combine(combine(nmt, hiero, params),
                                      flower_combine(nmt, hiero, params), syms)
        checked += 1
        signed += has_negative(nmt) or has_negative(hiero)
        big += any(abs(arc.weight.values[0]) > 1e8 for s in nmt.states() for arc in nmt.arcs(s))
    assert signed > 100 and big > 100  # the stream covers both


@settings(max_examples=150, deadline=None)
@given(instances(inexact=True))
def test_combine_equals_flower_chain_on_inexact_property(instance):
    syms, nmt, hiero, params = instance
    assert_matches_flower_combine(combine(nmt, hiero, params),
                                  flower_combine(nmt, hiero, params), syms)


@pytest.mark.parametrize("first, second, lambda_nmt", [
    (1.3, 2.4000000000000004, 0.9),
    (1000000000.4, -999999999.5, 0.3),
])
def test_a_winning_move_whose_estimate_exceeds_the_target_cost(first, second, lambda_nmt):
    # NMT "a" directly, or epsilon then "a", scoring ``first`` and then
    # ``second``; the direct score is one float step above their sum.
    # The direct path reaches the final cell first, and the other one has
    # the smaller key; yet its estimate, lambda_nmt * first + lambda_nmt
    # * second + 0.3 * 0.1, rounds above the direct path's exact cost.
    # So a screen with no slack would skip the winner.  In the second
    # case the scores cancel and the estimate is off by about 5e-8, over
    # 100 times 1e-9 of the target's cost: a slack taken from the costs
    # alone would skip it too.
    syms = SymbolTable()
    a = syms.add("a")
    nmt = Wfst(syms, syms)
    for _ in range(3):
        nmt.add_state()
    nmt.set_initial(0)
    nmt.set_final(2, ONE)
    nmt.add_arc(0, Arc(a, a, weight({0: math.nextafter(first + second, math.inf)}), 2))
    nmt.add_arc(0, Arc(EPSILON, EPSILON, weight({0: first}), 1))
    nmt.add_arc(1, Arc(a, a, weight({0: second}), 2))
    nmt = nmt.freeze()
    hiero = linear_chain([a], syms, [weight({1: 0.1})])
    params = CombinationParams(lambda_nmt=lambda_nmt, lambda_hiero=0.3)

    key = lambda nmt_score, hiero_score: search_key(params.as_param_vector())(
        (nmt_score, hiero_score, 0.0, 0.0, 0.0))
    direct = key(math.nextafter(first + second, math.inf), 0.1)
    winner = key(first + second, 0.1)
    estimate = key(first, 0.0)[0] + key(second, 0.0)[0] + key(0.0, 0.1)[0]
    assert winner < direct and direct[0] < estimate

    result = combine(nmt, hiero, params)
    assert_matches_flower_combine(result, flower_combine(nmt, hiero, params), syms)
    assert (result.total_cost, result.feature_vector.values) == winner


def sausage_instance():
    """A 4-word NMT chain against a hiero sausage of 3 slots x 20 words."""
    rng = random.Random(20)
    syms = SymbolTable()
    words = [syms.add(f"w{k}") for k in range(60)]
    hiero = Wfst(syms, syms)
    for _ in range(4):
        hiero.add_state()
    hiero.set_initial(0)
    hiero.set_final(3, ONE)
    for slot in range(3):
        for w in words[20 * slot:20 * slot + 20]:
            hiero.add_arc(slot, Arc(w, w, weight({1: rng.uniform(0.0, 2.0)}), slot + 1))
    hiero = hiero.freeze()
    chain = [rng.choice(words[:20]), rng.choice(words[20:40]), rng.choice(words[40:]),
             rng.choice(words)]
    nmt = linear_chain(chain, syms, [weight({0: rng.uniform(0.0, 2.0)}) for _ in chain])
    return syms, nmt, hiero, CombinationParams()


def dense_tuples_built(monkeypatch, nmt, hiero, params):
    """``combine``'s result and the number of value vectors its pass built."""
    built = []
    real = pipeline.dense_times
    monkeypatch.setattr(pipeline, "dense_times", lambda *args: built.append(1) or real(*args))
    result = combine(nmt, hiero, params)
    monkeypatch.undo()
    return result, len(built)


def test_screen_skips_most_dense_tuples(monkeypatch):
    # Every cell is reached, and from cell (i, j) the pass could try, per
    # NMT arc, one deletion and one pair per hiero arc, then one insertion
    # per hiero arc: 4 * (4 + 2 * 60) + 60 = 556 candidate moves.  Without
    # the screen each one builds at least one dense tuple.
    syms, nmt, hiero, params = sausage_instance()
    result, built = dense_tuples_built(monkeypatch, nmt, hiero, params)
    assert_matches_flower_combine(result, flower_combine(nmt, hiero, params), syms)
    assert built < 556 // 2


def test_cells_build_value_vectors_only_for_near_ties(monkeypatch):
    # On the same instance, a pass that builds a value vector for every
    # move it does not skip builds 187; scalar-first cells build them only
    # for near ties, at acceptance and along the winning path.
    syms, nmt, hiero, params = sausage_instance()
    result, built = dense_tuples_built(monkeypatch, nmt, hiero, params)
    assert_matches_flower_combine(result, flower_combine(nmt, hiero, params), syms)
    assert built < 40


def counted(run):
    """``run()``, the number of Arc objects and of FeatureWeight objects it built."""
    built = {Arc.__init__.__code__: 0, FeatureWeight.__init__.__code__: 0}

    def count(frame, event, arg):
        if event == "call" and frame.f_code in built:
            built[frame.f_code] += 1

    sys.setprofile(count)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, built[Arc.__init__.__code__], built[FeatureWeight.__init__.__code__]


def written_and_read_back(tmp_path, syms, nmt, hiero, params):
    """A run that reads both lattices back from files and combines them."""
    for name, lattice in (("nmt", nmt), ("hiero", hiero)):
        write_lattice(lattice, str(tmp_path / f"{name}.fst"))

    def read_and_combine():
        read = [read_lattice(str(tmp_path / f"{kind}.fst"), syms, kind=kind)
                for kind in ("nmt", "hiero")]
        return read, combine(*read, params)

    return read_and_combine


def test_read_and_combine_build_arcs_only_for_the_winning_path(tmp_path):
    # Machines store arcs as rows, and every search reads rows: reading
    # the 64 arcs of the same instance, combining it and reporting on it
    # builds no Arc, and FeatureWeight objects only for the two final
    # weights and the path's weight and final weight.  The winning path's
    # Arc objects are built when asked for, one per arc.
    syms, nmt, hiero, params = sausage_instance()
    run = written_and_read_back(tmp_path, syms, nmt, hiero, params)
    ((nmt, hiero), result), arcs, weights = counted(run)
    assert nmt.num_arcs + hiero.num_arcs == 64
    assert (arcs, weights) == (0, 4)
    _, arcs, _ = counted(lambda: corpus_report([result], [hiero]))
    assert arcs == 0
    path, arcs, _ = counted(lambda: result.path.arcs)
    assert arcs == len(path) == len(result.path.rows) == 4
    assert_matches_flower_combine(result, flower_combine(nmt, hiero, params), syms)


def calls_to(run, function, from_module=None):
    """``run()``, and how many calls to ``function`` it made (those made by
    code in the module named ``from_module``, when given)."""
    code = function.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code and (
                from_module is None or frame.f_back.f_globals.get("__name__") == from_module):
            calls += 1

    sys.setprofile(count)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, calls


def over_budget_instance():
    """A layered hiero lattice of 8 states (initial, two layers of 3,
    final) whose shortest path has 4, an NMT chain, and budget 6, which
    prunes the lattice."""
    rng = random.Random(7)
    syms = SymbolTable()
    words = [syms.add(f"v{k}") for k in range(6)]
    hiero = Wfst(syms, syms)
    layers = [[hiero.add_state()], [hiero.add_state() for _ in range(3)],
              [hiero.add_state() for _ in range(3)], [hiero.add_state()]]
    hiero.set_initial(layers[0][0])
    hiero.set_final(layers[-1][0], ONE)
    for here, there in zip(layers, layers[1:]):
        for src in here:
            for dst in there:
                label = rng.choice(words)
                hiero.add_arc(src, Arc(label, label, weight({1: rng.uniform(0.0, 2.0)}), dst))
    hiero = hiero.freeze()
    nmt = linear_chain(words[:3], syms, [weight({0: 0.5})] * 3)
    params = CombinationParams(hiero_node_budget=6)
    keep, _, _ = algorithms._prune_mask(hiero, 6, pipeline.HIERO_ONLY)
    assert len(keep) < hiero.num_states == 8
    return syms, nmt, hiero, params


def test_an_over_budget_prune_builds_no_arcs(tmp_path):
    # Counting the shortest path's states reads its rows, so reading and
    # combining an instance that prunes still builds no Arc.
    syms, nmt, hiero, params = over_budget_instance()
    (_, result), arcs, _ = counted(written_and_read_back(tmp_path, syms, nmt, hiero, params))
    assert arcs == 0
    assert result == combine(nmt, hiero, params)


def test_an_over_budget_prune_adds_no_value_vectors(monkeypatch):
    # combine prunes its hiero lattice on floats: of the dense_times calls
    # combine makes, none comes from the pruning searches in algorithms.
    # Pruning on value vectors gives the same result, with one call per
    # arc (15) each way and one for the final weight.
    _, nmt, hiero, params = over_budget_instance()
    result, pruning = calls_to(lambda: combine(nmt, hiero, params), dense_times,
                               "latcomb.algorithms")
    _, aligning = calls_to(lambda: combine(nmt, hiero, params), dense_times, "latcomb.pipeline")
    assert (pruning, aligning > 0) == (0, True)
    monkeypatch.setattr(algorithms, "_on_floats", lambda fst, params: False)
    assert calls_to(lambda: combine(nmt, hiero, params), dense_times,
                    "latcomb.algorithms") == (result, 31)


def test_a_report_on_a_1best_hiero_hypothesis_draws_one_path():
    # The selected hiero hypothesis is the 1-best of four: ranking it
    # draws one path from the lazy unique n-best, not the list at n = 100.
    syms = SymbolTable()
    hiero = acceptor_from_sentences(syms, ["a b c", "d e", "f g h", "i"], score_feature=1,
                                    scores=[0.1, 0.5, 0.9, 1.2])
    nmt = acceptor_from_sentences(syms, ["a b c"], score_feature=0, scores=[0.1])
    result = combine(nmt, hiero, CombinationParams())
    report, drawn = calls_to(lambda: corpus_report([result], [hiero]), PathWitness.__init__)
    assert drawn == 1
    assert (report.pct_hiero_unchanged, report.nbest_membership) == (
        100.0, ((1, 100.0), (10, 100.0), (100, 100.0)))


def test_infinite_slack_settles_every_move_exactly():
    # Scores of 1e300 and -1e300 put the weights' mass near the float
    # range, so the slack is infinite and no move is decided on floats:
    # every one, the first into an unset cell included, takes the exact
    # comparison.  The two hiero slots offer a (0.5) or c (0.25), then b
    # (0.5) or c (0.1); substituting c for a is the cheapest alignment.
    syms = SymbolTable()
    a, b, c = (syms.add(w) for w in "abc")
    nmt = linear_chain([a, b], syms, [weight({0: 1e300}), weight({0: -1e300})])
    hiero = Wfst(syms, syms)
    for _ in range(3):
        hiero.add_state()
    hiero.set_initial(0)
    hiero.set_final(2, ONE)
    for src, label, score in ((0, a, 0.5), (0, c, 0.25), (1, b, 0.5), (1, c, 0.1)):
        hiero.add_arc(src, Arc(label, label, weight({1: score}), src + 1))
    result = combine(nmt, hiero.freeze(), CombinationParams())
    assert result.t_hiero == ("c", "b") and result.t_comb == ("a", "b")
    assert result.total_cost == 2.75
    assert result.feature_vector.values == (0.0, 0.75, 1.0, 0.0, 0.0)


def test_a_nan_estimate_takes_the_exact_comparison():
    # With both lambdas 2, the arc costs overflow to +inf and -inf, so the
    # match's estimate is inf + -inf = NaN.  A NaN estimate is never
    # decided on floats: it sets the unset cell through the exact
    # comparison, and the alignment keeps the match.
    syms = SymbolTable()
    a = syms.add("a")
    nmt = linear_chain([a], syms, [weight({0: 1e308})])
    hiero = linear_chain([a], syms, [weight({1: -1e308})])
    result = combine(nmt, hiero, CombinationParams(lambda_nmt=2.0, lambda_hiero=2.0))
    assert result.t_comb == result.t_hiero == ("a",)
    assert math.isnan(result.total_cost)
    assert result.feature_vector.values == (1e308, -1e308, 0.0, 0.0, 0.0)
    assert result.stats.exact_match


def test_rounding_tie_in_a_group_goes_to_the_lower_arc_index():
    # After 1e8, the scores 0.3 + 2e-9 (arc b) and 0.3 (arc c) round to
    # the same sum, so substituting either for z gives exactly equal keys,
    # although c is the cheaper arc and is tried first.  The arcs share a
    # target, and within a group an equal key goes to the lower arc index,
    # as trying the arcs in arc order would: b wins.
    syms = SymbolTable()
    a, b, c, z = (syms.add(w) for w in "abcz")
    hiero = Wfst(syms, syms)
    for _ in range(3):
        hiero.add_state()
    hiero.set_initial(0)
    hiero.set_final(2, ONE)
    hiero.add_arc(0, Arc(a, a, weight({1: 1e8}), 1))
    hiero.add_arc(1, Arc(b, b, weight({1: 0.3 + 2e-9}), 2))
    hiero.add_arc(1, Arc(c, c, weight({1: 0.3}), 2))
    hiero = hiero.freeze()
    assert 1e8 + (0.3 + 2e-9) == 1e8 + 0.3 and 0.3 + 2e-9 > 0.3
    nmt = linear_chain([a, z], syms)
    result = combine(nmt, hiero, CombinationParams())
    assert result.t_hiero == ("a", "b")
    assert (result.total_cost, result.feature_vector.values) == \
        (1e8 + 0.3 + 2.0, (0.0, 1e8 + 0.3, 1.0, 0.0, 0.0))


def wide_instance(rng):
    """A hiero sausage of 2-3 slots with 5-25 parallel arcs each (a few
    of them epsilon, labels drawn with repeats) against a small NMT
    lattice with UNK arcs and a vocabulary/OOV mix.  Half the instances
    score on {0, 0.5, 1}, so arcs of one group tie exactly; some set
    lambda_hiero to 0, so that every arc of a group ties on cost."""
    syms = SymbolTable()
    pool = [syms.add(f"w{k}") for k in range(24)]
    ties = rng.random() < 0.5

    def score():
        return rng.choice((0.0, 0.5, 1.0)) if ties else rng.uniform(0.0, 2.0)

    def sausage(slot_sizes, labels, feature):
        fst = Wfst(syms, syms)
        for _ in range(len(slot_sizes) + 1):
            fst.add_state()
        fst.set_initial(0)
        fst.set_final(len(slot_sizes), ONE)
        for slot, n in enumerate(slot_sizes):
            for _ in range(n):
                label = labels()
                fst.add_arc(slot, Arc(label, label, weight({feature: score()}), slot + 1))
        return fst.freeze()

    hiero = sausage([rng.randint(5, 25) for _ in range(rng.randint(2, 3))],
                    lambda: EPSILON if rng.random() < 0.05 else rng.choice(pool), 1)
    nmt = sausage([rng.randint(1, 2) for _ in range(rng.randint(2, 4))],
                  lambda: UNK if rng.random() < 0.35 else rng.choice(pool), 0)
    sub = rng.choice((0.0, 0.5, 1.0))
    params = CombinationParams(
        lambda_nmt=rng.choice((0.5, 1.0)),
        lambda_hiero=0.0 if rng.random() < 0.2 else rng.choice((0.5, 1.0, 2.0)),
        lambda_sub=sub, lambda_edit=sub + rng.choice((0.5, 1.0, 2.0)),
        lambda_ins=rng.choice((0.0, 0.5)), max_unk_run=rng.randint(1, 3),
        nmt_vocab=frozenset(rng.sample(pool, 12)))
    return syms, nmt, hiero, params


def test_combine_equals_flower_chain_on_wide_group_stream():
    # The flower chain breaks exact ties its own way, so on tied instances
    # only its cost and feature vector are the reference; the whole winning
    # path must be the one the tie rule, spelled out plainly, picks.
    rng = random.Random(1515)
    tied = flat = unks = 0
    for _ in range(150):
        syms, nmt, hiero, params = wide_instance(rng)
        result = combine(nmt, hiero, params)
        reference = flower_combine(nmt, hiero, params)
        assert (result.total_cost, result.feature_vector) == \
            (reference.total_cost, reference.feature_vector)
        path, cost, values = tie_rule_alignment(nmt, hiero, params)
        assert [(a.ilabel, a.olabel, a.weight.values) for a in result.path.arcs] == path
        assert (result.total_cost, result.feature_vector.values) == (cost, values)
        scores = [arc.weight.values[1] for s in hiero.states() for arc in hiero.arcs(s)]
        tied += len(set(scores)) < len(scores)
        flat += params.lambda_hiero == 0.0
        unks += UNK in all_labels(nmt)
    assert tied > 50 and flat > 15 and unks > 75  # the stream covers all three
