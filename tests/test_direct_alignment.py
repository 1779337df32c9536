"""``combine``'s direct alignment search against the flower construction.

``combine`` aligns the two lattices with one shortest-distance pass over
pairs of states; ``helpers.flower_combine`` composes them through the
modified edit flower and takes the shortest path.  Both must select the
same optimum, bit for bit.
"""

import math
import random
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
    SymbolTable,
    Wfst,
    combine,
    linear_chain,
    shortest_path,
    weight,
)
from latcomb import algorithms, editfst, pipeline
from latcomb.editfst import build_modified_edit_fst, edit_weight
from latcomb.fst import has_negative, topological_order
from latcomb.semiring import search_key

from helpers import (
    acceptor_from_sentences,
    assert_matches_flower_combine,
    flower_combine,
    random_combination_instance,
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
    return bool((nmt.all_labels() | hiero.all_labels()) - {EPSILON, UNK})  # the flower needs one


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


def test_screen_skips_most_dense_tuples(monkeypatch):
    # A 4-word NMT chain against a hiero sausage of 3 slots x 20 words.
    # Every cell is reached, and from cell (i, j) the pass tries, per NMT
    # arc, one deletion and one pair per hiero arc, then one insertion
    # per hiero arc: 4 * (4 + 2 * 60) + 60 = 556 candidate moves.  Without
    # the screen each one builds at least one dense tuple.
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
    params = CombinationParams()

    built = []
    real = pipeline.dense_times
    monkeypatch.setattr(pipeline, "dense_times", lambda *args: built.append(1) or real(*args))
    result = combine(nmt, hiero, params)
    monkeypatch.undo()
    assert_matches_flower_combine(result, flower_combine(nmt, hiero, params), syms)
    assert len(built) < 556 // 2
