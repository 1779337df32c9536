"""``combine``'s direct alignment search against the flower construction.

``combine`` aligns the two lattices with one shortest-distance pass over
pairs of states; ``helpers.flower_combine`` composes them through the
modified edit flower and takes the shortest path.  Both must select the
same optimum, bit for bit.
"""

import random

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
    weight,
)
from latcomb import algorithms, editfst, pipeline
from latcomb.editfst import build_modified_edit_fst, edit_weight

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


@st.composite
def lattices(draw, syms, score_feature, labels, bit_offset):
    """Small layered DAG acceptor over ``labels`` (EPSILON and UNK allowed).

    Every state reaches the next one, so all states are useful; extra arcs
    skip ahead.  Each arc's score is a multiple of 1/4 plus its own power
    of two below 1/8, so distinct paths never tie on the score feature and
    all sums are exact.  Optionally one epsilon arc spans the whole
    lattice, giving an empty hypothesis.
    """
    n = draw(st.integers(2, 5))
    fst = Wfst(syms, syms)
    for _ in range(n):
        fst.add_state()
    fst.set_initial(0)
    fst.set_final(n - 1, ONE)
    bit = bit_offset

    def add(src, dst, label):
        nonlocal bit
        score = draw(st.integers(0, 8)) / 4.0 + 2.0 ** -(bit + 4)
        bit += 1
        fst.add_arc(src, Arc(label, label, weight({score_feature: score}), dst))

    for i in range(n - 1):
        add(i, i + 1, draw(st.sampled_from(labels)))
        for target in draw(st.lists(st.integers(i + 1, n - 1), max_size=1)):
            add(i, target, draw(st.sampled_from(labels)))
    if draw(st.booleans()):
        add(0, n - 1, EPSILON)
    return fst.freeze()


@st.composite
def instances(draw):
    syms = SymbolTable()
    words = [syms.add(w) for w in WORDS]
    nmt_labels = words[:3] + [UNK, UNK, EPSILON]
    nmt = draw(lattices(syms, 0, nmt_labels, 0))
    hiero = draw(lattices(syms, 1, words + [EPSILON], 0))
    assume((nmt.all_labels() | hiero.all_labels()) - {EPSILON, UNK})  # the flower needs a word
    sub = draw(st.sampled_from([0.0, 0.5, 1.0]))
    params = CombinationParams(
        lambda_nmt=draw(st.sampled_from([0.5, 1.0, 2.0])),
        lambda_hiero=draw(st.sampled_from([0.5, 1.0, 2.0])),
        lambda_sub=sub,
        lambda_edit=sub + draw(st.sampled_from([0.25, 1.0, 3.0])),
        lambda_ins=draw(st.sampled_from([0.0, 0.5, 1.5])),
        max_unk_run=draw(st.sampled_from([1, 2, 3])),
        nmt_vocab=frozenset(draw(st.lists(st.sampled_from(words), max_size=3))),
    )
    return syms, nmt, hiero, params


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
    # cell first and keeps it.
    syms = SymbolTable()
    nmt = acceptor_from_sentences(syms, ["UNK die"], score_feature=0, scores=[1.0])
    hiero = acceptor_from_sentences(syms, ["die"], score_feature=1, scores=[1.0])
    params = CombinationParams(lambda_sub=1.0, lambda_edit=2.0, max_unk_run=1)
    result = combine(nmt, hiero, params)
    assert result.t_comb == ("die",)
    assert result.t_nmt == ("UNK", "die")
    assert result.stats == EditStats(unk_extensions=0, type2_subs=0, type3_edits=1)
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
