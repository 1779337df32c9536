import random

import pytest

from latcomb import (
    EPSILON,
    ONE,
    UNK,
    ContractError,
    ParamVector,
    SymbolTable,
    compose,
    linear_chain,
    shortest_path,
)
from latcomb.editfst import (
    build_modified_edit_fst,
    build_standard_edit_fst,
    build_unk_insertion_fst,
)
from latcomb.oracle import dp_edit_distance
from latcomb.semiring import EDIT_COUNT, SUB_COUNT, weight


UNIT = ParamVector(1.0, 1.0, 1.0, 1.0, 1.0)


def arcs_by_labels(fst):
    out = {}
    for s in fst.states():
        for arc in fst.arcs(s):
            out[(arc.ilabel, arc.olabel)] = arc.weight
    return out


def test_standard_flower_structure():
    syms = SymbolTable()
    a, b = syms.add("a"), syms.add("b")
    flower = build_standard_edit_fst({a, b}, syms)
    assert flower.num_states == 1
    arcs = arcs_by_labels(flower)
    assert len(arcs) == 8  # 2 matches, 2 substitutions, 2 deletions, 2 insertions
    assert arcs[(a, a)] == ONE and arcs[(b, b)] == ONE
    for key in ((a, b), (b, a), (a, EPSILON), (b, EPSILON), (EPSILON, a), (EPSILON, b)):
        assert arcs[key] == weight({EDIT_COUNT: 1.0})


def test_standard_flower_rejects_empty_alphabet():
    with pytest.raises(ContractError):
        build_standard_edit_fst(set(), SymbolTable())


def test_zero_distance_for_equal_strings():
    syms = SymbolTable()
    a, b = syms.add("a"), syms.add("b")
    flower = build_standard_edit_fst({a, b}, syms)
    x = linear_chain([a, b], syms)
    assert shortest_path(compose(compose(x, flower), x), UNIT).cost == 0.0


def test_modified_flower_cost_typing():
    syms = SymbolTable()
    a, b = syms.add("a"), syms.add("b")
    flower = build_modified_edit_fst({a, b}, {b}, syms)
    arcs = arcs_by_labels(flower)
    assert arcs[(UNK, a)] == ONE                       # OOV fill is free
    assert arcs[(UNK, b)] == weight({SUB_COUNT: 1.0})  # in-vocabulary fill
    assert arcs[(a, b)] == weight({EDIT_COUNT: 1.0})
    assert arcs[(UNK, EPSILON)] == weight({EDIT_COUNT: 1.0})
    assert not any(ol == UNK for _, ol in arcs)  # UNK never emitted
    # epsilon and UNK are stripped from the alphabet silently
    stripped = build_modified_edit_fst({a, b, UNK, EPSILON}, {b}, syms)
    assert arcs_by_labels(stripped) == arcs
    assert stripped.num_arcs == flower.num_arcs


def test_unk_insertion_structure():
    syms = SymbolTable()
    u = build_unk_insertion_fst(3, syms)
    from latcomb.oracle import enumerate_paths

    paths = enumerate_paths(u, UNIT)
    by_len = {len(p.tokens): dict(p.features) for p in paths}
    assert set(by_len) == {1, 2, 3}
    assert by_len[1].get(4, 0.0) == 0.0
    assert by_len[2][4] == 1.0
    assert by_len[3][4] == 2.0
    with pytest.raises(ContractError):
        build_unk_insertion_fst(0, syms)


def _flower_distance(x_words, y_words, alphabet, vocab, syms, params):
    flower = build_modified_edit_fst(alphabet, vocab, syms)
    to_label = lambda w: UNK if w == "UNK" else syms.add(w)
    x = linear_chain([to_label(w) for w in x_words], syms)
    y = linear_chain([to_label(w) for w in y_words], syms)
    return shortest_path(compose(compose(x, flower), y), params)


def test_free_unk_fill_gives_zero_distance():
    syms = SymbolTable()
    words = ["die", "regionale", "Politik"]
    labels = {w: syms.add(w) for w in words}
    path = _flower_distance(["die", "UNK", "Politik"], words, set(labels.values()),
                            {labels["die"], labels["Politik"]}, syms, UNIT)
    assert path.cost == 0.0
    assert path.weight == ONE


def test_in_vocab_fill_costs_one_sub():
    syms = SymbolTable()
    und = syms.add("und")
    path = _flower_distance(["UNK"], ["und"], {und}, {und}, syms, UNIT)
    assert path.weight == weight({SUB_COUNT: 1.0})


def test_modified_flower_matches_dp_oracle():
    rng = random.Random(97)
    words = ["w0", "w1", "w2", "w3", "w4"]
    for _ in range(250):
        syms = SymbolTable()
        labels = {w: syms.add(w) for w in words}
        vocab_words = set(rng.sample(words, rng.randint(0, len(words))))
        sub_cost = rng.randint(0, 8) / 4.0
        edit_cost = sub_cost + rng.randint(1, 8) / 4.0
        params = ParamVector(nmt=1.0, hiero=1.0, edit=edit_cost, sub=sub_cost, ins=1.0)
        vocab = {labels[w] for w in vocab_words}
        x = [rng.choice(words + ["UNK"] * 2) for _ in range(rng.randint(0, 8))]
        y = [rng.choice(words) for _ in range(rng.randint(0, 8))]
        got = _flower_distance(x, y, set(labels.values()), vocab, syms, params).cost
        expected = dp_edit_distance(x, y, vocab_words, sub_cost, edit_cost, max_unk_run=1)
        expected_cost = edit_cost * expected.get(2, 0.0) + sub_cost * expected.get(3, 0.0)
        assert got == pytest.approx(expected_cost, abs=1e-9), (x, y, vocab_words)


def test_edit_cost_monotone_in_lambda_edit():
    syms = SymbolTable()
    words = ["p", "q", "r"]
    labels = {w: syms.add(w) for w in words}
    x = ["p", "q", "UNK"]
    y = ["q", "r", "r"]
    costs = []
    for lam in (1.0, 2.0, 4.0, 8.0):
        params = ParamVector(nmt=1.0, hiero=1.0, edit=lam, sub=0.5, ins=1.0)
        costs.append(_flower_distance(x, y, set(labels.values()), frozenset(), syms,
                                      params).cost)
    assert costs == sorted(costs)


def test_type1_dominates_type2_at_equal_lattice_cost():
    # Both fills reachable at the same lattice cost: the OOV fill must win.
    syms = SymbolTable()
    oov, invocab = syms.add("selten"), syms.add("oft")
    flower = build_modified_edit_fst({oov, invocab}, {invocab}, syms)
    x = linear_chain([UNK], syms)
    from helpers import acceptor_from_sentences

    y = acceptor_from_sentences(syms, ["selten", "oft"])
    path = shortest_path(compose(compose(x, flower), y), UNIT)
    assert [syms.word(l) for l in path.output_labels()] == ["selten"]
    assert path.cost == 0.0
