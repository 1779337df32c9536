import random

import pytest
from hypothesis import given, settings, strategies as st

from latcomb import (
    EPSILON,
    ONE,
    UNK,
    Arc,
    ZERO,
    ContractError,
    ParamVector,
    SymbolTable,
    Wfst,
    compose,
    connect,
    count_paths,
    is_acyclic,
    linear_chain,
    validate,
    weight,
)
from latcomb.editfst import build_modified_edit_fst
from latcomb.fst import dense_arcs, topological_order

from helpers import acceptor_from_sentences, path_signature, random_dag_lattice

UNIT = ParamVector(1.0, 1.0, 1.0, 1.0, 1.0)


def test_symbol_table_reserved_entries():
    syms = SymbolTable()
    assert syms.word(EPSILON) == "<eps>"
    assert syms.word(UNK) == "UNK"
    assert syms.label("UNK") == UNK
    a = syms.add("apfel")
    assert a == 2
    assert syms.add("apfel") == a
    assert "apfel" in syms and syms.word(a) == "apfel"


def test_symbol_table_conflicts():
    syms = SymbolTable()
    syms.add_pair("wort", 7)
    with pytest.raises(ValueError):
        syms.add_pair("anders", 7)
    with pytest.raises(ValueError):
        syms.add_pair("wort", 9)
    syms.add_pair("wort", 7)  # re-adding the same pair is fine


def test_add_state_and_arcs():
    fst = Wfst()
    assert fst.add_state() == 0
    assert fst.add_state() == 1
    fst.set_initial(0)
    fst.add_arc(0, Arc(2, 2, ONE, 1))
    fst.set_final(1, ONE)
    assert fst.num_states == 2
    assert fst.num_arcs == 1
    assert fst.final_weight(1) == ONE
    assert fst.final_weight(0) is None


def test_epsilon_acceptor():
    fst = Wfst()
    s = fst.add_state()
    fst.set_initial(s)
    fst.set_final(s, ONE)
    fst.freeze()
    report = validate(fst)
    assert report.ok


def test_unknown_state_rejected():
    fst = Wfst()
    fst.add_state()
    with pytest.raises(ContractError):
        fst.add_arc(0, Arc(2, 2, ONE, 5))
    with pytest.raises(ContractError):
        fst.set_initial(3)


def test_frozen_machines_reject_mutation():
    fst = Wfst()
    fst.add_state()
    fst.set_initial(0)
    fst.set_final(0, ONE)
    fst.freeze()
    with pytest.raises(ContractError):
        fst.add_state()
    with pytest.raises(ContractError):
        fst.set_final(0, ONE)
    with pytest.raises(AttributeError):
        fst.arcs(0).append(Arc(2, 2, ONE, 0))


def test_is_acyclic():
    syms = SymbolTable()
    a = syms.add("a")
    chain = linear_chain([a, a, a], syms)
    assert is_acyclic(chain)
    assert topological_order(chain) is topological_order(chain)

    # Nothing is kept before freeze: the back arc added after a first sort counts.
    growing = Wfst(syms, syms)
    for _ in range(3):
        growing.add_state()
    growing.add_arc(0, Arc(a, a, ONE, 1))
    growing.add_arc(1, Arc(a, a, ONE, 2))
    assert topological_order(growing) == (0, 1, 2)
    growing.add_arc(2, Arc(a, a, ONE, 0))
    growing.freeze()
    assert topological_order(growing) is None

    loop = Wfst(syms, syms)
    s = loop.add_state()
    loop.set_initial(s)
    loop.set_final(s, ONE)
    loop.add_arc(s, Arc(a, a, ONE, s))
    loop.freeze()
    assert not is_acyclic(loop)
    assert count_paths(loop) is None


def test_dense_arcs_omit_zero_arcs():
    syms = SymbolTable()
    a = syms.add("a")
    fst = Wfst(syms, syms)
    s, t = fst.add_state(), fst.add_state()
    fst.add_arc(s, Arc(a, a, ZERO, t))
    live = Arc(a, a, weight({0: 1.5}), t)
    fst.add_arc(s, live)
    fst.freeze()
    assert dense_arcs(fst) == (((t, (1.5, 0.0, 0.0, 0.0, 0.0), live),), ())
    assert dense_arcs(fst) is dense_arcs(fst)


def test_count_paths_diamond():
    syms = SymbolTable()
    fst = acceptor_from_sentences(syms, ["a b", "a c", "d b", "d c"])
    assert count_paths(fst) == 4


def test_validate_well_formed_chain():
    syms = SymbolTable()
    chain = linear_chain([syms.add("x"), syms.add("y")], syms)
    report = validate(chain, kind="nmt")
    assert report.ok and not report.warnings


def test_validate_flags_unk_in_hiero():
    syms = SymbolTable()
    lattice = acceptor_from_sentences(syms, ["der UNK plan"])
    report = validate(lattice, kind="hiero")
    assert not report.ok
    assert any("UNK" in e for e in report.errors)
    assert validate(lattice, kind="nmt").ok


def test_validate_flags_cycle_per_kind():
    syms = SymbolTable()
    a = syms.add("a")
    loop = Wfst(syms, syms)
    s = loop.add_state()
    loop.set_initial(s)
    loop.set_final(s, ONE)
    loop.add_arc(s, Arc(a, a, ONE, s))
    loop.freeze()
    assert not validate(loop, kind="hiero").ok
    generic = validate(loop, kind="generic")
    assert generic.ok and any("cycle" in w for w in generic.warnings)


def test_validate_flags_wrong_score_feature():
    syms = SymbolTable()
    a = syms.add("a")
    fst = Wfst(syms, syms)
    s0, s1 = fst.add_state(), fst.add_state()
    fst.set_initial(s0)
    fst.add_arc(s0, Arc(a, a, weight({1: 1.0}), s1))
    fst.set_final(s1, ONE)
    fst.freeze()
    assert not validate(fst, kind="nmt").ok
    assert validate(fst, kind="hiero").ok


def test_validate_reports_dead_states_as_warnings():
    syms = SymbolTable()
    a = syms.add("a")
    fst = Wfst(syms, syms)
    for _ in range(3):
        fst.add_state()
    fst.set_initial(0)
    fst.add_arc(0, Arc(a, a, ONE, 1))
    fst.add_arc(0, Arc(a, a, ONE, 2))  # state 2 is a dead end
    fst.set_final(1, ONE)
    fst.freeze()
    report = validate(fst)
    assert report.ok
    assert any("cannot reach a final" in w for w in report.warnings)


def test_connect_removes_dead_branch_and_preserves_paths():
    syms = SymbolTable()
    a, b = syms.add("a"), syms.add("b")
    fst = Wfst(syms, syms)
    for _ in range(4):
        fst.add_state()
    fst.set_initial(0)
    fst.add_arc(0, Arc(a, a, weight({0: 1.0}), 1))
    fst.add_arc(0, Arc(b, b, ONE, 2))  # dead end
    fst.add_arc(1, Arc(b, b, ONE, 3))
    fst.set_final(3, ONE)
    fst.freeze()
    trimmed = connect(fst)
    assert trimmed.num_states == 3
    assert path_signature(trimmed, UNIT) == path_signature(fst, UNIT)


def test_connect_identity_on_trim_machine():
    syms = SymbolTable()
    chain = linear_chain([syms.add("a")], syms)
    trimmed = connect(chain)
    assert trimmed.num_states == chain.num_states
    assert path_signature(trimmed, UNIT) == path_signature(chain, UNIT)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_connect_preserves_weighted_language(seed):
    rng = random.Random(seed)
    syms = SymbolTable()
    lattice = random_dag_lattice(rng, syms, score_feature=0, max_paths=40)
    assert path_signature(connect(lattice), UNIT) == path_signature(lattice, UNIT)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_composition_through_flower_stays_acyclic(seed):
    rng = random.Random(seed)
    syms = SymbolTable()
    nmt = random_dag_lattice(rng, syms, score_feature=0, max_paths=20, allow_unk=True)
    hiero = random_dag_lattice(rng, syms, score_feature=1, max_paths=40)
    alphabet = (nmt.all_labels() | hiero.all_labels()) - {EPSILON, UNK}
    flower = build_modified_edit_fst(alphabet, frozenset(), syms)
    combined = compose(compose(nmt, flower), hiero)
    assert is_acyclic(combined)
