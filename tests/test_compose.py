import random

import pytest
from hypothesis import given, settings, strategies as st

from latcomb import (
    EPSILON,
    ONE,
    ContractError,
    ParamVector,
    SymbolTable,
    Arc,
    Wfst,
    compose,
    shortest_path,
    weight,
)
from latcomb.editfst import build_standard_edit_fst
from latcomb.oracle import enumerate_paths

from helpers import classic_levenshtein, linear_chain, naive_compose

UNIT = ParamVector(1.0, 1.0, 1.0, 1.0, 1.0)


def identity_acceptor(labels, syms):
    fst = Wfst(syms, syms)
    s = fst.add_state()
    fst.set_initial(s)
    fst.set_final(s, ONE)
    for label in labels:
        fst.add_arc(s, Arc(label, label, ONE, s))
    return fst.freeze()


def test_compose_with_identity_is_identity():
    syms = SymbolTable()
    a, b = syms.add("a"), syms.add("b")
    chain = linear_chain([a, b, a], syms, weights=[weight({0: 0.5}), ONE, ONE])
    sigma = identity_acceptor([a, b], syms)
    composed = compose(chain, sigma)
    paths = enumerate_paths(composed, UNIT)
    assert len(paths) == 1
    assert paths[0].tokens == ("a", "b", "a")
    assert paths[0].output_tokens == ("a", "b", "a")
    assert paths[0].score == pytest.approx(0.5)


def test_compose_single_arcs_multiply_weights():
    syms = SymbolTable()
    a, b, c = syms.add("a"), syms.add("b"), syms.add("c")
    t1 = Wfst(syms, syms)
    s0, s1 = t1.add_state(), t1.add_state()
    t1.set_initial(s0)
    t1.add_arc(s0, Arc(a, b, weight({0: 1.0}), s1))
    t1.set_final(s1, ONE)
    t1.freeze()
    t2 = Wfst(syms, syms)
    q0, q1 = t2.add_state(), t2.add_state()
    t2.set_initial(q0)
    t2.add_arc(q0, Arc(b, c, weight({1: 2.0}), q1))
    t2.set_final(q1, ONE)
    t2.freeze()
    composed = compose(t1, t2)
    paths = enumerate_paths(composed, UNIT)
    assert len(paths) == 1
    assert paths[0].tokens == ("a",)
    assert paths[0].output_tokens == ("c",)
    assert dict(paths[0].features) == {0: 1.0, 1: 2.0}


def test_compose_rejects_mismatched_alphabets():
    t1 = Wfst(SymbolTable(), SymbolTable())
    s = t1.add_state()
    t1.set_initial(s)
    t1.set_final(s, ONE)
    t1.freeze()
    other = SymbolTable()
    other.add("fremd")
    t2 = Wfst(other, other)
    q = t2.add_state()
    t2.set_initial(q)
    t2.set_final(q, ONE)
    t2.freeze()
    with pytest.raises(ContractError):
        compose(t1, t2)


def test_compose_requires_frozen():
    syms = SymbolTable()
    t1 = Wfst(syms, syms)
    s = t1.add_state()
    t1.set_initial(s)
    t1.set_final(s, ONE)
    t2 = identity_acceptor([], syms)
    with pytest.raises(ContractError):
        compose(t1, t2)


def test_levenshtein_via_standard_flower():
    rng = random.Random(20_16)
    syms = SymbolTable()
    letters = [syms.add(ch) for ch in "abcde"]
    flower = build_standard_edit_fst(set(letters), syms)
    for _ in range(300):
        alpha = letters[: rng.randint(1, 5)]
        x = [rng.choice(alpha) for _ in range(rng.randint(0, 15))]
        y = [rng.choice(alpha) for _ in range(rng.randint(0, 15))]
        left = compose(linear_chain(x, syms), flower)
        full = compose(left, linear_chain(y, syms))
        got = shortest_path(full, UNIT).cost
        assert got == classic_levenshtein(x, y)


def test_kitten_sitting_distance_three():
    syms = SymbolTable()
    labels = {ch: syms.add(ch) for ch in set("kittensitting")}
    flower = build_standard_edit_fst(set(labels.values()), syms)
    x = linear_chain([labels[c] for c in "kitten"], syms)
    y = linear_chain([labels[c] for c in "sitting"], syms)
    assert shortest_path(compose(compose(x, flower), y), UNIT).cost == 3.0


def _random_transducer(rng: random.Random, syms: SymbolTable, labels) -> Wfst:
    """Small acyclic transducer; epsilon may appear on either tape."""
    n = rng.randint(2, 6)
    fst = Wfst(syms, syms)
    for _ in range(n):
        fst.add_state()
    fst.set_initial(0)
    fst.set_final(n - 1, ONE)
    if rng.random() < 0.3:
        fst.set_final(rng.randint(0, n - 1), weight({0: rng.randint(0, 3) / 4.0}))
    choices = [EPSILON] + list(labels)
    for i in range(n - 1):
        targets = {i + 1} | {rng.randint(i + 1, n - 1) for _ in range(rng.randint(0, 2))}
        for t in sorted(targets):
            il = rng.choice(choices)
            ol = rng.choice(choices)
            w = ONE if rng.random() < 0.4 else weight({0: rng.randint(1, 8) / 4.0})
            fst.add_arc(i, Arc(il, ol, w, t))
    return fst.freeze()


def _pair_costs(fst: Wfst) -> dict[tuple[tuple[str, ...], tuple[str, ...]], float]:
    best: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}
    for p in enumerate_paths(fst, UNIT, limit=100_000):
        key = (p.tokens, p.output_tokens)
        if key not in best or p.score < best[key]:
            best[key] = p.score
    return best


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_compose_matches_brute_force_pair_weights(seed):
    rng = random.Random(seed)
    syms = SymbolTable()
    labels = [syms.add(w) for w in ("a", "b", "c")]
    t1 = _random_transducer(rng, syms, labels)
    t2 = _random_transducer(rng, syms, labels)
    composed = compose(t1, t2)

    left = _pair_costs(t1)
    right = _pair_costs(t2)
    expected: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}
    for (x, z1), w1 in left.items():
        for (z2, y), w2 in right.items():
            if z1 == z2:
                key = (x, y)
                cand = w1 + w2
                if key not in expected or cand < expected[key]:
                    expected[key] = cand

    got = _pair_costs(composed)
    assert set(got) == set(expected)
    for key, cost in expected.items():
        assert got[key] == pytest.approx(cost, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_epsilon_filter_matches_naive_min(seed):
    rng = random.Random(seed)
    syms = SymbolTable()
    labels = [syms.add(w) for w in ("a", "b")]
    t1 = _random_transducer(rng, syms, labels)
    t2 = _random_transducer(rng, syms, labels)
    filtered = _pair_costs(compose(t1, t2))
    unfiltered = _pair_costs(naive_compose(t1, t2))
    assert filtered.keys() == unfiltered.keys()
    for key, cost in unfiltered.items():
        assert filtered[key] == pytest.approx(cost, abs=1e-9)
