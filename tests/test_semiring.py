import math
import random

import pytest
from hypothesis import given, strategies as st

from latcomb import (
    ONE,
    ZERO,
    ContractError,
    ParamVector,
    format_weight,
    parse_weight,
    plus,
    scalarize,
    times,
    weight,
)

from latcomb.semiring import CANONICAL_EPS, NUM_FEATURES, dense_times, search_key

from helpers import grid_params, grid_weight

UNIT = ParamVector(1.0, 1.0, 1.0, 1.0, 1.0)


def test_plus_picks_smaller_scalarization():
    assert plus(weight({0: 1.0}), weight({1: 5.0}), UNIT) == weight({0: 1.0})


def test_plus_zero_is_identity():
    w = weight({2: 3.0})
    assert plus(ZERO, w, UNIT) == w
    assert plus(w, ZERO, UNIT) == w


def test_plus_tie_uses_dense_vector_order():
    # Both operands scalarize to 2.0 under these parameters; the dense
    # vectors are (0,0,1,0,0) and (0,0,0,2,0), so the sub-count operand wins.
    p = ParamVector(nmt=1.0, hiero=1.0, edit=2.0, sub=1.0, ins=1.0)
    a, b = weight({2: 1.0}), weight({3: 2.0})
    assert scalarize(a, p) == scalarize(b, p) == 2.0
    assert plus(a, b, p) == b
    assert plus(b, a, p) == b


def test_times_componentwise():
    assert times(weight({0: 1.0}), weight({0: 2.0, 2: 1.0})) == weight({0: 3.0, 2: 1.0})


def test_times_one_identity():
    w = weight({0: 1.5, 4: 2.0})
    assert times(ONE, w) == w
    assert times(w, ONE) == w


def test_times_cancellation_reaches_one():
    assert times(weight({2: 1.0}), weight({2: -1.0})) == ONE


def test_times_zero_annihilates():
    assert times(ZERO, weight({0: 1.0})) == ZERO
    assert times(weight({0: 1.0}), ZERO) == ZERO


def test_scalarize_dot_product():
    p = ParamVector(nmt=0.5, hiero=1.0, edit=1.0, sub=1.0, ins=1.0)
    assert scalarize(weight({0: 2.0, 2: 3.0}), p) == 4.0


def test_scalarize_one_and_zero():
    assert scalarize(ONE, UNIT) == 0.0
    assert scalarize(ZERO, UNIT) == math.inf


def test_param_vector_rejects_unknown_feature():
    with pytest.raises(ContractError):
        UNIT.coefficient(7)
    with pytest.raises(ContractError):
        weight({9: 1.0})


def test_param_vector_requires_finite():
    with pytest.raises(ContractError):
        ParamVector(nmt=math.inf)


def test_text_round_trip():
    cases = [ONE, ZERO, weight({0: 1.5, 2: 2.0}), weight({1: -0.125}), weight({4: 3.0})]
    for w in cases:
        assert parse_weight(format_weight(w)) == w
    assert format_weight(weight({0: 1.5, 2: 2.0})) == "0:1.5,2:2"
    assert format_weight(ONE) == ""
    assert format_weight(ZERO) == "INF"


def test_overflowed_weight_has_no_text_form():
    # A sum of finite entries can overflow; writing it fails as a contract
    # violation rather than with OverflowError.
    big = weight({0: 1e308})
    overflowed = times(big, big)
    assert overflowed.values[0] == math.inf
    with pytest.raises(ContractError, match="not finite"):
        format_weight(overflowed)


def test_parse_weight_rejects_garbage():
    for bad in ("0", "0:1,0:2", "x:1", "0:abc", "0:1,,"):
        with pytest.raises(ValueError):
            parse_weight(bad)


# Law suite on a dyadic grid: every dot product and componentwise sum is
# exact in double precision, so the laws can be asserted as equalities and
# scalar ties (where the tie rule matters) actually occur.

def weights_grid(draw_seed):
    rng = random.Random(draw_seed)
    return grid_weight(rng), grid_weight(rng), grid_weight(rng), grid_params(rng)


@given(st.integers(0, 10_000))
def test_semiring_laws_grid(seed):
    a, b, c, p = weights_grid(seed)
    add = lambda x, y: plus(x, y, p)
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, a) == a
    assert times(times(a, b), c) == times(a, times(b, c))
    assert times(a, add(b, c)) == add(times(a, b), times(a, c))
    assert add(times(b, c), times(c, b)) == times(b, c)  # otimes commutes here
    assert times(ZERO, a) == ZERO
    assert add(ZERO, a) == a
    assert times(ONE, a) == a


@given(st.integers(0, 10_000))
def test_scalarization_homomorphism_grid(seed):
    a, b, _, p = weights_grid(seed)
    assert scalarize(times(a, b), p) == scalarize(a, p) + scalarize(b, p)
    assert scalarize(plus(a, b, p), p) == min(scalarize(a, p), scalarize(b, p))


def _bits(key):
    cost, vector = key
    return cost.hex(), tuple(v.hex() for v in vector)


def _sparse_product(a, b):
    """Reference product on the (id, value) pairs: a dict merge that drops
    entries of magnitude below CANONICAL_EPS."""
    merged = dict(a.pairs)
    for fid, v in b.pairs:
        merged[fid] = merged.get(fid, 0.0) + v
    return {fid: v for fid, v in merged.items() if abs(v) >= CANONICAL_EPS}


@given(st.integers(0, 10_000))
def test_dense_key_equals_sparse_grid(seed):
    # times, scalarize and the searches' (cost, vector) key of a dense
    # product agree bit for bit with a sparse reference that sums only
    # the nonzero entries (also the sign of a zero cost under negative
    # parameters).
    a, b, _, p = weights_grid(seed)
    if a.infinite or b.infinite:
        return
    product = _sparse_product(a, b)
    vector = tuple(product.get(fid, 0.0) for fid in range(NUM_FEATURES))
    assert tuple(v.hex() for v in times(a, b).values) == tuple(v.hex() for v in vector)
    for params in (p, ParamVector(*(-x for x in p.as_tuple()))):
        cost = 0.0
        for fid in sorted(product):
            cost += params.coefficient(fid) * product[fid]
        expected = _bits((cost, vector))
        assert _bits((scalarize(times(a, b), params), times(a, b).values)) == expected
        key = search_key(params)
        assert _bits(key(dense_times(a.values, b.values, True))) == expected
        if not any(v < 0.0 for v in a.values + b.values):
            assert _bits(key(dense_times(a.values, b.values, False))) == expected


@st.composite
def float_weights(draw):
    entries = draw(st.dictionaries(st.integers(0, 4),
                                   st.floats(-100.0, 100.0, allow_nan=False), max_size=5))
    return weight(entries)


@given(float_weights(), float_weights())
def test_homomorphism_float_tolerance(a, b):
    p = ParamVector(0.5, 1.5, 2.0, 1.0, 0.25)
    lhs = scalarize(times(a, b), p)
    rhs = scalarize(a, p) + scalarize(b, p)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(float_weights(), float_weights())
def test_plus_commutative_bitwise(a, b):
    p = ParamVector(1.0, 1.0, 1.0, 1.0, 1.0)
    assert plus(a, b, p) == plus(b, a, p)


def test_canonical_drops_tiny_entries():
    assert weight({0: 1e-16}) == ONE
    assert weight({0: 1e-16}).pairs == ()
    assert weight({0: -0.0}) == ONE
    assert hash(weight({0: -0.0})) == hash(ONE)
    assert ZERO.pairs == ()
    # A signed cancellation stores a positive 0.0, as weight() does.
    cancelled = times(weight({0: 0.5, 2: 1.0}), weight({2: -1.0}))
    assert cancelled == weight({0: 0.5})
    assert math.copysign(1.0, cancelled.values[2]) == 1.0
