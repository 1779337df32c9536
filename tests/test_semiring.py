import math
import pickle
from fractions import Fraction
import random
import struct

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

from latcomb.semiring import CANONICAL_EPS, NUM_FEATURES, pack_keys

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


def test_plus_orders_exact_sums_where_floats_round():
    # In floats, 1.0 + 1e16 rounds to 1e16 and the first weight costs 0.0;
    # its exact cost is 1.0, so the second weight (0.5) wins either way round.
    a = weight({0: 1.0, 1: 1e16, 2: -1e16})
    b = weight({0: 0.5})
    assert scalarize(a, UNIT) == 0.0 < scalarize(b, UNIT)
    assert plus(a, b, UNIT) == plus(b, a, UNIT) == b
    # Extending both by one weight keeps the order, as distributivity needs.
    c = weight({3: 0.25})
    assert plus(times(a, c), times(b, c), UNIT) == times(b, c)


def test_pack_keys_scales_values_far_apart():
    # 1e-15 needs 2**102 to be an integer.  With 1.7e8, x * 2.0**102 fits
    # a float; 1.7e308 times 2**102 overflows one, so there each value is
    # shifted from its exact ratio instead.  Either way every value comes
    # out exact, on one power-of-two scale: under UNIT each value alone in
    # feature 0 has a key that is its cost, and the cost 1.0 is 2**102.
    for big in (1.7e8, 1.7e308):
        values = (0.1, -big, big, 0.0, 1e-15)
        alone = pack_keys(UNIT, [(x, 0.0, 0.0, 0.0, 0.0) for x in values], 1)
        assert alone.unit == 1 << 102 and alone.features == ()
        assert alone.keys == [Fraction(x) * alone.unit for x in values]
        # The big pair cancels exactly: the cost is that of 0.1 + 1e-15,
        # and the digits hold the first three values.
        packed = pack_keys(UNIT, [values], 1)
        (key,), half = packed.keys, 1 << packed.bits >> 1
        assert packed.cost(key) == packed.unit * (Fraction(0.1) + Fraction(1e-15))
        digits = []
        for _ in packed.features:  # signed digits, the last feature's lowest
            digits.append((key + half) % (1 << packed.bits) - half)
            key = (key - digits[-1]) >> packed.bits
        assert packed.features == (0, 1, 2)
        assert digits[::-1] == [Fraction(x) * packed.unit for x in values[:3]]


def test_plus_orders_weights_far_apart_exactly():
    # The values lie more than 970 binary orders apart, so the keys take
    # the exact-ratio scaling; plus must agree with (cost, vector)
    # compared in Fractions.
    def key(w, p):
        values = [Fraction(v) for v in w.values]
        return sum(Fraction(q) * v for q, v in zip(p, values)), values

    far = weight({0: 1.7e308, 2: -1.7e308})
    near = weight({0: 1e-15})
    cancels, below, above, tied = (UNIT, ParamVector(1.0, 1.0, 2.0, 1.0, 1.0),
                                   ParamVector(1.0, 1.0, 0.0, 1.0, 1.0),
                                   ParamVector(0.0, 1.0, 0.0, 1.0, 1.0))
    for p, winner in ((cancels, far), (below, far), (above, near), (tied, near)):
        for a, b in ((far, near), (near, far)):
            assert plus(a, b, p) == (a if key(a, p) <= key(b, p) else b) == winner


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_param_vector_is_checked_however_built(bad):
    # A NamedTuple's _make, and so _replace, bypass its constructor.
    with pytest.raises(ContractError):
        ParamVector(nmt=bad)
    with pytest.raises(ContractError):
        UNIT._replace(sub=bad)
    with pytest.raises(ContractError):
        ParamVector._make([1.0, bad, 1.0, 1.0, 1.0])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(ParamVector(nmt=2.5), protocol)
        tampered = data.replace(struct.pack(">d", 2.5), struct.pack(">d", bad)).replace(
            b"F2.5\n", f"F{bad}\n".encode())  # binary floats, and protocol 0's text
        assert tampered != data
        with pytest.raises(ContractError):
            pickle.loads(tampered)


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


def test_single_entry_weight_matches_the_general_path():
    # One-entry texts take parse_weight's fast path; it must build the
    # weight weight() builds, down to the sign bit, and keep its errors.
    for text in ("1:-0", "1:1e-16", "1:-1e-16", "0:1e308", "1:1_0", " 1 : 2 ", "4:-3.25",
                 "0:1e-15", "2:-1e-15"):
        fid, value = text.split(":")
        got, want = parse_weight(text).values, weight({int(fid): float(value)}).values
        assert [v.hex() for v in got] == [v.hex() for v in want], text
    for text, message in (("1.5", "malformed weight entry '1.5'"),
                          ("x:1", "malformed weight entry 'x:1'"),
                          ("1:x", "malformed weight entry '1:x'"),
                          ("1:", "malformed weight entry '1:'"),
                          (":1", "malformed weight entry ':1'"),
                          ("1:1:1", "malformed weight entry '1:1:1'"),
                          ("0x1:2", "malformed weight entry '0x1:2'"),
                          ("7:1", "feature id must be one of 0..4, got 7"),
                          ("-1:1", "feature id must be one of 0..4, got -1"),
                          ("0:nan", "feature values must be finite, got nan for id 0"),
                          ("0:inf", "feature values must be finite, got inf for id 0"),
                          ("0:-inf", "feature values must be finite, got -inf for id 0"),
                          ("0:1e309", "feature values must be finite, got inf for id 0")):
        with pytest.raises(ValueError) as err:
            parse_weight(text)
        assert str(err.value) == message, text


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
    # times, scalarize and the float sum the searches report of a dense
    # product agree bit for bit with a sparse reference that sums only
    # the nonzero entries (also the sign of a zero cost under negative
    # parameters); the grid's sums are exact, so the exact cost adds up.
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
        # Keys are linear: the product's key is the sum of its factors'.
        key_a, key_b, key_ab = pack_keys(params, [a.values, b.values, vector], 2).keys
        assert key_ab == key_a + key_b


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
