"""Weight algebra for lattice combination.

Arc weights are feature vectors over a small fixed set of components:
the two translation-model scores and three edit-operation counters,
stored densely as one float per component.  Multiplying weights along a
path adds the vectors componentwise; comparing alternatives takes the
dot product with a parameter vector.  Keeping the components separate
means the same machines can be searched under different parameter
settings without rebuilding anything.

The scalar view of a weight is an ordinary tropical cost: plus is min,
times is addition, +inf is the absorbing zero and 0.0 the identity.

The algebra and the search order are defined here once:
:func:`dense_times` extends a path in floats, which is what a path
reports, and :func:`exact_order` orders paths exactly, by scalarized
cost and then by the vector, both summed in integers.  :func:`times`,
:func:`scalarize` and :func:`plus` are those on weights, and the
searches apply them to the stored vectors directly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, compress, count
from operator import mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import Checked, ContractError

# Reserved feature component ids.
NMT_SCORE = 0
HIERO_SCORE = 1
EDIT_COUNT = 2      # "other" edit operations (substitution/insertion/deletion)
SUB_COUNT = 3       # UNK replaced by an in-vocabulary word
UNK_EXT_COUNT = 4   # extra UNK tokens produced by run extension

NUM_FEATURES = 5

# Entries with magnitude below this are stored as 0.0 in the canonical
# form, so equal weights always share one representation (the tie rule
# and the text format both depend on that).
CANONICAL_EPS = 1e-15

# Scalar cost of the zero weight.
TROPICAL_ZERO = math.inf

# A weight's value per feature id in ascending id order (see
# FeatureWeight.values).
Dense = tuple[float, ...]


class _ParamVectorFields(NamedTuple):
    nmt: float = 1.0
    hiero: float = 1.0
    edit: float = 1.0
    sub: float = 1.0
    ins: float = 1.0


class ParamVector(Checked, _ParamVectorFields):
    """Per-feature multipliers used to scalarize feature weights.

    Entries must be finite.  Negative entries are representable (some
    callers check nonnegativity themselves where an algorithm needs it).
    """

    __slots__ = ()

    def _check(self) -> "ParamVector":
        for value in self:
            if not math.isfinite(value):
                raise ContractError(f"parameter vector entries must be finite, got {value!r}")
        return self

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return tuple(self)

    def coefficient(self, feature_id: int) -> float:
        if 0 <= feature_id < NUM_FEATURES:
            return self[feature_id]
        raise ContractError(f"unknown feature id {feature_id}")


class FeatureWeight(NamedTuple):
    """Feature vector weight.

    ``values`` holds one float per feature id in ascending id order, with
    every entry of magnitude below CANONICAL_EPS stored as 0.0;
    ``infinite`` marks the absorbing zero element (whose values are all
    0.0).  Use :func:`weight` / :meth:`FeatureWeight.from_features` to
    build canonical instances from outside input; the constructor takes
    values that are canonical already.
    """

    values: Dense = (0.0,) * NUM_FEATURES
    infinite: bool = False

    @classmethod
    def from_features(cls, features: Mapping[int, float]) -> "FeatureWeight":
        values = [0.0] * NUM_FEATURES
        for fid, value in features.items():
            if not isinstance(fid, int) or not (0 <= fid < NUM_FEATURES):
                raise ContractError(f"feature id must be one of 0..{NUM_FEATURES - 1}, got {fid!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ContractError(f"feature values must be finite, got {value!r} for id {fid}")
            values[fid] += value
        return cls(_canonical(values))

    @property
    def pairs(self) -> tuple[tuple[int, float], ...]:
        """The nonzero entries as (feature id, value), sorted by id."""
        return tuple((fid, v) for fid, v in enumerate(self.values) if v != 0.0)

    def get(self, feature_id: int, default: float = 0.0) -> float:
        if 0 <= feature_id < NUM_FEATURES and self.values[feature_id] != 0.0:
            return self.values[feature_id]
        return default

    def __str__(self) -> str:
        return format_weight(self)


ZERO = FeatureWeight(infinite=True)
ONE = FeatureWeight()


def weight(features: Mapping[int, float]) -> FeatureWeight:
    """Shorthand for :meth:`FeatureWeight.from_features`."""
    return FeatureWeight.from_features(features)


def times(a: FeatureWeight, b: FeatureWeight) -> FeatureWeight:
    """Componentwise sum of two weights (path extension)."""
    if a.infinite or b.infinite:
        return ZERO
    return FeatureWeight(dense_times(a.values, b.values, True))


def scalarize(w: FeatureWeight, params: ParamVector) -> float:
    """Dot product with the parameter vector, summed in floats from 0.0 in
    feature-id order: the cost a path reports.  +inf for the zero element."""
    if w.infinite:
        return TROPICAL_ZERO
    p0, p1, p2, p3, p4 = params
    v0, v1, v2, v3, v4 = w.values
    return 0.0 + p0 * v0 + p1 * v1 + p2 * v2 + p3 * v3 + p4 * v4


def _canonical(values: Iterable[float]) -> Dense:
    return tuple(0.0 if -CANONICAL_EPS < x < CANONICAL_EPS else x for x in values)


def dense_times(u: Dense, v: Dense, signed: bool) -> Dense:
    """The componentwise sum of two canonical value vectors.

    With ``signed``, entries of magnitude below CANONICAL_EPS are zeroed,
    which keeps the sum canonical.  Only a sum of opposite signs can fall
    there, so a search over machines that hold no negative value passes
    False and skips the check.
    """
    u0, u1, u2, u3, u4 = u
    v0, v1, v2, v3, v4 = v
    out = (u0 + v0, u1 + v1, u2 + v2, u3 + v3, u4 + v4)
    return _canonical(out) if signed else out


class ExactOrder(NamedTuple):
    """The search order of one search, in integers: see :func:`exact_order`."""

    scale: Callable[..., list[int]]
    params: tuple[int, ...]
    unit: int

    def ints(self, v: Dense) -> tuple[int, ...]:
        return tuple(self.scale(v))

    def cost(self, v: Dense) -> int:
        return sum(map(mul, self.params, self.scale(v)))


def exact_order(params: ParamVector, values: Iterable[float]) -> ExactOrder:
    """The search order under ``params`` over value vectors that hold only
    ``values`` and integers (such as edit counts).

    A path's key is (cost, vector), both exact integer sums over its
    value vectors, compared as tuples: by cost, then by the value vector
    lexicographically (the lexicographic semiring of Roark, Sproat and
    Shafran, 2011).  ``scale(xs, p)`` gives each of ``xs`` times 2**k,
    times p, for one power of two that makes every value an integer: a
    nonzero float is m * 2**(e - 53) for an integer m and its
    :func:`math.frexp` exponent e, so k = 53 - (least e) will do.  A
    float product x * 2.0**k is exact; where it would overflow (values
    some 970 binary orders apart), each value's exact ratio is shifted
    instead, at some 2.4 times the cost.  ``params`` are the parameters
    times 2**l, the least power of two that makes each an integer; a
    vector's cost is the dot product of the two, 2**(k + l) times
    sum_i p_i * v_i, and ``unit`` is 2**(k + l), the cost 1.0.  Integer
    sums do not round, so the order is kept under extension, and keeping
    the least key per state finds the least path.
    """
    l, lams = _scaled(params)
    mags = list(map(abs, filter(None, values)))
    k = max(0, 53 - math.frexp(min(mags))[1]) if mags else 0
    if not mags or k + max(1, math.frexp(max(mags))[1]) <= 1024:
        f = 2.0 ** k

        def scale(xs: Iterable[float], p: int = 1) -> list[int]:
            return [p * int(x * f) for x in xs]
    else:  # values some 970 binary orders apart: x * 2.0**k would overflow

        def scale(xs: Iterable[float], p: int = 1) -> list[int]:
            # x = n / d, d a power of two no larger than 2**k
            return [p * (n << (k + 1 - d.bit_length())) for n, d in map(float.as_integer_ratio, xs)]

    return ExactOrder(scale, lams, 1 << (k + l))


class PackedKeys(NamedTuple):
    """Exact keys packed into integers: see :func:`pack_keys`."""

    keys: list[int]
    order: ExactOrder
    features: tuple[int, ...]
    bits: int

    @property
    def shift(self) -> int:
        """The bits below a key's cost."""
        return self.bits * len(self.features)

    def cost(self, key: int) -> int:
        """The cost of a key, or of a sum of keys within the digits' bound."""
        return (key + (1 << self.shift >> 1)) >> self.shift


def pack_keys(params: ParamVector, vectors: Sequence[Dense], terms: int) -> PackedKeys:
    """Each vector's exact key under :func:`exact_order`, packed into one integer.

    A key is the cost, then one digit ``bits`` wide per feature that some
    vector carries, but the last such feature when its parameter is not
    zero (the cost and the others fix it); ``features`` lists the features
    that have a digit.  A sum of at most ``terms`` keys has each digit
    below 2**(bits - 1) in magnitude, so such sums compare as the keys
    they pack do, and :meth:`PackedKeys.cost` reads the sum's cost off it.
    Under a parameter vector with one feature that the vectors carry, a
    key is its cost.
    """
    columns = []  # per feature that some vector carries: its id, its values, those not zero
    for i, c in enumerate(zip(*vectors)):
        nonzero = list(filter(None, c))
        if nonzero:
            columns.append((i, c, nonzero))
    order = exact_order(params, chain.from_iterable(nz for _, _, nz in columns))
    digits = columns[:-1] if columns and order.params[columns[-1][0]] else columns
    top = max((max(map(abs, nz)) for _, _, nz in digits), default=0.0)
    bits = (order.scale([top])[0] * terms).bit_length() + 1 if digits else 0
    shift = bits * len(digits)
    # A key is linear in the scaled values: each adds its parameter times
    # itself to the cost, and itself to its feature's digit.  The column
    # with the most values not zero is scaled whole; the others add theirs
    # where they are not zero.
    keys: list[int] | None = None
    for d, (i, c, nonzero) in sorted(enumerate(columns), key=lambda col: -len(col[1][2])):
        factor = (order.params[i] << shift) + (1 << (shift - bits * (d + 1)) if d < len(digits) else 0)
        if keys is None:
            keys = order.scale(c, factor)
            continue
        for at, key in zip(compress(count(), c), order.scale(nonzero, factor)):
            keys[at] += key
    return PackedKeys(keys or [0] * len(vectors), order, tuple(i for i, _, _ in digits), bits)


@lru_cache(maxsize=16)
def _scaled(params: ParamVector) -> tuple[int, tuple[int, ...]]:
    """(l, the parameters times 2**l) for the least l that makes them integers."""
    ratios = [p.as_integer_ratio() for p in params]
    l = max(d.bit_length() for _, d in ratios) - 1
    return l, tuple(n << (l + 1 - d.bit_length()) for n, d in ratios)


def plus(a: FeatureWeight, b: FeatureWeight, params: ParamVector) -> FeatureWeight:
    """Select the better of two weights under the parameter vector.

    The operand with the smaller exact key (:func:`exact_order`) wins,
    ``a`` on equal keys: the smaller scalarization over the reals, with
    exact ties broken by the value vectors in ascending feature-id order.
    That order is invariant under exact componentwise addition, so
    ``times`` distributes over ``plus`` wherever its float sums are exact.
    """
    if a.infinite:
        return b
    if b.infinite:
        return a
    order = exact_order(params, a.values + b.values)
    key_a = order.cost(a.values), order.ints(a.values)
    return a if key_a <= (order.cost(b.values), order.ints(b.values)) else b


def _format_number(v: float) -> str:
    if not math.isfinite(v):
        raise ContractError(f"feature value {v!r} is not finite and has no text form")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def format_weight(w: FeatureWeight) -> str:
    """Text form: ``id:value`` pairs sorted by id, empty for one, INF for zero."""
    if w.infinite:
        return "INF"
    return ",".join(f"{fid}:{_format_number(v)}" for fid, v in w.pairs)


def parse_weight(text: str) -> FeatureWeight:
    """Inverse of :func:`format_weight`; raises ValueError on malformed input."""
    values = parse_values(text)
    return ZERO if values is None else FeatureWeight(values)


def parse_values(text: str) -> Dense | None:
    """The canonical values of the weight :func:`parse_weight` reads, None for ZERO."""
    text = text.strip()
    if not text:
        return ONE.values
    if text == "INF":
        return None
    entries: dict[int, float] = {}
    for chunk in text.split(","):
        fid_text, sep, value_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"malformed weight entry {chunk!r}")
        try:
            fid = int(fid_text)
            value = float(value_text)
        except ValueError:
            raise ValueError(f"malformed weight entry {chunk!r}") from None
        if fid in entries:
            raise ValueError(f"duplicate feature id {fid} in weight")
        entries[fid] = value
    try:
        return FeatureWeight.from_features(entries).values
    except ContractError as exc:
        raise ValueError(str(exc)) from None
