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
:func:`dense_times` extends a path and :func:`search_key` orders paths
by scalarized cost, then by the vector.  :func:`times`,
:func:`scalarize` and :func:`plus` are those two on weights, and the
searches apply them to the stored vectors directly.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, NamedTuple

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
# FeatureWeight.values), and the search order's key for it.
Dense = tuple[float, ...]
Key = tuple[float, Dense]


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
    """Dot product with the parameter vector; +inf for the zero element."""
    if w.infinite:
        return TROPICAL_ZERO
    return search_key(params)(w.values)[0]


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


def search_key(params: ParamVector) -> Callable[[Dense], Key]:
    """The search order under ``params``: ``key(v) == (cost, v)``.

    The cost is the dot product with the parameters, summed from 0.0 in
    feature-id order (:func:`scalarize` is this cost).  Keys compare as
    tuples: by cost, then by the value vector lexicographically (the
    lexicographic semiring of Roark, Sproat and Shafran, 2011).
    """
    p0, p1, p2, p3, p4 = params.as_tuple()

    def key(v: Dense) -> Key:
        v0, v1, v2, v3, v4 = v
        return (0.0 + p0 * v0 + p1 * v1 + p2 * v2 + p3 * v3 + p4 * v4, v)

    return key


def plus(a: FeatureWeight, b: FeatureWeight, params: ParamVector) -> FeatureWeight:
    """Select the better of two weights under the parameter vector.

    The operand with the smaller :func:`search_key` wins, ``a`` on equal
    keys: the smaller scalarization, with exact ties broken by the value
    vectors in ascending feature-id order.  That order is invariant under componentwise addition, which
    keeps ``times`` distributive over ``plus`` even on tied inputs.
    """
    if a.infinite:
        return b
    if b.infinite:
        return a
    key = search_key(params)
    return a if key(a.values) <= key(b.values) else b


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
