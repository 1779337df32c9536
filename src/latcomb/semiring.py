"""Weight algebra for lattice combination.

Arc weights are sparse feature vectors over a small fixed set of
components: the two translation-model scores and three edit-operation
counters.  Multiplying weights along a path adds the vectors
componentwise; comparing alternatives takes the dot product with a
parameter vector.  Keeping the components separate means the same
machines can be searched under different parameter settings without
rebuilding anything.

The scalar view of a weight is an ordinary tropical cost: plus is min,
times is addition, +inf is the absorbing zero and 0.0 the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ContractError

# Reserved feature component ids.
NMT_SCORE = 0
HIERO_SCORE = 1
EDIT_COUNT = 2      # "other" edit operations (substitution/insertion/deletion)
SUB_COUNT = 3       # UNK replaced by an in-vocabulary word
UNK_EXT_COUNT = 4   # extra UNK tokens produced by run extension

NUM_FEATURES = 5

# Entries with magnitude below this are dropped from the canonical form,
# so equal weights always share one representation (the tie rule and the
# text format both depend on that).
CANONICAL_EPS = 1e-15

# Scalar cost of the zero weight.
TROPICAL_ZERO = math.inf


@dataclass(frozen=True, slots=True)
class ParamVector:
    """Per-feature multipliers used to scalarize feature weights.

    Entries must be finite.  Negative entries are representable (some
    callers check nonnegativity themselves where an algorithm needs it).
    """

    nmt: float = 1.0
    hiero: float = 1.0
    edit: float = 1.0
    sub: float = 1.0
    ins: float = 1.0

    def __post_init__(self) -> None:
        for value in self.as_tuple():
            if not math.isfinite(value):
                raise ContractError(f"parameter vector entries must be finite, got {value!r}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.nmt, self.hiero, self.edit, self.sub, self.ins)

    def coefficient(self, feature_id: int) -> float:
        if 0 <= feature_id < NUM_FEATURES:
            return self.as_tuple()[feature_id]
        raise ContractError(f"unknown feature id {feature_id}")


@dataclass(frozen=True, slots=True)
class FeatureWeight:
    """Sparse feature vector weight.

    ``pairs`` holds (feature id, value) entries sorted by id with no
    near-zero values; ``infinite`` marks the absorbing zero element.
    Use :func:`weight` / :meth:`FeatureWeight.from_features` to build
    canonical instances rather than calling the constructor directly.
    """

    pairs: tuple[tuple[int, float], ...] = ()
    infinite: bool = False

    @classmethod
    def from_features(cls, features: Mapping[int, float] | Iterable[tuple[int, float]]) -> "FeatureWeight":
        items = features.items() if isinstance(features, Mapping) else features
        merged: dict[int, float] = {}
        for fid, value in items:
            if not isinstance(fid, int) or not (0 <= fid < NUM_FEATURES):
                raise ContractError(f"feature id must be one of 0..{NUM_FEATURES - 1}, got {fid!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ContractError(f"feature values must be finite, got {value!r} for id {fid}")
            merged[fid] = merged.get(fid, 0.0) + value
        pairs = tuple((fid, v) for fid, v in sorted(merged.items()) if abs(v) >= CANONICAL_EPS)
        return cls(pairs=pairs)

    def get(self, feature_id: int, default: float = 0.0) -> float:
        for fid, value in self.pairs:
            if fid == feature_id:
                return value
        return default

    def dense(self) -> tuple[float, ...]:
        """Value per feature id in ascending id order (absent entries are 0)."""
        out = [0.0] * NUM_FEATURES
        for fid, value in self.pairs:
            out[fid] = value
        return tuple(out)

    @property
    def is_one(self) -> bool:
        return not self.infinite and not self.pairs

    def __str__(self) -> str:
        return format_weight(self)


ZERO = FeatureWeight(infinite=True)
ONE = FeatureWeight()


def weight(features: Mapping[int, float] | Iterable[tuple[int, float]]) -> FeatureWeight:
    """Shorthand for :meth:`FeatureWeight.from_features`."""
    return FeatureWeight.from_features(features)


def times(a: FeatureWeight, b: FeatureWeight) -> FeatureWeight:
    """Componentwise sum of two weights (path extension)."""
    if a.infinite or b.infinite:
        return ZERO
    if not a.pairs:
        return b
    if not b.pairs:
        return a
    pa, pb = a.pairs, b.pairs
    na, nb = len(pa), len(pb)
    ia = ib = 0
    out: list[tuple[int, float]] = []
    while ia < na and ib < nb:
        fa, va = pa[ia]
        fb, vb = pb[ib]
        if fa == fb:
            v = va + vb
            if abs(v) >= CANONICAL_EPS:
                out.append((fa, v))
            ia += 1
            ib += 1
        elif fa < fb:
            out.append((fa, va))
            ia += 1
        else:
            out.append((fb, vb))
            ib += 1
    out.extend(pa[ia:])
    out.extend(pb[ib:])
    return FeatureWeight(pairs=tuple(out))


def scalarize(w: FeatureWeight, params: ParamVector) -> float:
    """Dot product with the parameter vector; +inf for the zero element."""
    if w.infinite:
        return TROPICAL_ZERO
    total = 0.0
    for fid, value in w.pairs:
        total += params.coefficient(fid) * value
    return total


def plus(a: FeatureWeight, b: FeatureWeight, params: ParamVector) -> FeatureWeight:
    """Select the better of two weights under the parameter vector.

    The operand with the smaller scalarization wins.  Exact ties are
    broken by comparing the dense value vectors lexicographically in
    ascending feature-id order (absent entries count as 0).  That order
    is invariant under componentwise addition, which keeps ``times``
    distributive over ``plus`` even on tied inputs.
    """
    if a.infinite:
        return b
    if b.infinite:
        return a
    ca = scalarize(a, params)
    cb = scalarize(b, params)
    if ca < cb:
        return a
    if cb < ca:
        return b
    return a if a.dense() <= b.dense() else b


def _format_number(v: float) -> str:
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
    text = text.strip()
    if not text:
        return ONE
    if text == "INF":
        return ZERO
    seen: set[int] = set()
    pairs: list[tuple[int, float]] = []
    for chunk in text.split(","):
        fid_text, sep, value_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"malformed weight entry {chunk!r}")
        try:
            fid = int(fid_text)
            value = float(value_text)
        except ValueError:
            raise ValueError(f"malformed weight entry {chunk!r}") from None
        if fid in seen:
            raise ValueError(f"duplicate feature id {fid} in weight")
        seen.add(fid)
        pairs.append((fid, value))
    try:
        return FeatureWeight.from_features(pairs)
    except ContractError as exc:
        raise ValueError(str(exc)) from None
