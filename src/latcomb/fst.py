"""Weighted finite-state transducer structure and structural checks.

A :class:`Wfst` is mutable while it is being built and frozen before any
algorithm touches it; frozen machines are safe to share.  States are
dense integers, arcs live in per-state adjacency lists, and every arc
weight is a :class:`~latcomb.semiring.FeatureWeight`.

This module is the one place that derives facts from a machine's
structure: :func:`topological_order`, :func:`has_negative`,
:func:`dense_arcs` and, per lattice kind, :func:`contract_errors`.  Each
is computed at most once per frozen machine and kept on it; a mutable
machine recomputes on every call.  Sharing a frozen machine across
threads is safe: a race only computes the same immutable value twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import ContractError
from .semiring import HIERO_SCORE, NMT_SCORE, NUM_FEATURES, ONE, Dense, FeatureWeight

# Labels 0 and 1 have fixed meanings in every symbol table.
EPSILON = 0
UNK = 1
EPSILON_SYMBOL = "<eps>"
UNK_SYMBOL = "UNK"

NO_STATE = -1

LATTICE_KINDS = ("nmt", "hiero", "generic")


class SymbolTable:
    """Bidirectional word/label mapping with fixed epsilon and UNK entries."""

    def __init__(self) -> None:
        self._word_to_label: dict[str, int] = {EPSILON_SYMBOL: EPSILON, UNK_SYMBOL: UNK}
        self._label_to_word: dict[int, str] = {EPSILON: EPSILON_SYMBOL, UNK: UNK_SYMBOL}
        self._next = 2

    def __len__(self) -> int:
        return len(self._word_to_label)

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_label

    def has_label(self, label: int) -> bool:
        return label in self._label_to_word

    def add(self, word: str) -> int:
        """Register a word, returning its (possibly existing) label."""
        existing = self._word_to_label.get(word)
        if existing is not None:
            return existing
        label = self._next
        self._next += 1
        self._word_to_label[word] = label
        self._label_to_word[label] = word
        return label

    def add_pair(self, word: str, label: int) -> None:
        """Register an explicit word/label pair; conflicts raise ValueError."""
        if label < 0:
            raise ValueError(f"labels must be nonnegative, got {label}")
        old_word = self._label_to_word.get(label)
        old_label = self._word_to_label.get(word)
        if old_word is not None and old_word != word:
            raise ValueError(f"label {label} already maps to {old_word!r}")
        if old_label is not None and old_label != label:
            raise ValueError(f"word {word!r} already maps to label {old_label}")
        self._word_to_label[word] = label
        self._label_to_word[label] = word
        self._next = max(self._next, label + 1)

    def label(self, word: str) -> int:
        try:
            return self._word_to_label[word]
        except KeyError:
            raise KeyError(f"unknown word {word!r}") from None

    def word(self, label: int) -> str:
        try:
            return self._label_to_word[label]
        except KeyError:
            raise KeyError(f"unknown label {label}") from None

    def items(self) -> list[tuple[str, int]]:
        """All (word, label) pairs in ascending label order."""
        return [(w, l) for l, w in sorted(self._label_to_word.items())]

    def same_mapping(self, other: "SymbolTable") -> bool:
        return self is other or self._word_to_label == other._word_to_label


@dataclass(frozen=True, slots=True)
class Arc:
    ilabel: int
    olabel: int
    weight: FeatureWeight
    target: int


class Wfst:
    """Weighted transducer with one initial state and weighted final states."""

    def __init__(self, isyms: SymbolTable | None = None, osyms: SymbolTable | None = None) -> None:
        self.isyms = isyms if isyms is not None else SymbolTable()
        self.osyms = osyms if osyms is not None else self.isyms
        self._arcs: list[Sequence[Arc]] = []
        self._finals: dict[int, FeatureWeight] = {}
        self.initial: int = NO_STATE
        self._frozen = False
        self._derived: dict[tuple, object] = {}

    # -- construction -------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise ContractError("machine is frozen; build a new one instead of mutating")

    def _check_state(self, s: int) -> None:
        if not (0 <= s < len(self._arcs)):
            raise ContractError(f"unknown state id {s}")

    def add_state(self) -> int:
        self._check_mutable()
        self._arcs.append([])
        return len(self._arcs) - 1

    def add_arc(self, src: int, arc: Arc) -> None:
        self._check_mutable()
        self._check_state(src)
        self._check_state(arc.target)
        self._arcs[src].append(arc)

    def set_initial(self, s: int) -> None:
        self._check_mutable()
        self._check_state(s)
        self.initial = s

    def set_final(self, s: int, w: FeatureWeight = ONE) -> None:
        self._check_mutable()
        self._check_state(s)
        if w.infinite:
            self._finals.pop(s, None)
        else:
            self._finals[s] = w

    @classmethod
    def frozen_from(cls, syms: SymbolTable, arcs: list[list[Arc]],
                    finals: dict[int, FeatureWeight], initial: int,
                    osyms: SymbolTable | None = None) -> "Wfst":
        """The frozen machine with ``arcs[s]`` leaving each state ``s``
        (output symbols ``osyms``, by default ``syms``).

        Checks nothing, unlike :meth:`add_arc`: every arc target, final
        state and ``initial`` must index ``arcs``, and no final weight be ZERO.
        """
        fst = cls(syms, osyms)
        fst._arcs, fst._finals, fst.initial = arcs, finals, initial
        return fst.freeze()

    def freeze(self) -> "Wfst":
        self._arcs = [tuple(arcs) for arcs in self._arcs]
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- inspection ---------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self._arcs)

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self._arcs)

    def states(self) -> range:
        return range(len(self._arcs))

    def arcs(self, s: int) -> Sequence[Arc]:
        self._check_state(s)
        return self._arcs[s]

    def is_final(self, s: int) -> bool:
        return s in self._finals

    def final_weight(self, s: int) -> FeatureWeight | None:
        """Final weight of ``s``, or None when ``s`` is not final."""
        return self._finals.get(s)

    def finals(self) -> Iterator[tuple[int, FeatureWeight]]:
        return iter(sorted(self._finals.items()))

    @property
    def num_finals(self) -> int:
        return len(self._finals)

    def all_labels(self) -> set[int]:
        """Every input and output label occurring on an arc."""
        labels: set[int] = set()
        for arcs in self._arcs:
            for arc in arcs:
                labels.add(arc.ilabel)
                labels.add(arc.olabel)
        return labels

    def __repr__(self) -> str:
        return (f"Wfst(states={self.num_states}, arcs={self.num_arcs}, "
                f"finals={len(self._finals)}, initial={self.initial}, frozen={self._frozen})")


T = TypeVar("T")


def _derived(compute: Callable[..., T]) -> Callable[..., T]:
    """Keep ``compute(fst, *args)`` on a frozen machine, keyed on
    ``(compute, *args)``; a mutable machine recomputes on every call."""
    @wraps(compute)
    def derived(fst: Wfst, *args) -> T:
        if not fst.frozen:
            return compute(fst, *args)
        key = (compute, *args)
        if key not in fst._derived:
            fst._derived[key] = compute(fst, *args)
        return fst._derived[key]  # type: ignore[return-value]
    return derived


@_derived
def topological_order(fst: Wfst) -> tuple[int, ...] | None:
    """States in topological order, or None when the machine has a cycle.

    Covers every state (also ones unreachable from the initial state).
    """
    n = fst.num_states
    indegree = [0] * n
    for arcs in fst._arcs:
        for arc in arcs:
            indegree[arc.target] += 1
    stack = [s for s in range(n - 1, -1, -1) if indegree[s] == 0]
    order: list[int] = []
    while stack:
        s = stack.pop()
        order.append(s)
        for arc in fst._arcs[s]:
            indegree[arc.target] -= 1
            if indegree[arc.target] == 0:
                stack.append(arc.target)
    return tuple(order) if len(order) == n else None


def is_acyclic(fst: Wfst) -> bool:
    return topological_order(fst) is not None


def count_paths(fst: Wfst) -> int | None:
    """Number of complete paths, or None when the machine has a cycle."""
    order = topological_order(fst)
    if order is None:
        return None
    if fst.initial == NO_STATE:
        return 0
    ways = [0] * fst.num_states
    ways[fst.initial] = 1
    for s in order:
        if ways[s]:
            for arc in fst._arcs[s]:
                ways[arc.target] += ways[s]
    return sum(ways[s] for s, _ in fst.finals())


@_derived
def has_negative(fst: Wfst) -> bool:
    """Whether an arc or final weight holds a negative value.

    Only then can a sum of weights cancel to below CANONICAL_EPS, so only
    then do searches need the zeroing of
    :func:`~latcomb.semiring.dense_times`.
    """
    return (any(v < 0.0 for arcs in fst._arcs for arc in arcs for v in arc.weight.values)
            or any(v < 0.0 for _, w in fst.finals() for v in w.values))


@_derived
def dense_arcs(fst: Wfst) -> tuple[tuple[tuple[int, Dense, Arc], ...], ...]:
    """Per state, the arcs that are not ZERO as (target, weight values, arc),
    in arc order: what every search over the machine reads."""
    return tuple(tuple((arc.target, arc.weight.values, arc) for arc in arcs
                       if not arc.weight.infinite) for arcs in fst._arcs)


def accessible_states(fst: Wfst) -> set[int]:
    if fst.initial == NO_STATE:
        return set()
    seen = {fst.initial}
    stack = [fst.initial]
    while stack:
        s = stack.pop()
        for arc in fst._arcs[s]:
            if arc.target not in seen:
                seen.add(arc.target)
                stack.append(arc.target)
    return seen


def coaccessible_states(fst: Wfst) -> set[int]:
    reverse: list[list[int]] = [[] for _ in fst.states()]
    for s, arcs in enumerate(fst._arcs):
        for arc in arcs:
            reverse[arc.target].append(s)
    seen = {s for s, _ in fst.finals()}
    stack = list(seen)
    while stack:
        s = stack.pop()
        for src in reverse[s]:
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return seen


@_derived
def contract_errors(fst: Wfst, kind: str) -> tuple[str, ...]:
    """Every way ``fst`` breaks the contract of ``kind``, in a fixed order.

    Any machine needs an initial and a final state.  An ``nmt`` or
    ``hiero`` lattice must also be acyclic, every arc acceptor-form, arc
    and final weights may carry no feature but the kind's own score, and
    a hiero arc never carries UNK; one message per violation, in arc
    order, then final-state order.
    """
    if kind not in LATTICE_KINDS:
        raise ContractError(f"kind must be one of {LATTICE_KINDS}, got {kind!r}")
    errors: list[str] = []
    if fst.initial == NO_STATE:
        errors.append("no initial state")
    if fst.num_finals == 0:
        errors.append("no final state")
    if kind == "generic":
        return tuple(errors)
    if not is_acyclic(fst):
        errors.append("machine contains a cycle")
    score_id = NMT_SCORE if kind == "nmt" else HIERO_SCORE

    def foreign(w: FeatureWeight) -> list[int]:
        return [fid for fid, x in enumerate(w.values) if x and fid != score_id]

    for s, arcs in enumerate(fst._arcs):
        for arc in arcs:
            if arc.ilabel != arc.olabel:
                errors.append(f"arc {s}->{arc.target} is not acceptor-form "
                              f"(ilabel {arc.ilabel} != olabel {arc.olabel})")
            if kind == "hiero" and UNK in (arc.ilabel, arc.olabel):
                errors.append(f"arc {s}->{arc.target} carries the UNK label, "
                              "which is not allowed in a hiero lattice")
            v = arc.weight.values
            if v.count(0.0) + (v[score_id] != 0.0) == NUM_FEATURES:
                continue  # every entry but the score is 0.0
            bad = foreign(arc.weight)
            if bad:
                errors.append(f"arc {s}->{arc.target} carries feature id(s) {bad}; "
                              f"a {kind} lattice may only use feature {score_id}")
    for s, w in fst.finals():
        bad = foreign(w)
        if bad:
            errors.append(f"final state {s} carries feature id(s) {bad}; "
                          f"a {kind} lattice may only use feature {score_id}")
    return tuple(errors)


@dataclass
class ValidationReport:
    """Structural diagnostics; errors are contract violations, warnings are not."""

    errors: list[str]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.errors

    def lines(self) -> list[str]:
        return [f"error: {e}" for e in self.errors] + [f"warning: {w}" for w in self.warnings]


def validate(fst: Wfst, kind: str = "generic") -> ValidationReport:
    """Diagnose structural problems and, for lattices, contract violations.

    ``kind`` is one of ``nmt``, ``hiero``, ``generic``.  The errors are
    :func:`contract_errors`; the warnings are a cycle in a generic
    machine, unreachable states and dead states.
    """
    errors = list(contract_errors(fst, kind))
    warnings: list[str] = []
    if kind == "generic" and not is_acyclic(fst):
        warnings.append("machine contains a cycle")
    if fst.initial != NO_STATE:
        acc = accessible_states(fst)
        coacc = coaccessible_states(fst)
        unreachable = sorted(set(fst.states()) - acc)
        dead = sorted(acc - coacc)
        if unreachable:
            warnings.append(f"{len(unreachable)} state(s) unreachable from the initial state: {unreachable[:5]}")
        if dead:
            warnings.append(f"{len(dead)} reachable state(s) cannot reach a final state: {dead[:5]}")
    return ValidationReport(errors=errors, warnings=warnings)


def linear_chain(labels: Iterable[int], syms: SymbolTable,
                 weights: Iterable[FeatureWeight] | None = None,
                 final_weight: FeatureWeight = ONE) -> Wfst:
    """Single-path acceptor for a label sequence; handy for tests and oracles."""
    labels = list(labels)
    weight_list = list(weights) if weights is not None else [ONE] * len(labels)
    if len(weight_list) != len(labels):
        raise ContractError("need exactly one weight per label")
    fst = Wfst(syms, syms)
    prev = fst.add_state()
    fst.set_initial(prev)
    for label, w in zip(labels, weight_list):
        nxt = fst.add_state()
        fst.add_arc(prev, Arc(label, label, w, nxt))
        prev = nxt
    fst.set_final(prev, final_weight)
    return fst.freeze()
