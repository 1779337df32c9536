"""Weighted finite-state transducer structure and structural checks.

A :class:`Wfst` is mutable while it is being built and frozen before any
algorithm touches it; frozen machines are safe to share.  States are
dense integers; each state's arcs are plain rows :data:`Row`, ``(target,
ilabel, olabel, values)`` with the weight's canonical values (None for
ZERO), a tuple of tuples once frozen, as in OpenFst's ``ConstFst``.
Readers and searches work on rows.  :class:`Arc` and
:class:`~latcomb.semiring.FeatureWeight` objects are made on demand,
only by the accessors :meth:`Wfst.arcs` and
:attr:`~latcomb.algorithms.PathWitness.arcs`; :meth:`Wfst.add_arc`, the
checked builder, takes an :class:`Arc` and stores its row.

This module is the one place that derives facts from a machine's
structure: :func:`topological_order`, :func:`dense_arcs` and, per
lattice kind, :func:`contract_errors`.  Each
is computed at most once per frozen machine and kept on it (a builder
that learns one while building records it instead); a mutable machine
recomputes on every call.  Sharing a frozen machine across threads is
safe: a race only computes the same immutable value twice.
"""

from __future__ import annotations

from functools import wraps
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import ContractError
from .semiring import HIERO_SCORE, NMT_SCORE, ONE, ZERO, Dense, FeatureWeight

# Labels 0 and 1 have fixed meanings in every symbol table.
EPSILON = 0
UNK = 1
EPSILON_SYMBOL = "<eps>"
UNK_SYMBOL = "UNK"

NO_STATE = -1

LATTICE_KINDS = ("nmt", "hiero", "generic")


class SymbolTable:
    """Bidirectional word/label mapping with fixed epsilon and UNK entries;
    also from each label's text, ``str(label)``, which the lattice reader reads."""

    def __init__(self) -> None:
        self._word_to_label: dict[str, int] = {EPSILON_SYMBOL: EPSILON, UNK_SYMBOL: UNK}
        self._label_to_word: dict[int, str] = {EPSILON: EPSILON_SYMBOL, UNK: UNK_SYMBOL}
        self._label_of_text: dict[str, int] = {str(EPSILON): EPSILON, str(UNK): UNK}
        self._next = 2

    def __len__(self) -> int:
        return len(self._word_to_label)

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_label

    def add(self, word: str) -> int:
        """Register a word, returning its (possibly existing) label."""
        existing = self._word_to_label.get(word)
        if existing is not None:
            return existing
        label = self._next
        self._next += 1
        self._word_to_label[word] = label
        self._label_to_word[label] = word
        self._label_of_text[str(label)] = label
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
        self._label_of_text[str(label)] = label
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


class Arc(NamedTuple):
    ilabel: int
    olabel: int
    weight: FeatureWeight
    target: int


# How a machine stores an arc: (target, ilabel, olabel, values), values
# None for ZERO.
Row = tuple[int, int, int, Dense | None]


def arc_of(row: Row) -> Arc:
    """The :class:`Arc` a row stores."""
    target, ilabel, olabel, values = row
    return Arc(ilabel, olabel, ZERO if values is None else FeatureWeight(values), target)


class Wfst:
    """Weighted transducer with one initial state and weighted final states."""

    def __init__(self, isyms: SymbolTable | None = None, osyms: SymbolTable | None = None) -> None:
        self.isyms = isyms if isyms is not None else SymbolTable()
        self.osyms = osyms if osyms is not None else self.isyms
        self._arcs: Sequence[Sequence[Row]] = []
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
        w = arc.weight
        self._arcs[src].append((arc.target, arc.ilabel, arc.olabel,
                                None if w.infinite else w.values))

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
    def frozen_from(cls, syms: SymbolTable, rows: Sequence[Sequence[Row]],
                    finals: dict[int, FeatureWeight], initial: int,
                    osyms: SymbolTable | None = None) -> "Wfst":
        """The frozen machine with the arc rows ``rows[s]`` leaving each
        state ``s`` (output symbols ``osyms``, by default ``syms``).

        Checks nothing, unlike :meth:`add_arc`: every row's target, final
        state and ``initial`` must index ``rows``, every row's values be
        canonical (or None), and no final weight be ZERO.
        """
        fst = cls(syms, osyms)
        fst._arcs, fst._finals, fst.initial = rows, finals, initial
        return fst.freeze()

    def freeze(self) -> "Wfst":
        self._arcs = tuple(map(tuple, self._arcs))
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

    def arcs(self, s: int) -> tuple[Arc, ...]:
        """The arcs leaving ``s``, built from its rows on each call."""
        self._check_state(s)
        return tuple(map(arc_of, self._arcs[s]))

    def rows(self, s: int) -> Sequence[Row]:
        """The arcs leaving ``s`` as stored (see :data:`Row`); nothing is built."""
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


def _keep(fst: Wfst, fact: Callable[..., T], value: T, *args) -> None:
    """Record on the frozen ``fst`` that ``fact(fst, *args)`` is ``value``,
    a fact its builder learned while building it, so no call walks the
    machine for it."""
    fst._derived[(fact.__wrapped__, *args)] = value  # type: ignore[attr-defined]


@_derived
def topological_order(fst: Wfst) -> tuple[int, ...] | None:
    """States in topological order, or None when the machine has a cycle.

    Covers every state (also ones unreachable from the initial state).
    """
    n = fst.num_states
    indegree = [0] * n
    for rows in fst._arcs:
        for row in rows:
            indegree[row[0]] += 1
    stack = [s for s in range(n - 1, -1, -1) if indegree[s] == 0]
    order: list[int] = []
    while stack:
        s = stack.pop()
        order.append(s)
        for row in fst._arcs[s]:
            t = row[0]
            indegree[t] -= 1
            if indegree[t] == 0:
                stack.append(t)
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
            for row in fst._arcs[s]:
                ways[row[0]] += ways[s]
    return sum(ways[s] for s, _ in fst.finals())


@_derived
def dense_arcs(fst: Wfst) -> Sequence[Sequence[Row]]:
    """Per state, the rows of the arcs that are not ZERO, in arc order:
    what every search over the machine reads.  A machine without a ZERO
    arc is its own rows, with nothing copied."""
    if all(row[3] is not None for rows in fst._arcs for row in rows):
        return fst._arcs
    return tuple(tuple(row for row in rows if row[3] is not None) for rows in fst._arcs)


def accessible_states(fst: Wfst) -> set[int]:
    if fst.initial == NO_STATE:
        return set()
    seen = {fst.initial}
    stack = [fst.initial]
    while stack:
        s = stack.pop()
        for row in fst._arcs[s]:
            if row[0] not in seen:
                seen.add(row[0])
                stack.append(row[0])
    return seen


def coaccessible_states(fst: Wfst) -> set[int]:
    reverse: list[list[int]] = [[] for _ in fst.states()]
    for s, rows in enumerate(fst._arcs):
        for row in rows:
            reverse[row[0]].append(s)
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

    def foreign(v: Dense | None) -> list[int]:
        return [] if v is None else [fid for fid, x in enumerate(v) if x and fid != score_id]

    for s, rows in enumerate(fst._arcs):
        for t, ilabel, olabel, v in rows:
            if ilabel != olabel:
                errors.append(f"arc {s}->{t} is not acceptor-form "
                              f"(ilabel {ilabel} != olabel {olabel})")
            if kind == "hiero" and UNK in (ilabel, olabel):
                errors.append(f"arc {s}->{t} carries the UNK label, "
                              "which is not allowed in a hiero lattice")
            bad = foreign(v)
            if bad:
                errors.append(f"arc {s}->{t} carries feature id(s) {bad}; "
                              f"a {kind} lattice may only use feature {score_id}")
    for s, w in fst.finals():
        bad = foreign(w.values)
        if bad:
            errors.append(f"final state {s} carries feature id(s) {bad}; "
                          f"a {kind} lattice may only use feature {score_id}")
    return tuple(errors)


class ValidationReport(NamedTuple):
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
