"""Edit typing, the edit-distance flower automata and the UNK run expansion.

The standard flower charges one edit count for every substitution,
insertion, and deletion.  The modified flower distinguishes three kinds
of operation so that filling an NMT UNK placeholder from the other
lattice is cheap:

* UNK -> out-of-vocabulary word: free,
* UNK -> in-vocabulary word: one ``sub_count``,
* everything else (other substitutions, insertions, deletions, and
  deleting an UNK): one ``edit_count``.

Arcs carry raw counters, not costs; the lambda multipliers enter only at
search time through the parameter vector, so one machine serves every
parameter setting.  :func:`edit_weight` defines the typing once, and its
only input besides the two labels is the NMT vocabulary.  Because each
kind has its own counter, an alignment's weight counts its edits of each
kind; ``pipeline.combine`` reads its edit statistics from there.  The
flowers are the reference construction (``latcomb build-edit-fst``);
``pipeline.combine`` aligns the two lattices directly without them.

:func:`expand_unk_runs` lets one NMT UNK stand for a run of up to
``max_unk_run`` tokens, with one UNK path per run length next to each
UNK arc and no epsilon arc, so the direct alignment and the flower
chain both read a run as ordinary arcs.
"""

from __future__ import annotations

from typing import AbstractSet

from .errors import ContractError, check_count
from .fst import EPSILON, NO_STATE, UNK, Arc, SymbolTable, Wfst
from .semiring import EDIT_COUNT, ONE, SUB_COUNT, UNK_EXT_COUNT, FeatureWeight

_EDIT_ONE = FeatureWeight.from_features({EDIT_COUNT: 1.0})
_SUB_ONE = FeatureWeight.from_features({SUB_COUNT: 1.0})
_EXT_ONE = FeatureWeight.from_features({UNK_EXT_COUNT: 1.0})


def edit_weight(nmt_vocab: AbstractSet[int], nmt_label: int, hiero_label: int) -> FeatureWeight:
    """Count weight of aligning one NMT label with one hiero label.

    Either side may be EPSILON: ``(a, EPSILON)`` deletes ``a``,
    ``(EPSILON, b)`` inserts ``b``, and ``(EPSILON, EPSILON)`` (one side
    advancing on an epsilon arc) is free.  A match is free; UNK against a
    word is a free fill, or one ``sub_count`` when ``nmt_vocab`` holds the
    word; everything else, deleting UNK included, is one ``edit_count``.
    This is the single definition of edit typing: the modified flower and
    the direct alignment search in the pipeline both read their weights
    from here.
    """
    if hiero_label == UNK:
        raise ContractError("UNK is never aligned to the hiero side")
    if nmt_label == hiero_label:
        return ONE
    if nmt_label == UNK and hiero_label != EPSILON:
        return _SUB_ONE if hiero_label in nmt_vocab else ONE
    return _EDIT_ONE


def build_standard_edit_fst(alphabet: AbstractSet[int], symbols: SymbolTable) -> Wfst:
    """Single-state flower computing plain edit distance over ``alphabet``.

    Identity arcs are free; every substitution, deletion, and insertion
    carries one ``edit_count``.  Composing acceptor(x) with this machine
    and acceptor(y) yields the Levenshtein distance between x and y.
    """
    letters = sorted(set(alphabet) - {EPSILON})
    if not letters:
        raise ContractError("edit transducer needs a nonempty alphabet")
    fst = Wfst(symbols, symbols)
    q = fst.add_state()
    fst.set_initial(q)
    fst.set_final(q, ONE)
    for a in letters:
        fst.add_arc(q, Arc(a, a, ONE, q))
        fst.add_arc(q, Arc(a, EPSILON, _EDIT_ONE, q))
        fst.add_arc(q, Arc(EPSILON, a, _EDIT_ONE, q))
        for b in letters:
            if a != b:
                fst.add_arc(q, Arc(a, b, _EDIT_ONE, q))
    return fst.freeze()


def build_modified_edit_fst(alphabet: AbstractSet[int], nmt_vocab: AbstractSet[int],
                            symbols: SymbolTable) -> Wfst:
    """Single-state flower with typed costs for UNK-aware matching.

    Input side ranges over ``alphabet`` (epsilon and UNK are dropped from
    it) plus UNK; the output side never carries UNK, so UNK placeholders
    can only be resolved (or deleted), never produced.
    """
    letters = sorted(set(alphabet) - {EPSILON, UNK})
    if not letters:
        raise ContractError("edit transducer needs a nonempty alphabet")
    fst = Wfst(symbols, symbols)
    q = fst.add_state()
    fst.set_initial(q)
    fst.set_final(q, ONE)
    for a in letters:
        fst.add_arc(q, Arc(a, a, edit_weight(nmt_vocab, a, a), q))
        fst.add_arc(q, Arc(a, EPSILON, edit_weight(nmt_vocab, a, EPSILON), q))
        fst.add_arc(q, Arc(EPSILON, a, edit_weight(nmt_vocab, EPSILON, a), q))
        fst.add_arc(q, Arc(UNK, a, edit_weight(nmt_vocab, UNK, a), q))
        for b in letters:
            if a != b:
                fst.add_arc(q, Arc(a, b, edit_weight(nmt_vocab, a, b), q))
    fst.add_arc(q, Arc(UNK, EPSILON, edit_weight(nmt_vocab, UNK, EPSILON), q))
    return fst.freeze()


def expand_unk_runs(nmt: Wfst, max_run: int) -> Wfst:
    """Copy of ``nmt`` in which every UNK arc also stands for a run of
    up to ``max_run`` UNK tokens.

    Next to each UNK arc s -> t of weight w come ``max_run - 1`` new
    states r1..r(m-1), numbered after the lattice's own, with the arcs
    s -> r1 (weight w) right after the UNK arc, then out of each r(k) the
    arc to r(k+1) and the arc to t, each carrying one ``unk_ext_count``.
    So a run of k tokens is exactly one path s -> t of weight w plus
    k - 1 extensions, and no epsilon arc is added.
    """
    check_count("max_run", max_run)
    if nmt.initial == NO_STATE:
        raise ContractError("cannot expand the UNK runs of a machine with no initial state")
    rows: list[list[Arc]] = [[] for _ in nmt.states()]  # run states get appended
    for s in nmt.states():
        for arc in nmt.arcs(s):
            rows[s].append(arc)
            if arc.ilabel != UNK or arc.olabel != UNK or max_run == 1:
                continue
            rows[s].append(Arc(UNK, UNK, arc.weight, len(rows)))
            for nxt in range(len(rows) + 1, len(rows) + max_run - 1):
                rows.append([Arc(UNK, UNK, _EXT_ONE, nxt), Arc(UNK, UNK, _EXT_ONE, arc.target)])
            rows.append([Arc(UNK, UNK, _EXT_ONE, arc.target)])
    return Wfst.frozen_from(nmt.isyms, rows, dict(nmt.finals()), nmt.initial, nmt.osyms)
