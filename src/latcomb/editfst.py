"""Edit typing, the edit-distance flower automata and the UNK run expander.

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
"""

from __future__ import annotations

from typing import AbstractSet

from .errors import ContractError
from .fst import EPSILON, UNK, Arc, SymbolTable, Wfst
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


def build_unk_insertion_fst(max_run: int, symbols: SymbolTable) -> Wfst:
    """Chain accepting 1..``max_run`` UNK tokens.

    The first UNK is free; each further UNK carries one ``unk_ext_count``.
    Splicing this over the UNK arcs of an NMT lattice lets a single
    placeholder stand for a short run of them.
    """
    if max_run < 1:
        raise ContractError(f"max_run must be at least 1, got {max_run}")
    fst = Wfst(symbols, symbols)
    states = [fst.add_state() for _ in range(max_run + 1)]
    fst.set_initial(states[0])
    fst.add_arc(states[0], Arc(UNK, UNK, ONE, states[1]))
    for i in range(1, max_run):
        fst.add_arc(states[i], Arc(UNK, UNK, _EXT_ONE, states[i + 1]))
    for i in range(1, max_run + 1):
        fst.set_final(states[i], ONE)
    return fst.freeze()
