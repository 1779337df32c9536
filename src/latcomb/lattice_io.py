"""Text formats: lattices, symbol tables, vocabularies, parameter files.

Lattice files are line oriented.  Arc lines read ``src dst ilabel olabel
weight``; a line with one or two fields marks a final state and its
weight.  The weight field uses the weight text form (``id:value`` pairs,
empty for one) and may be omitted when it is one.  The first state
mentioned in the file is the initial state.  Labels are integers,
resolved against a symbol table file of ``word<TAB>id`` lines.

Blank lines and lines starting with ``#`` are ignored everywhere.
Output ordering is deterministic: the initial state first (renumbered to
0), remaining states ascending, arcs sorted by (ilabel, olabel, target).
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from .errors import ContractError, FormatError
from .fst import EPSILON_SYMBOL, NO_STATE, UNK_SYMBOL, Arc, SymbolTable, Wfst, validate
from .pipeline import CombinationParams
from .semiring import ONE, format_weight, parse_weight


def data_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is neither blank nor a comment."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def read_symtab(path: str) -> SymbolTable:
    """Load a ``word<TAB>id`` table; epsilon and UNK ids are fixed."""
    table = SymbolTable()
    for lineno, line in data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"expected 'word<TAB>id', got {line!r}", path, lineno)
        word, id_text = parts
        try:
            label = int(id_text)
        except ValueError:
            raise FormatError(f"label {id_text!r} is not an integer", path, lineno) from None
        try:
            table.add_pair(word, label)
        except ValueError as exc:
            raise FormatError(str(exc), path, lineno) from None
    return table


def write_symtab(table: SymbolTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for word, label in table.items():
            handle.write(f"{word}\t{label}\n")


def read_vocab(path: str, table: SymbolTable) -> frozenset[int]:
    """Load the NMT vocabulary (one word per line) as a label set.

    Unknown words are registered in the symbol table so membership tests
    stay total.  Duplicates and the UNK token are rejected.
    """
    seen: set[str] = set()
    labels: set[int] = set()
    for lineno, line in data_lines(path):
        if line in seen:
            raise FormatError(f"duplicate vocabulary word {line!r}", path, lineno)
        if line in (UNK_SYMBOL, EPSILON_SYMBOL):
            raise FormatError(f"{line!r} is reserved and may not appear in a vocabulary", path, lineno)
        seen.add(line)
        labels.add(table.add(line))
    return frozenset(labels)


_PARAM_FLOAT_KEYS = ("lambda_nmt", "lambda_hiero", "lambda_sub", "lambda_edit", "lambda_ins")
_PARAM_INT_KEYS = ("max_unk_run", "hiero_node_budget")


def read_params(path: str) -> CombinationParams:
    """Load ``key=value`` combination parameters.

    All five lambda keys are required; ``max_unk_run`` and
    ``hiero_node_budget`` are optional integers.  The values must satisfy
    :class:`CombinationParams`' own checks, so a bad file fails at load
    time, not mid-run.
    """
    values: dict[str, float] = {}
    for lineno, line in data_lines(path):
        key, sep, value_text = line.partition("=")
        key = key.strip()
        if not sep:
            raise FormatError(f"expected 'key=value', got {line!r}", path, lineno)
        if key not in _PARAM_FLOAT_KEYS + _PARAM_INT_KEYS:
            raise FormatError(f"unknown parameter key {key!r}", path, lineno)
        if key in values:
            raise FormatError(f"duplicate parameter key {key!r}", path, lineno)
        try:
            values[key] = float(value_text.strip())
        except ValueError:
            raise FormatError(f"value for {key!r} is not a number: {value_text.strip()!r}",
                              path, lineno) from None
    for key in _PARAM_FLOAT_KEYS:
        if key not in values:
            raise FormatError(f"missing required parameter {key!r}", path)
    for key in _PARAM_INT_KEYS:
        if key in values:
            if not values[key].is_integer():
                raise FormatError(f"parameter {key!r} must be an integer, got {values[key]}", path)
            values[key] = int(values[key])
    try:
        return CombinationParams(**values)
    except ContractError as exc:
        raise FormatError(str(exc), path) from None


def read_lattice(path: str, table: SymbolTable, kind: str = "generic") -> Wfst:
    """Parse a lattice file into a frozen machine.

    ``kind`` selects the contract: ``nmt`` and ``hiero`` must be acyclic
    acceptors with their single score feature, and ``hiero`` must not
    mention UNK; ``generic`` machines are only structurally checked.
    """
    fst = Wfst(table, table)
    state_of: dict[int, int] = {}

    def intern(file_id: int) -> int:
        sid = state_of.get(file_id)
        if sid is None:
            sid = fst.add_state()
            state_of[file_id] = sid
        return sid

    saw_line = False
    for lineno, line in data_lines(path):
        fields = line.split()
        try:
            ids = [int(f) for f in fields[: min(len(fields), 4)]]
        except ValueError:
            raise FormatError(f"non-integer field in {line!r}", path, lineno) from None
        if len(fields) in (1, 2):
            state = intern(ids[0])
            weight = ONE
            if len(fields) == 2:
                try:
                    weight = parse_weight(fields[1])
                except ValueError as exc:
                    raise FormatError(str(exc), path, lineno) from None
            if weight.infinite:
                raise FormatError("a final weight of INF means 'not final'; drop the line instead",
                                  path, lineno)
            fst.set_final(state, weight)
        elif len(fields) in (4, 5):
            src = intern(ids[0])
            dst = intern(ids[1])
            ilabel, olabel = ids[2], ids[3]
            for label in (ilabel, olabel):
                if not table.has_label(label):
                    raise FormatError(f"label {label} is not in the symbol table", path, lineno)
            weight = ONE
            if len(fields) == 5:
                try:
                    weight = parse_weight(fields[4])
                except ValueError as exc:
                    raise FormatError(str(exc), path, lineno) from None
            fst.add_arc(src, Arc(ilabel, olabel, weight, dst))
        else:
            raise FormatError(f"expected 1, 2, 4, or 5 fields, got {len(fields)}", path, lineno)
        if not saw_line:
            fst.set_initial(state_of[ids[0]])
            saw_line = True

    if not saw_line:
        raise FormatError("empty lattice file (no initial state)", path)
    # Frozen first, so that the order validation sorts is kept for later searches.
    report = validate(fst.freeze(), kind)
    if not report.ok:
        raise FormatError("; ".join(report.errors), path)
    return fst


def write_lattice(fst: Wfst, path: str) -> None:
    """Serialize deterministically; the initial state is written first as 0."""
    if fst.initial == NO_STATE:
        raise FormatError("machine has no initial state", path)
    if not fst.arcs(fst.initial) and not fst.is_final(fst.initial):
        raise FormatError("the initial state has no arcs and is not final; nothing to write", path)
    order = [fst.initial] + [s for s in fst.states() if s != fst.initial]
    renumber = {old: new for new, old in enumerate(order)}
    lines: list[str] = []
    for old in order:
        new = renumber[old]
        arcs = sorted(fst.arcs(old),
                      key=lambda a: (a.ilabel, a.olabel, renumber[a.target], format_weight(a.weight)))
        for arc in arcs:
            wtext = format_weight(arc.weight)
            base = f"{new} {renumber[arc.target]} {arc.ilabel} {arc.olabel}"
            lines.append(f"{base} {wtext}" if wtext else base)
        fw = fst.final_weight(old)
        if fw is not None:
            wtext = format_weight(fw)
            lines.append(f"{new} {wtext}" if wtext else f"{new}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def paired_corpus_files(nmt_dir: str, hiero_dir: str) -> list[tuple[str, str, str]]:
    """Match ``<stem>.nmt.fst`` files with their ``<stem>.hiero.fst`` partners.

    Returns (stem, nmt path, hiero path) sorted by stem.  Every NMT file
    must have a partner; extra hiero files are ignored.
    """
    def stems(directory: str, suffix: str) -> dict[str, str]:
        out: dict[str, str] = {}
        for name in sorted(os.listdir(directory)):
            if name.endswith(suffix):
                out[name[: -len(suffix)]] = os.path.join(directory, name)
        return out

    nmt_files = stems(nmt_dir, ".nmt.fst")
    hiero_files = stems(hiero_dir, ".hiero.fst")
    if not nmt_files:
        raise FormatError("no *.nmt.fst files found", nmt_dir)
    pairs = []
    for stem, nmt_path in sorted(nmt_files.items()):
        hiero_path = hiero_files.get(stem)
        if hiero_path is None:
            raise FormatError(f"no matching {stem}.hiero.fst for {nmt_path}", hiero_dir)
        pairs.append((stem, nmt_path, hiero_path))
    return pairs


def write_report_lines(lines: Iterable[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
