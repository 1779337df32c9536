"""Text formats: lattices, symbol tables, vocabularies, parameter files.

Lattice files are line oriented.  Arc lines read ``src dst ilabel olabel
weight``; a line with one or two fields marks a final state and its
weight.  The weight field uses the weight text form (``id:value`` pairs,
empty for one) and may be omitted when it is one.  The first state
mentioned in the file is the initial state.  Labels are integers,
resolved against a symbol table file of ``word<TAB>id`` lines.

Files are UTF-8, with or without a leading byte order mark; a file that
does not decode raises :class:`FormatError`.  Blank lines and lines
starting with ``#`` are ignored everywhere, but counted: an error's line
number counts every line of the file, and a line ends at LF, CR LF or a
lone CR (universal newlines) and nowhere else.
Output ordering is deterministic: the initial state first (renumbered to
0), remaining states ascending, arcs sorted by (ilabel, olabel, target).
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Iterable, Iterator

from .errors import ContractError, FormatError
from .fst import (EPSILON_SYMBOL, LATTICE_KINDS, NO_STATE, UNK, UNK_SYMBOL, Row, SymbolTable,
                  Wfst, _keep, contract_errors, dense_arcs, topological_order)
from .pipeline import CombinationParams
from .semiring import (CANONICAL_EPS, HIERO_SCORE, NMT_SCORE, NUM_FEATURES, ONE, Dense,
                       FeatureWeight, format_weight, parse_values)


def _read_text(path: str) -> str:
    """The text of the file at ``path``, without a leading byte order mark
    and with its line ends read as LF (see above)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path) from None


def data_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
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
    """Write the table as :func:`read_symtab` reads it back.

    Raises :class:`FormatError`, before writing, for a word it would not
    read back: an empty one, one that starts with ``#``, white space or a
    byte order mark, or one that holds a tab or a line break.
    """
    lines = []
    for word, label in table.items():
        if not word or word[0] in "#\ufeff" or word[0].isspace() or any(c in word for c in "\t\n\r"):
            raise FormatError(f"word {word!r} (label {label}) would not read back", path)
        lines.append(f"{word}\t{label}\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def read_vocab(path: str, table: SymbolTable) -> frozenset[int]:
    """Load the NMT vocabulary (one word per line) as a label set.

    Unknown words are registered in the symbol table so membership tests
    stay total.  Duplicates and the UNK token are rejected.
    """
    seen: set[str] = set()
    vocab: set[int] = set()
    for lineno, line in data_lines(path):
        if line in seen:
            raise FormatError(f"duplicate vocabulary word {line!r}", path, lineno)
        if line in (UNK_SYMBOL, EPSILON_SYMBOL):
            raise FormatError(f"{line!r} is reserved and may not appear in a vocabulary", path, lineno)
        seen.add(line)
        vocab.add(table.add(line))
    return frozenset(vocab)


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
        if key in values and values[key].is_integer():
            values[key] = int(values[key])
    try:
        return CombinationParams(**values)
    except ContractError as exc:
        raise FormatError(str(exc), path) from None


# How a one-entry score weight's text starts (the fast path's literals take NMT_SCORE 0, HIERO_SCORE 1).
_ENTRY = {f"{NMT_SCORE}:": NMT_SCORE, f"{HIERO_SCORE}:": HIERO_SCORE}


def read_lattice(path: str, table: SymbolTable, kind: str = "generic") -> Wfst:
    """Parse a lattice file into a frozen machine.

    ``kind`` selects the contract, :func:`~latcomb.fst.contract_errors`;
    a violation raises :class:`FormatError` with every message.  Each
    line is checked as it is read.  The common line, an arc whose labels
    are in canonical text and whose weight is one finite NMT or hiero
    score, takes a fast path that looks labels (in ``table``) and states
    up by their text; any other line, such as ``07`` or ``+7`` for label
    7, is parsed in full, with the same result.  Only a line that breaks
    the contract, a missing final state or a cycle makes the reader walk
    the machine for the messages; a clean file keeps its empty error
    list, so ``combine`` does not check it again.  The machine also keeps
    :func:`~latcomb.fst.dense_arcs`, learned while parsing.
    """
    text = _read_text(path)
    # The kind's score feature and the one no arc may carry, None when arcs
    # are not checked; and the label no arc may carry (NO_STATE is none).
    score = {"nmt": NMT_SCORE, "hiero": HIERO_SCORE}.get(kind)
    foreign = {"nmt": HIERO_SCORE, "hiero": NMT_SCORE}.get(kind)
    banned = UNK if kind == "hiero" else NO_STATE
    # File state ids are numbered by first mention, so the initial state is
    # 0; the fast path finds a state by its text, parsing each text once.
    state_of: dict[int, int] = {}
    state_of_text: dict[str, int] = {}

    def state(text: str) -> int:
        sid = state_of_text[text] = state_of.setdefault(int(text), len(state_of))
        return sid

    rows_of: defaultdict[int, list[Row]] = defaultdict(list)
    finals: dict[int, FeatureWeight] = {}
    zero = False
    suspect = kind not in LATTICE_KINDS  # contract_errors rejects the kind
    known = table._label_to_word
    label_of = table._label_of_text
    # Not splitlines(), which also splits at other characters (see above).
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        try:
            # The common line, parsed here; any other line, errors included, below.
            a, b, c, d, w = fields
            il, ol, fid, x = label_of[c], label_of[d], _ENTRY[w[:2]], float(w[2:])
            src = state_of_text[a] if a in state_of_text else state(a)
            dst = state_of_text[b] if b in state_of_text else state(b)
            fast = x - x == 0.0  # finite
        except (ValueError, KeyError):
            fast = False
        if fast:
            if -CANONICAL_EPS < x < CANONICAL_EPS:
                values: Dense | None = ONE.values
            else:
                values = (x, 0.0, 0.0, 0.0, 0.0) if fid == NMT_SCORE else (0.0, x, 0.0, 0.0, 0.0)
                suspect = suspect or fid == foreign
            rows_of[src].append((dst, il, ol, values))
            if score is not None and (il != ol or il == banned):
                suspect = True
            continue
        n = len(fields)
        if not fields or fields[0][0] == "#":
            continue
        try:
            # A final line's second field is its weight, not a state.
            ids = list(map(int, fields[: 1 if n == 2 else 4]))
        except ValueError:
            raise FormatError(f"non-integer field in {line.strip()!r}", path, lineno) from None
        if n not in (1, 2, 4, 5):
            raise FormatError(f"expected 1, 2, 4, or 5 fields, got {n}", path, lineno)
        if n > 2 and not (ids[2] in known and ids[3] in known):
            label = ids[3] if ids[2] in known else ids[2]
            raise FormatError(f"label {label} is not in the symbol table", path, lineno)
        values = ONE.values
        if n == 2 or n == 5:
            try:
                values = parse_values(fields[-1])
            except ValueError as exc:
                raise FormatError(str(exc), path, lineno) from None
        if score is not None and values is not None \
                and values.count(0.0) + (values[score] != 0.0) != NUM_FEATURES:
            suspect = True  # a feature other than the kind's score
        src = state_of.setdefault(ids[0], len(state_of))
        if n > 2:
            il, ol = ids[2], ids[3]
            rows_of[src].append((state_of.setdefault(ids[1], len(state_of)), il, ol, values))
            if values is None:
                zero = True
            if score is not None and (il != ol or il == banned):
                suspect = True
        elif values is None:
            raise FormatError("a final weight of INF means 'not final'; drop the line instead",
                              path, lineno)
        else:
            finals[src] = FeatureWeight(values)
    if not state_of:
        raise FormatError("empty lattice file (no initial state)", path)
    fst = Wfst.frozen_from(table, [rows_of[s] for s in range(len(state_of))], finals, 0)
    if not zero:
        _keep(fst, dense_arcs, fst._arcs)
    if suspect or not finals or (score is not None and topological_order(fst) is None):
        errors = contract_errors(fst, kind)
        if errors:
            raise FormatError("; ".join(errors), path)
    else:
        _keep(fst, contract_errors, (), kind)
    return fst


def write_lattice(fst: Wfst, path: str) -> None:
    """Serialize deterministically; the initial state is written first as 0."""
    if fst.initial == NO_STATE:
        raise FormatError("machine has no initial state", path)
    if not fst.rows(fst.initial) and not fst.is_final(fst.initial):
        raise FormatError("the initial state has no arcs and is not final; nothing to write", path)
    order = [fst.initial] + [s for s in fst.states() if s != fst.initial]
    renumber = {old: new for new, old in enumerate(order)}
    lines: list[str] = []
    for old in order:
        new = renumber[old]
        for ilabel, olabel, target, wtext in sorted(
                (a.ilabel, a.olabel, renumber[a.target], format_weight(a.weight))
                for a in fst.arcs(old)):
            lines.append(f"{new} {target} {ilabel} {olabel} {wtext}".rstrip())
        fw = fst.final_weight(old)
        if fw is not None:
            lines.append(f"{new} {format_weight(fw)}".rstrip())
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
