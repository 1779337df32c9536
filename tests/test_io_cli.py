import random

import pytest

from latcomb import (
    EPSILON,
    ONE,
    UNK,
    ZERO,
    Arc,
    FormatError,
    ParamVector,
    SymbolTable,
    Wfst,
    weight,
)
from latcomb import lattice_io
from latcomb.cli import cli_main
from latcomb.fst import LATTICE_KINDS, contract_errors, dense_arcs, topological_order
from latcomb.lattice_io import (
    paired_corpus_files,
    read_lattice,
    read_params,
    read_symtab,
    read_vocab,
    write_lattice,
    write_symtab,
)
from latcomb.semiring import HIERO_SCORE, NMT_SCORE

from helpers import (
    acceptor_from_sentences,
    child_env,
    contract_test_machine,
    grid_weight,
    holds_negative,
    is_one,
    path_signature,
    random_dag_lattice,
)

UNIT = ParamVector(1.0, 1.0, 1.0, 1.0, 1.0)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- symbol tables, vocab, params ------------------------------------


def test_symtab_round_trip(tmp_path):
    syms = SymbolTable()
    for w in ("der", "plan", "gross"):
        syms.add(w)
    path = tmp_path / "words.sym"
    write_symtab(syms, str(path))
    loaded = read_symtab(str(path))
    assert loaded.same_mapping(syms)


def test_symtab_rejects_conflicts(tmp_path):
    path = write(tmp_path / "bad.sym", "wort\t2\nanders\t2\n")
    with pytest.raises(FormatError) as err:
        read_symtab(path)
    assert "bad.sym:2" in str(err.value)


def test_symtab_rejects_reserved_conflict(tmp_path):
    path = write(tmp_path / "bad.sym", "wort\t0\n")
    with pytest.raises(FormatError):
        read_symtab(path)


def test_symtab_writer_rejects_words_the_reader_would_not_read_back(tmp_path):
    # A comment mark or leading white space would be read as a comment or
    # stripped; a tab or a line break would split the line.
    for word in ("#tag", " haus", "\thaus", "ha\tus", "ha\nus", "ha\rus", "\ufeffhaus"):
        syms = SymbolTable()
        label = syms.add(word)
        path = tmp_path / "words.sym"
        with pytest.raises(FormatError) as err:
            write_symtab(syms, str(path))
        assert repr(word) in str(err.value) and f"label {label}" in str(err.value)
        assert not path.exists()
    syms = SymbolTable()
    for word in ("haus#", "ha us", "haus ", "Straße", "a\u2028b"):
        syms.add(word)
    write_symtab(syms, str(tmp_path / "words.sym"))
    assert read_symtab(str(tmp_path / "words.sym")).same_mapping(syms)


def test_a_byte_order_mark_is_not_read_as_text(tmp_path):
    # A UTF-8 byte order mark is not part of a file's first word, key or
    # state: the vocabulary's haus is the table's, not a new label.
    bom = "\ufeff"
    syms = read_symtab(write(tmp_path / "words.sym", f"{bom}haus\t2\nbaum\t3\n"))
    assert (syms.label("haus"), syms.label("baum"), len(syms)) == (2, 3, 4)
    assert read_vocab(write(tmp_path / "vocab.txt", f"{bom}haus\n"), syms) == {2}
    assert len(syms) == 4
    assert read_params(write(tmp_path / "params.cfg", bom + PARAMS_TEXT)) == \
        read_params(write(tmp_path / "plain.cfg", PARAMS_TEXT))
    text = "0 1 2 2 0:0.5\n1 2 3 3\n2\n"
    marked = read_lattice(write(tmp_path / "bom.fst", bom + text), syms, kind="nmt")
    plain = read_lattice(write(tmp_path / "plain.fst", text), syms, kind="nmt")
    assert (marked.num_states, marked.initial) == (3, 0)
    assert dense_arcs(marked) == dense_arcs(plain)
    assert dict(marked.finals()) == dict(plain.finals())


def test_vocab_loading(tmp_path):
    syms = SymbolTable()
    path = write(tmp_path / "vocab.txt", "der\nplan\n")
    labels = read_vocab(path, syms)
    assert labels == {syms.label("der"), syms.label("plan")}


def test_vocab_rejects_duplicates_and_unk(tmp_path):
    syms = SymbolTable()
    dup = write(tmp_path / "dup.txt", "der\nder\n")
    with pytest.raises(FormatError):
        read_vocab(dup, syms)
    unk = write(tmp_path / "unk.txt", "UNK\n")
    with pytest.raises(FormatError):
        read_vocab(unk, syms)


PARAMS_TEXT = """\
# combination parameters
lambda_nmt=1.0
lambda_hiero=1.0
lambda_sub=2.0
lambda_edit=5.0
lambda_ins=1.0
max_unk_run=3
hiero_node_budget=100000
"""


def test_params_loading(tmp_path):
    params = read_params(write(tmp_path / "p.cfg", PARAMS_TEXT))
    assert params.lambda_edit == 5.0
    assert params.max_unk_run == 3
    assert params.hiero_node_budget == 100_000


def test_params_missing_key_names_it(tmp_path):
    text = PARAMS_TEXT.replace("lambda_ins=1.0\n", "")
    with pytest.raises(FormatError) as err:
        read_params(write(tmp_path / "p.cfg", text))
    assert "lambda_ins" in str(err.value)


def test_params_ordering_constraint(tmp_path):
    text = PARAMS_TEXT.replace("lambda_sub=2.0", "lambda_sub=5.0")
    with pytest.raises(FormatError) as err:
        read_params(write(tmp_path / "p.cfg", text))
    assert "lambda_edit" in str(err.value)


def test_params_negative_lambda(tmp_path):
    text = PARAMS_TEXT.replace("lambda_nmt=1.0", "lambda_nmt=-1.0")
    with pytest.raises(FormatError) as err:
        read_params(write(tmp_path / "p.cfg", text))
    assert "nonnegative" in str(err.value)


def test_params_integer_keys(tmp_path):
    text = PARAMS_TEXT.replace("max_unk_run=3", "max_unk_run=3.0")
    assert type(read_params(write(tmp_path / "p.cfg", text)).max_unk_run) is int
    for key, bad in (("max_unk_run", "2.5"), ("max_unk_run", "inf"),
                     ("hiero_node_budget", "nan"), ("hiero_node_budget", "0")):
        text = "".join(line for line in PARAMS_TEXT.splitlines(keepends=True)
                       if not line.startswith(key)) + f"{key}={bad}\n"
        with pytest.raises(FormatError) as err:
            read_params(write(tmp_path / "p.cfg", text))
        assert key in str(err.value)


def test_params_unknown_key(tmp_path):
    with pytest.raises(FormatError):
        read_params(write(tmp_path / "p.cfg", PARAMS_TEXT + "mystery=1\n"))


# -- lattice files ----------------------------------------------------


def symtab_file(tmp_path, syms):
    path = tmp_path / "table.sym"
    write_symtab(syms, str(path))
    return str(path)


def test_lattice_chain_round_trip(tmp_path):
    syms = SymbolTable()
    a, b, c = syms.add("a"), syms.add("b"), syms.add("c")
    text = f"0 1 {a} {a} 0:1.5\n1 2 {b} {b}\n2 3 {c} {c}\n3 0:0.5\n"
    path = write(tmp_path / "chain.fst", text)
    fst = read_lattice(path, syms, kind="nmt")
    assert fst.num_states == 4
    assert fst.final_weight(3) == weight({0: 0.5})
    assert fst.frozen
    out = tmp_path / "chain2.fst"
    write_lattice(fst, str(out))
    again = read_lattice(str(out), syms, kind="nmt")
    assert path_signature(again, UNIT) == path_signature(fst, UNIT)


def test_lattice_rejects_unk_in_hiero(tmp_path):
    syms = SymbolTable()
    path = write(tmp_path / "h.fst", f"0 1 {UNK} {UNK}\n1\n")
    with pytest.raises(FormatError) as err:
        read_lattice(path, syms, kind="hiero")
    assert "UNK" in str(err.value)
    # the same file is fine as an NMT lattice
    assert read_lattice(path, syms, kind="nmt").num_states == 2


def test_lattice_rejects_cycle_for_lattice_kinds(tmp_path):
    syms = SymbolTable()
    a = syms.add("a")
    path = write(tmp_path / "c.fst", f"0 0 {a} {a}\n0\n")
    with pytest.raises(FormatError):
        read_lattice(path, syms, kind="nmt")
    assert read_lattice(path, syms, kind="generic").num_states == 1


def test_lattice_error_carries_line_number(tmp_path):
    syms = SymbolTable()
    a = syms.add("a")
    path = write(tmp_path / "bad.fst", f"0 1 {a} {a}\nboom\n")
    with pytest.raises(FormatError) as err:
        read_lattice(path, syms)
    assert "bad.fst:2" in str(err.value)


def test_lattice_unknown_symbol(tmp_path):
    syms = SymbolTable()
    path = write(tmp_path / "bad.fst", "0 1 99 99\n1\n")
    with pytest.raises(FormatError) as err:
        read_lattice(path, syms)
    assert "99" in str(err.value)


def test_lattice_empty_file(tmp_path):
    syms = SymbolTable()
    path = write(tmp_path / "empty.fst", "# nothing\n")
    with pytest.raises(FormatError):
        read_lattice(path, syms)


# Every reader error as (kind, the offending line or None for a whole-file
# error, the file's other lines, the message).  Labels 2 and 3 are known.
READER_ERRORS = {
    "non-integer": ("generic", "0 x 2 2", [], "non-integer field in '0 x 2 2'"),
    "three-fields": ("generic", "0 1 2", [], "expected 1, 2, 4, or 5 fields, got 3"),
    "three-fields-non-integer": ("generic", "0 1 x", [], "non-integer field in '0 1 x'"),
    "six-fields": ("generic", "0 1 2 2 0:1 x", [], "expected 1, 2, 4, or 5 fields, got 6"),
    "unknown-ilabel": ("generic", "0 1 99 2", [], "label 99 is not in the symbol table"),
    "unknown-olabel": ("generic", "0 1 2 98", [], "label 98 is not in the symbol table"),
    "unknown-both-labels": ("generic", "0 1 99 98", [], "label 99 is not in the symbol table"),
    "unknown-label-bad-weight": ("generic", "0 1 2 98 0:x", [],
                                 "label 98 is not in the symbol table"),
    "weight-no-colon": ("generic", "0 1 2 2 1.5", [], "malformed weight entry '1.5'"),
    "weight-bad-number": ("generic", "0 1 2 2 0:1x", [], "malformed weight entry '0:1x'"),
    "weight-duplicate-id": ("generic", "0 1 2 2 0:1,0:2", [], "duplicate feature id 0 in weight"),
    "weight-id-7": ("generic", "0 1 2 2 7:1", [], "feature id must be one of 0..4, got 7"),
    "weight-nan": ("generic", "0 1 2 2 0:nan", [],
                   "feature values must be finite, got nan for id 0"),
    "weight-inf": ("generic", "0 1 2 2 0:inf", [],
                   "feature values must be finite, got inf for id 0"),
    "unknown-label-other-text": ("generic", "0 1 2 +99 0:1", [],
                                 "label 99 is not in the symbol table"),
    "negative-label": ("hiero", "0 1 -1 -1 1:0.5", [], "label -1 is not in the symbol table"),
    "final-weight-bad-number": ("generic", "1 1:x", [], "malformed weight entry '1:x'"),
    "final-inf": ("generic", "1 INF", [],
                  "a final weight of INF means 'not final'; drop the line instead"),
    "comment-only": ("generic", None, ["# nothing"], "empty lattice file (no initial state)"),
    "joined-contract-errors": ("nmt", None, ["0 1 2 3 0:1"],
                               "no final state; arc 0->1 is not acceptor-form "
                               "(ilabel 2 != olabel 3)"),
}

# Lines before the error that the reader skips, then ones it accepts; the
# comment holds characters that str.splitlines() would break a line at.
SKIPPED = ["", "# comment", "   ", "# \x0b\x0c\x1c\x85\u2028 one line", "\t"]
NOISE = SKIPPED + ["\t0 1 2 2 0:1  ", ""]


def test_reader_reports_contract_errors_in_state_order(tmp_path):
    # The reader notices a broken contract line by line, but its messages
    # come in state order: the arc 0->3 is on the last arc line, and its
    # message comes before the one for 1->2.
    syms = SymbolTable()
    syms.add_pair("a", 2)
    syms.add_pair("b", 3)
    path = tmp_path / "m.fst"
    path.write_text("0 1 2 3\n1 2 2 3\n0 3 3 2\n2\n3\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_lattice(str(path), syms, kind="nmt")
    assert str(err.value) == (f"{path}: arc 0->1 is not acceptor-form (ilabel 2 != olabel 3); "
                              "arc 0->3 is not acceptor-form (ilabel 3 != olabel 2); "
                              "arc 1->2 is not acceptor-form (ilabel 2 != olabel 3)")


def test_an_inf_arc_is_kept_but_not_searched(tmp_path):
    # An INF arc is part of the machine (its arcs, its arc count, the
    # file it writes) but not of what the searches read.
    syms = SymbolTable()
    a, b = syms.add("a"), syms.add("b")
    path = tmp_path / "h.fst"
    path.write_text(f"0 1 {a} {a} 1:0.5\n0 1 {b} {b} INF\n1\n", encoding="utf-8")
    hiero = read_lattice(str(path), syms, kind="hiero")
    assert hiero.arcs(0) == (Arc(a, a, weight({1: 0.5}), 1), Arc(b, b, ZERO, 1))
    assert hiero.num_arcs == 2
    assert dense_arcs(hiero) == (((1, a, a, (0.0, 0.5, 0.0, 0.0, 0.0)),), ())
    out = tmp_path / "out.fst"
    write_lattice(hiero, str(out))
    assert out.read_text(encoding="utf-8") == f"0 1 {a} {a} 1:0.5\n0 1 {b} {b} INF\n1\n"
    again = read_lattice(str(out), syms, kind="hiero")
    assert _structure(again) == _structure(hiero)
    assert dense_arcs(again) == dense_arcs(hiero)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("noisy", [False, True], ids=["bare", "noisy"])
@pytest.mark.parametrize("case", sorted(READER_ERRORS))
def test_reader_error_messages_and_line_numbers(tmp_path, case, noisy, ending):
    kind, bad_line, other_lines, message = READER_ERRORS[case]
    syms = SymbolTable()
    syms.add_pair("a", 2)
    syms.add_pair("b", 3)
    before = (NOISE if bad_line is not None else SKIPPED) if noisy else []
    lines = before + other_lines
    if bad_line is not None:
        lines = lines + [f"  {bad_line}\t" if noisy else bad_line, "1"]
    path = tmp_path / "bad.fst"
    path.write_bytes(ending.join(lines + [""]).encode("utf-8"))
    with pytest.raises(FormatError) as err:
        read_lattice(str(path), syms, kind=kind)
    if bad_line is None:
        assert (str(err.value), err.value.line) == (f"{path}: {message}", None)
    else:
        lineno = len(before) + 1
        assert (str(err.value), err.value.line) == (f"{path}:{lineno}: {message}", lineno)


def test_write_requires_initial(tmp_path):
    from latcomb import Wfst

    fst = Wfst()
    fst.add_state()
    fst.freeze()
    with pytest.raises(FormatError):
        write_lattice(fst, str(tmp_path / "x.fst"))


def test_round_trip_random_lattices(tmp_path):
    rng = random.Random(313131)
    for i in range(25):
        syms = SymbolTable()
        lattice = random_dag_lattice(rng, syms, score_feature=0, max_paths=40)
        path = tmp_path / f"r{i}.fst"
        write_lattice(lattice, str(path))
        loaded = read_lattice(str(path), syms, kind="nmt")
        assert path_signature(loaded, UNIT) == path_signature(lattice, UNIT)
        # a second round trip is byte-stable once states settle
        path2 = tmp_path / f"r{i}b.fst"
        write_lattice(loaded, str(path2))
        reloaded = read_lattice(str(path2), syms, kind="nmt")
        path3 = tmp_path / f"r{i}c.fst"
        write_lattice(reloaded, str(path3))
        assert path3.read_text() == path2.read_text()


def _read_through_public_api(path, syms):
    """The reader's slow reference: states and arcs added one by one
    through the checked builder API, every weight built by weight()."""
    fst = Wfst(syms, syms)
    state_of = {}

    def state(field):
        if int(field) not in state_of:
            state_of[int(field)] = fst.add_state()
        return state_of[int(field)]

    def slow_weight(text):
        if text == "INF":
            return ZERO
        return weight({int(k): float(v) for k, v in (e.split(":") for e in text.split(","))})

    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            src = state(fields[0])
            if len(fields) >= 4:
                w = slow_weight(fields[4]) if len(fields) == 5 else ONE
                fst.add_arc(src, Arc(int(fields[2]), int(fields[3]), w, state(fields[1])))
            else:
                fst.set_final(src, slow_weight(fields[1]) if len(fields) == 2 else ONE)
    fst.set_initial(0)
    return fst.freeze()


def _random_weight(rng):
    if rng.random() < 0.5:
        return grid_weight(rng)  # several entries, negatives, ZERO
    value = rng.choice([rng.uniform(-2.0, 2.0), 1e-16, -1e-16, 1e-15, -0.0, 1e300, 0.1])
    return weight({rng.randrange(5): value})


def _random_machine(rng, syms):
    """Any small machine: cycles, epsilon and UNK labels, ZERO arcs."""
    words = [syms.add(w) for w in ("a", "b", "c")]
    m = Wfst(syms, syms)
    n = rng.randint(1, 5)
    for _ in range(n):
        m.add_state()
    m.set_initial(rng.randrange(n))
    labels = words + [EPSILON, UNK]
    for k in range(rng.randint(1, 8)):
        src = m.initial if k == 0 else rng.randrange(n)  # write_lattice needs an initial arc
        m.add_arc(src, Arc(rng.choice(labels), rng.choice(labels), _random_weight(rng),
                           rng.randrange(n)))
    for s in rng.sample(range(n), rng.randint(0, n)):
        m.set_final(s, _random_weight(rng))
    return m.freeze()


def _structure(fst):
    def bits(w):
        return w.infinite, tuple(v.hex() for v in w.values)

    return (fst.initial, [(s, bits(w)) for s, w in fst.finals()],
            [[(a.ilabel, a.olabel, a.target, bits(a.weight)) for a in fst.arcs(s)]
             for s in fst.states()])


def test_reader_matches_a_machine_built_through_the_public_api(tmp_path):
    rng = random.Random(1313)
    path = str(tmp_path / "m.fst")
    # Written by hand, since write_lattice writes canonical values: a
    # negative final weight, and scores of -1e-16 and -0.0, which read as 0.0.
    signed = [("1:0.5", "1:-0.25"), ("1:-1e-16", "1:0.5"), ("1:-1e-16", "1:-0.0"),
              ("1:-0.5", "1:1e-16")]
    for i in range(300 + len(signed)):
        syms = SymbolTable()
        if i >= 300:
            a = syms.add("a")
            with open(path, "w", encoding="utf-8") as handle:
                arc, final = signed[i - 300]
                handle.write(f"0 1 {a} {a} {arc}\n1 {final}\n")
        elif i % 2:
            write_lattice(contract_test_machine(rng, syms, rng.choice([NMT_SCORE, HIERO_SCORE])),
                          path)
        else:
            write_lattice(_random_machine(rng, syms), path)
        reference = _read_through_public_api(path, syms)
        weights = ([a.weight for s in reference.states() for a in reference.arcs(s)]
                   + [w for _, w in reference.finals()])
        for kind in LATTICE_KINDS:
            expected = contract_errors(reference, kind)
            if kind != "generic":  # one error per weight with a feature not the kind's own
                score = NMT_SCORE if kind == "nmt" else HIERO_SCORE
                foreign = sum(any(v and fid != score for fid, v in enumerate(w.values))
                              for w in weights)
                assert foreign == sum("carries feature id" in e for e in expected)
            try:
                read = read_lattice(path, syms, kind=kind)
            except FormatError as exc:
                assert str(exc) == f"{path}: {'; '.join(expected)}"
                assert expected
                continue
            assert not expected
            assert read.frozen
            assert _structure(read) == _structure(reference)
            assert read.num_arcs == reference.num_arcs
            assert dense_arcs(read) == dense_arcs(reference)  # kept while reading
            assert topological_order(read) == topological_order(reference)
            assert holds_negative(read) == holds_negative(reference)
            if i >= 300:
                assert holds_negative(read) == (i in (300, 303))
            assert contract_errors(read, kind) == expected


def test_reader_reads_labels_and_states_in_any_integer_text(tmp_path):
    # The fast path looks arc labels up by their canonical text, and states
    # by their text; labels in other text (+7, 07, 7_0 for 70, -0) take the
    # full parse, and a state's texts all name one state, so every
    # spelling reads the same.
    syms = SymbolTable()
    syms.add_pair("w", 7)
    syms.add_pair("x", 70)
    spellings = {"0": ["-0", "+0", "00", "0_0"], "1": ["+1", "01"], "2": ["02"], "3": ["+3", "03"],
                 "7": ["+7", "07", "0_7"], "70": ["7_0", "+070"]}
    path = tmp_path / "m.fst"

    def read(lines, kind):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fst = read_lattice(str(path), syms, kind=kind)
        return _structure(fst), dense_arcs(fst), holds_negative(fst), topological_order(fst)

    variants = 0
    for kind in LATTICE_KINDS:
        f = NMT_SCORE if kind == "nmt" else HIERO_SCORE
        canonical = [f"0 1 7 7 {f}:0.5", f"1 2 70 70 {f}:-0.25", f"2 3 0 0 {f}:1e-16", "3"]
        expected = read(canonical, kind)
        for i, line in enumerate(canonical):
            fields = line.split()
            for j, field in enumerate(fields[:4]):
                for text in spellings.get(field, []):
                    lines = list(canonical)
                    lines[i] = " ".join(fields[:j] + [text] + fields[j + 1:])
                    assert read(lines, kind) == expected, lines[i]
                    variants += 1
    assert variants == 3 * 32


def test_reader_finds_words_added_after_a_read(tmp_path, monkeypatch):
    # The symbol table keeps its label texts in step with add and add_pair,
    # so a word registered after a read (as read_vocab and read_symtab do)
    # is found on the next read's fast path.
    syms = SymbolTable()
    a = syms.add("a")
    path = tmp_path / "h.fst"
    path.write_text(f"0 1 {a} {a} 1:0.5\n1 2 40 40 1:0.25\n2\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_lattice(str(path), syms, kind="hiero")
    assert (str(err.value), err.value.line) == (f"{path}:2: label 40 is not in the symbol table", 2)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("b\n", encoding="utf-8")
    (b,) = read_vocab(str(vocab), syms)
    syms.add_pair("c", 40)

    def full_parse(text):
        raise AssertionError(f"weight {text!r} was parsed in full")

    monkeypatch.setattr(lattice_io, "parse_values", full_parse)  # arc lines take the fast path
    path.write_text(f"0 1 {b} {b} 1:0.5\n1 2 40 40 1:0.25\n2\n", encoding="utf-8")
    hiero = read_lattice(str(path), syms, kind="hiero")
    assert [r[1] for rows in dense_arcs(hiero) for r in rows] == [b, 40]
    table = read_symtab(symtab_file(tmp_path, syms))
    assert read_lattice(str(path), table, kind="hiero").num_arcs == 2


# -- CLI ---------------------------------------------------------------


@pytest.fixture
def worked_files(tmp_path):
    syms = SymbolTable()
    nmt = acceptor_from_sentences(syms, ["die UNK Politik"], score_feature=0, scores=[1.0])
    hiero = acceptor_from_sentences(syms, ["die regionale Politik", "der Plan"],
                                    score_feature=1, scores=[2.0, 1.0])
    files = {
        "nmt": str(tmp_path / "s.nmt.fst"),
        "hiero": str(tmp_path / "s.hiero.fst"),
        "symtab": symtab_file(tmp_path, syms),
        "vocab": write(tmp_path / "vocab.txt", "die\nPolitik\nder\nPlan\n"),
        "params": write(tmp_path / "params.cfg", PARAMS_TEXT),
        "tmp": tmp_path,
    }
    write_lattice(nmt, files["nmt"])
    write_lattice(hiero, files["hiero"])
    return files


def combine_args(files, extra=()):
    return ["combine",
            "--nmt-lattice", files["nmt"], "--hiero-lattice", files["hiero"],
            "--vocab", files["vocab"], "--params", files["params"],
            "--symtab", files["symtab"], *extra]


def test_cli_combine_prints_sentence(worked_files, capsys):
    assert cli_main(combine_args(worked_files)) == 0
    assert capsys.readouterr().out.strip() == "die regionale Politik"


def test_cli_combine_report(worked_files, capsys):
    report_path = worked_files["tmp"] / "report.txt"
    assert cli_main(combine_args(worked_files, ["--report", str(report_path)])) == 0
    capsys.readouterr()
    report = dict(line.split("=", 1) for line in report_path.read_text().splitlines())
    assert report["t_comb"] == "die regionale Politik"
    assert float(report["total_cost"]) == pytest.approx(3.0)
    assert report["exact_match"] == "true"


def test_cli_oracle_combine_agrees(worked_files, capsys):
    args = ["oracle-combine",
            "--nmt-lattice", worked_files["nmt"], "--hiero-lattice", worked_files["hiero"],
            "--vocab", worked_files["vocab"], "--params", worked_files["params"],
            "--symtab", worked_files["symtab"]]
    assert cli_main(args) == 0
    assert capsys.readouterr().out.strip() == "die regionale Politik"


def test_cli_usage_errors_exit_one(capsys):
    assert cli_main([]) == 1
    assert cli_main(["no-such-command"]) == 1
    assert cli_main(["combine"]) == 1
    capsys.readouterr()


def test_cli_data_errors_exit_two(worked_files, capsys):
    bad = dict(worked_files)
    bad["params"] = write(worked_files["tmp"] / "bad.cfg", "lambda_nmt=1\n")
    assert cli_main(combine_args(bad)) == 2
    capsys.readouterr()


def test_cli_missing_file_exits_two(worked_files, capsys):
    bad = dict(worked_files)
    bad["nmt"] = str(worked_files["tmp"] / "missing.fst")
    assert cli_main(combine_args(bad)) == 2
    capsys.readouterr()


def test_cli_rejects_a_file_that_is_not_utf8(worked_files, capsys):
    # A Latin-1 byte is a data error naming the file, not a traceback.
    for role in ("lattice", "symtab"):
        bad = worked_files["tmp"] / f"latin1.{role}"
        bad.write_bytes(b"# gr\xfc\xdf\n0\n")
        paths = {"lattice": worked_files["hiero"], "symtab": worked_files["symtab"], role: str(bad)}
        assert cli_main(["validate", paths["lattice"], "--symtab", paths["symtab"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "not UTF-8" in err


def test_cli_validate(worked_files, tmp_path, capsys):
    assert cli_main(["validate", worked_files["hiero"],
                     "--symtab", worked_files["symtab"], "--kind", "hiero"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out

    syms = read_symtab(worked_files["symtab"])
    a = syms.label("die")
    cyc = write(tmp_path / "cyc.fst", f"0 0 {a} {a}\n0\n")
    assert cli_main(["validate", cyc, "--symtab", worked_files["symtab"], "--kind", "nmt"]) == 2
    assert "cycle" in capsys.readouterr().out


def test_cli_shortest_path_and_nbest(worked_files, capsys):
    assert cli_main(["shortest-path", worked_files["hiero"],
                     "--symtab", worked_files["symtab"], "--params", worked_files["params"],
                     "--show-cost"]) == 0
    out = capsys.readouterr().out.strip()
    cost, sentence = out.split("\t")
    assert sentence == "der Plan"
    assert float(cost) == pytest.approx(1.0)

    assert cli_main(["nbest", worked_files["hiero"], "5",
                     "--symtab", worked_files["symtab"], "--params", worked_files["params"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [l.split("\t")[1] for l in lines] == ["der Plan", "die regionale Politik"]


def test_cli_build_edit_fst_and_compose(tmp_path, capsys):
    vocab = write(tmp_path / "v.txt", "oft\n")
    alphabet = write(tmp_path / "a.txt", "selten\n")
    flower_path = str(tmp_path / "flower.fst")
    symtab_path = str(tmp_path / "flower.sym")
    assert cli_main(["build-edit-fst", "--vocab", vocab, "--alphabet", alphabet,
                     "--output", flower_path, "--write-symtab", symtab_path]) == 0
    syms = read_symtab(symtab_path)
    flower = read_lattice(flower_path, syms, kind="generic")
    assert flower.num_states == 1
    arcs = {(a.ilabel, a.olabel): a.weight for a in flower.arcs(0)}
    assert is_one(arcs[(UNK, syms.label("selten"))])
    assert arcs[(UNK, syms.label("oft"))] == weight({3: 1.0})

    # compose a one-word acceptor with the flower via the CLI
    a = syms.label("oft")
    acc = write(tmp_path / "acc.fst", f"0 1 {a} {a}\n1\n")
    out_path = str(tmp_path / "composed.fst")
    assert cli_main(["compose", acc, flower_path, "--symtab", symtab_path,
                     "--output", out_path]) == 0
    composed = read_lattice(out_path, syms, kind="generic")
    assert composed.num_states >= 2
    capsys.readouterr()


def test_cli_build_edit_fst_rejects_reserved_vocabulary_words(tmp_path, capsys):
    for reserved in ("UNK", "<eps>"):
        vocab = write(tmp_path / "v.txt", f"oft\n{reserved}\n")
        assert cli_main(["build-edit-fst", "--vocab", vocab,
                         "--output", str(tmp_path / "flower.fst")]) == 2
        assert "reserved" in capsys.readouterr().err


def test_cli_compose_overflow_exits_with_contract_error(tmp_path, capsys):
    syms = SymbolTable()
    a = syms.add("a")
    symtab = str(tmp_path / "s.sym")
    write_symtab(syms, symtab)
    big = write(tmp_path / "big.fst", f"0 1 {a} {a} 0:1e308\n1\n")
    assert cli_main(["compose", big, big, "--symtab", symtab,
                     "--output", str(tmp_path / "out.fst")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_standard_edit_fst(tmp_path, capsys):
    vocab = write(tmp_path / "v.txt", "eins\nzwei\n")
    flower_path = str(tmp_path / "flower.fst")
    symtab_path = str(tmp_path / "flower.sym")
    assert cli_main(["build-edit-fst", "--vocab", vocab, "--standard",
                     "--output", flower_path, "--write-symtab", symtab_path]) == 0
    syms = read_symtab(symtab_path)
    flower = read_lattice(flower_path, syms, kind="generic")
    assert len(flower.arcs(0)) == 8
    capsys.readouterr()


def test_cli_prune(tmp_path, capsys):
    syms = SymbolTable()
    lattice = acceptor_from_sentences(syms, ["a b", "c d", "e f"], score_feature=1,
                                      scores=[0.5, 1.0, 2.0])
    lat_path = str(tmp_path / "l.fst")
    write_lattice(lattice, lat_path)
    symtab = symtab_file(tmp_path, syms)
    params = write(tmp_path / "p.cfg", PARAMS_TEXT)
    out_path = str(tmp_path / "pruned.fst")
    assert cli_main(["prune", lat_path, "--symtab", symtab, "--params", params,
                     "--budget", "4", "--output", out_path]) == 0
    pruned = read_lattice(out_path, syms, kind="hiero")
    assert pruned.num_states <= 4
    capsys.readouterr()


def test_cli_output_is_byte_identical_across_processes(worked_files):
    import subprocess
    import sys
    from pathlib import Path

    # The child imports the checkout under test, wherever pytest was started.
    root = Path(__file__).resolve().parents[1]
    report = worked_files["tmp"] / "determinism-report.txt"
    code = ("import sys; from latcomb.cli import cli_main; "
            "sys.exit(cli_main(sys.argv[1:]))")
    cmd = [sys.executable, "-c", code] + combine_args(worked_files, ["--report", str(report)])
    runs = []
    for seed in ("0", "31337"):
        # Each run must compare the report it wrote itself, not a leftover.
        report.unlink(missing_ok=True)
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src")),
                              cwd=root)
        assert proc.returncode == 0, proc.stderr
        assert report.exists(), "run with PYTHONHASHSEED=%s wrote no report" % seed
        runs.append((proc.stdout, report.read_text()))
    assert runs[0] == runs[1]


def test_cli_runs_as_a_module(worked_files, tmp_path):
    # From a copy of the package, which must hold no bytecode afterwards.
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    copy = tmp_path / "src"
    shutil.copytree(root / "src" / "latcomb", copy / "latcomb",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = child_env(PYTHONPATH=str(copy))
    cmd = [sys.executable, "-m", "latcomb.cli", "validate", "--symtab", worked_files["symtab"],
           "--kind", "hiero"]
    ok = subprocess.run(cmd + [worked_files["hiero"]], capture_output=True, text=True, env=env)
    assert (ok.returncode, ok.stdout.strip()) == (0, "ok"), ok.stderr
    missing = str(worked_files["tmp"] / "missing.fst")
    bad = subprocess.run(cmd + [missing], capture_output=True, text=True, env=env)
    assert bad.returncode == 2
    assert bad.stderr.startswith("error:")
    assert not list(copy.rglob("__pycache__"))


def test_readme_scripts_run(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = child_env(PYTHONPATH=str(root / "src"))
    runs = [
        ([str(root / "scripts" / "worked_example.py"), "--out-dir", str(tmp_path / "worked")],
         "die regionale Politik"),
        ([str(root / "scripts" / "synthetic_corpus_report.py"), "--sentences", "10",
          "--seed", "1", "--check", "--out-dir", str(tmp_path / "corpus")], None),
    ]
    for args, expected in runs:
        proc = subprocess.run([sys.executable] + args, capture_output=True, text=True,
                              env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        if expected is not None:
            assert expected in proc.stdout


def test_ab_inprocess_compares_two_trees(tmp_path):
    # One round on four stats-corpus sentences: this checkout against
    # itself agrees and prints both timed stages and one set-up per tree
    # (--setup 1); against a copy whose
    # combine adds 1 to every cost, the script reports the first sentence
    # and fails.
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    changed = tmp_path / "changed"
    shutil.copytree(root / "src" / "latcomb", changed / "src" / "latcomb",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "src" / "latcomb" / "pipeline.py", "a", encoding="utf-8") as f:
        f.write("\n_combine = combine\n\n\ndef combine(*args, **kwargs):\n"
                "    r = _combine(*args, **kwargs)\n"
                "    return r._replace(total_cost=r.total_cost + 1.0)\n")

    def run(change, *extra):
        return subprocess.run(
            [sys.executable, str(root / "scripts" / "ab_inprocess.py"), str(root), str(change),
             "--workload", "stats-corpus", "--sentences", "4", "--rounds", "1", *extra],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path)

    same = run(root, "--setup", "1")
    assert same.returncode == 0, same.stderr
    assert "read+combine" in same.stdout and "corpus_report" in same.stdout
    assert "  setup (1 x 1 runs per tree;" in same.stdout
    differs = run(changed)
    assert differs.returncode == 1, differs.stderr
    assert differs.stdout.startswith("stats-corpus: ") and " differs" in differs.stdout


def test_readme_library_use_runs(worked_files, monkeypatch, capsys):
    # README's "Library use" snippet, run where the worked example's files
    # carry the names it uses.
    import os
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    os.replace(worked_files["symtab"], worked_files["tmp"] / "words.sym")
    monkeypatch.chdir(worked_files["tmp"])
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("die regionale Politik 3.0 EditStats(")


def write_corpus(tmp_path):
    """Two sentence pairs as lattice directories; returns the CLI's file arguments."""
    syms = SymbolTable()
    sentences = [
        ("die UNK Politik", ["die regionale Politik"]),
        ("der plan", ["der plan"]),
    ]
    nmt_dir = tmp_path / "nmt"
    hiero_dir = tmp_path / "hiero"
    nmt_dir.mkdir()
    hiero_dir.mkdir()
    for idx, (nmt_sentence, hiero_sentences) in enumerate(sentences):
        nmt = acceptor_from_sentences(syms, [nmt_sentence], score_feature=0, scores=[1.0])
        hiero = acceptor_from_sentences(syms, hiero_sentences, score_feature=1,
                                        scores=[1.0] * len(hiero_sentences))
        write_lattice(nmt, str(nmt_dir / f"{idx:04d}.nmt.fst"))
        write_lattice(hiero, str(hiero_dir / f"{idx:04d}.hiero.fst"))
    symtab = symtab_file(tmp_path, syms)
    vocab = write(tmp_path / "vocab.txt", "die\nPolitik\nder\nplan\n")
    params = write(tmp_path / "params.cfg", PARAMS_TEXT)
    return nmt_dir, hiero_dir, vocab, params, symtab


def test_corpus_mode_and_stats(tmp_path, capsys):
    nmt_dir, hiero_dir, vocab, params, symtab = write_corpus(tmp_path)
    pairs = paired_corpus_files(str(nmt_dir), str(hiero_dir))
    assert [stem for stem, _, _ in pairs] == ["0000", "0001"]

    report_path = tmp_path / "report.txt"
    assert cli_main(["combine", "--nmt-lattice", str(nmt_dir), "--hiero-lattice", str(hiero_dir),
                     "--vocab", vocab, "--params", params, "--symtab", symtab,
                     "--report", str(report_path)]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines == ["0000\tdie regionale Politik", "0001\tder plan"]
    report = dict(line.split("=", 1) for line in report_path.read_text().splitlines())
    assert report["num_sentences"] == "2"
    assert float(report["pct_exact_match"]) == 100.0
    assert cli_main(["combine", "--nmt-lattice", str(nmt_dir), "--hiero-lattice", str(hiero_dir),
                     "--vocab", vocab, "--params", params, "--symtab", symtab,
                     "--report", str(report_path), "--nbest-ns", "10,1,10"]) == 2
    assert "error:" in capsys.readouterr().err

    assert cli_main(["stats", "--nmt-dir", str(nmt_dir), "--hiero-dir", str(hiero_dir),
                     "--vocab", vocab, "--params", params, "--symtab", symtab,
                     "--nbest-ns", "1,5"]) == 0
    tsv = capsys.readouterr().out.strip().splitlines()
    assert tsv[0] == "measure\tavg_per_sentence\tpct_affected"
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in tsv[1:]}
    assert rows["unk_extensions"] == ["0", "0"]
    assert rows["hiero_in_1best"][1] == "100"


@pytest.mark.parametrize("ns, message", [
    ("10,1,10", "each n may appear only once, got [10, 1, 10]"),
    ("1,x", "--nbest-ns must be comma-separated integers, got '1,x'"),
    ("0,5", "--nbest-ns values must be positive"),
])
def test_bad_nbest_ns_is_rejected_before_any_sentence(tmp_path, capsys, monkeypatch, ns, message):
    from latcomb import pipeline

    nmt_dir, hiero_dir, vocab, params, symtab = write_corpus(tmp_path)
    calls = []
    monkeypatch.setattr(pipeline, "combine", lambda *args, **kwargs: calls.append(args))
    common = ["--vocab", vocab, "--params", params, "--symtab", symtab, "--nbest-ns", ns]
    assert cli_main(["combine", "--nmt-lattice", str(nmt_dir), "--hiero-lattice", str(hiero_dir),
                     "--report", str(tmp_path / "report.txt"), *common]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert cli_main(["stats", "--nmt-dir", str(nmt_dir), "--hiero-dir", str(hiero_dir),
                     *common]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert calls == [] and not (tmp_path / "report.txt").exists()
