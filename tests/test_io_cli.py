import random

import pytest

from latcomb import FormatError, ParamVector, SymbolTable, UNK, weight
from latcomb.cli import cli_main
from latcomb.lattice_io import (
    paired_corpus_files,
    read_lattice,
    read_params,
    read_symtab,
    read_vocab,
    write_lattice,
    write_symtab,
)

from helpers import acceptor_from_sentences, path_signature, random_dag_lattice

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
    text = f"0 1 {a} {a} 0:1.5\n1 2 {b} {b}\n2 3 {c} {c}\n3\n"
    path = write(tmp_path / "chain.fst", text)
    fst = read_lattice(path, syms, kind="nmt")
    assert fst.num_states == 4
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
    assert arcs[(UNK, syms.label("selten"))].is_one
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
                              env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                                   "PYTHONPATH": str(root / "src")}, cwd=root)
        assert proc.returncode == 0, proc.stderr
        assert report.exists(), "run with PYTHONHASHSEED=%s wrote no report" % seed
        runs.append((proc.stdout, report.read_text()))
    assert runs[0] == runs[1]


def test_readme_scripts_run(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(root / "src")}
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


def test_corpus_mode_and_stats(tmp_path, capsys):
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

    assert cli_main(["stats", "--nmt-dir", str(nmt_dir), "--hiero-dir", str(hiero_dir),
                     "--vocab", vocab, "--params", params, "--symtab", symtab,
                     "--nbest-ns", "1,5"]) == 0
    tsv = capsys.readouterr().out.strip().splitlines()
    assert tsv[0] == "measure\tavg_per_sentence\tpct_affected"
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in tsv[1:]}
    assert rows["unk_extensions"] == ["0", "0"]
    assert rows["hiero_in_1best"][1] == "100"
