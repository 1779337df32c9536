"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -rP`` to see the lines.
"""

import random
import time
from pathlib import Path

import pytest

from latcomb import (
    CombinationParams,
    EditStats,
    ParamVector,
    SymbolTable,
    combine,
    compose,
    is_acyclic,
    linear_chain,
    plus,
    prune_to_node_budget,
    scalarize,
    shortest_path,
    times,
    ONE,
    UNK,
    ZERO,
)
from latcomb.cli import cli_main
from latcomb.editfst import build_modified_edit_fst, build_standard_edit_fst
from latcomb.lattice_io import read_lattice, write_lattice, write_symtab
from latcomb.oracle import dp_edit_distance

from helpers import (
    acceptor_from_sentences,
    assert_combination_matches_oracle,
    assert_substitution_property,
    classic_levenshtein,
    grid_params,
    grid_weight,
    path_signature,
    random_combination_instance,
    random_dag_lattice,
    run_combine_and_oracle,
)

UNIT = ParamVector(1.0, 1.0, 1.0, 1.0, 1.0)


def ok(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {message}")


def test_c01_standard_flower_equals_levenshtein():
    started = time.perf_counter()
    rng = random.Random(101)
    syms = SymbolTable()
    letters = [syms.add(ch) for ch in "abcde"]
    flower = build_standard_edit_fst(set(letters), syms)
    for _ in range(1000):
        alphabet = letters[: rng.randint(1, 5)]
        x = [rng.choice(alphabet) for _ in range(rng.randint(0, 15))]
        y = [rng.choice(alphabet) for _ in range(rng.randint(0, 15))]
        got = shortest_path(compose(compose(linear_chain(x, syms), flower),
                                    linear_chain(y, syms)), UNIT).cost
        assert got == classic_levenshtein(x, y), (x, y)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, bound is 30s"
    ok(1, f"1000 random pairs match classic edit-distance DP exactly ({elapsed:.1f}s)")


def test_c02_modified_flower_equals_typed_dp():
    rng = random.Random(202)
    words = ["w0", "w1", "w2", "w3", "w4"]
    settings = []
    for _ in range(5):
        sub = rng.uniform(0.0, 2.0)
        settings.append((sub, sub + rng.uniform(0.25, 3.0)))
    for _ in range(1000):
        syms = SymbolTable()
        labels = {w: syms.add(w) for w in words}
        vocab_words = set(rng.sample(words, rng.randint(0, len(words))))
        x = [rng.choice(words + ["UNK", "UNK"]) for _ in range(rng.randint(0, 8))]
        y = [rng.choice(words) for _ in range(rng.randint(0, 8))]
        if "UNK" not in x:
            x.append("UNK")
        sub_cost, edit_cost = settings[rng.randrange(5)]
        flower = build_modified_edit_fst(set(labels.values()),
                                         {labels[w] for w in vocab_words}, syms)
        to_label = lambda w: UNK if w == "UNK" else labels[w]
        machine = compose(compose(linear_chain([to_label(w) for w in x], syms), flower),
                          linear_chain([to_label(w) for w in y], syms))
        params = ParamVector(nmt=1.0, hiero=1.0, edit=edit_cost, sub=sub_cost, ins=1.0)
        got = shortest_path(machine, params).cost
        expected = dp_edit_distance(x, y, vocab_words, sub_cost, edit_cost, max_unk_run=1)
        want = edit_cost * expected.get(2, 0.0) + sub_cost * expected.get(3, 0.0)
        assert abs(got - want) <= 1e-9, (x, y, vocab_words, sub_cost, edit_cost)
    ok(2, "1000 random triples match the typed-cost DP over 5 lambda settings")


def test_c03_end_to_end_equals_brute_force():
    started = time.perf_counter()
    rng = random.Random(303)
    for i in range(500):
        syms, nmt, hiero, params, vocab_words = random_combination_instance(
            rng, n_max_paths=20, h_max_paths=200, max_states=12, sized=True)
        result, expected = run_combine_and_oracle(syms, nmt, hiero, params, vocab_words)
        assert_combination_matches_oracle(result, expected, syms)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s, bound is 300s"
    ok(3, f"500 seeded instances match the exhaustive argmin ({elapsed:.1f}s)")


def _run_fill_case(hiero_words: str, max_unk_run: int):
    syms = SymbolTable()
    nmt = acceptor_from_sentences(syms, ["der UNK steht"], score_feature=0, scores=[1.0])
    hiero = acceptor_from_sentences(syms, [hiero_words], score_feature=1, scores=[1.0])
    vocab = frozenset((syms.add("der"), syms.add("steht")))
    params = CombinationParams(lambda_nmt=1.0, lambda_hiero=1.0, lambda_sub=2.0,
                               lambda_edit=5.0, lambda_ins=1.0, max_unk_run=max_unk_run,
                               nmt_vocab=vocab)
    return combine(nmt, hiero, params)


def test_c04_unk_run_behavior():
    for fill in ("mitte gross", "mitte gross neu"):
        sentence = f"der {fill} steht"
        solved = _run_fill_case(sentence, max_unk_run=3)
        assert solved.t_comb == tuple(sentence.split())
        assert solved.stats.type2_subs == 0 and solved.stats.type3_edits == 0
        assert solved.stats.unk_extensions == len(fill.split()) - 1

        limited = _run_fill_case(sentence, max_unk_run=1)
        assert limited.stats.type3_edits >= 1  # some real edit becomes unavoidable
        assert limited.total_cost > solved.total_cost + 1e-9
    ok(4, "2- and 3-word fills need the run expander; without it cost strictly rises")


def test_c05_semiring_law_suite():
    rng = random.Random(505)
    for _ in range(10_000):
        a, b, c = grid_weight(rng), grid_weight(rng), grid_weight(rng)
        p = grid_params(rng)
        add = lambda x, y: plus(x, y, p)
        assert add(a, b) == add(b, a)                                   # 1 plus commutative
        assert add(add(a, b), c) == add(a, add(b, c))                   # 2 plus associative
        assert add(a, a) == a                                           # 3 plus idempotent
        assert times(times(a, b), c) == times(a, times(b, c))           # 4 times associative
        assert times(a, add(b, c)) == add(times(a, b), times(a, c))     # 5 distributivity
        assert times(ZERO, a) == ZERO and times(a, ZERO) == ZERO        # 6 zero annihilates
        assert add(ZERO, a) == a                                        # 7 zero neutral for plus
        assert times(ONE, a) == a and times(a, ONE) == a                # 8 one neutral for times
        assert abs(scalarize(times(a, b), p)
                   - (scalarize(a, p) + scalarize(b, p))) <= 1e-12 or a.infinite or b.infinite
        assert scalarize(add(a, b), p) == min(scalarize(a, p), scalarize(b, p))
    ok(5, "10000 random triples satisfy all eight laws and the scalarization homomorphism")


def test_c06_structural_invariants():
    rng = random.Random(606)
    for _ in range(200):
        syms = SymbolTable()
        nmt = random_dag_lattice(rng, syms, score_feature=0, max_paths=20, allow_unk=True)
        hiero = random_dag_lattice(rng, syms, score_feature=1, max_paths=40)
        alphabet = (nmt.all_labels() | hiero.all_labels()) - {0, UNK}
        flower = build_modified_edit_fst(alphabet, frozenset(), syms)
        assert is_acyclic(compose(compose(nmt, flower), hiero))

    for _ in range(200):
        syms = SymbolTable()
        lattice = random_dag_lattice(rng, syms, score_feature=1, max_paths=60,
                                     max_states=14)
        before = shortest_path(lattice, UNIT)
        budget = max(len(before.arcs) + 1, lattice.num_states - rng.randint(0, 5))
        pruned = prune_to_node_budget(lattice, budget, UNIT)
        after = shortest_path(pruned, UNIT)
        assert after.output_labels() == before.output_labels()
        assert abs(after.cost - before.cost) <= 1e-9
    ok(6, "composition through the flower stays acyclic; pruning keeps the best path")


def test_c07_unk_projection_semantics():
    rng = random.Random(707)
    checked_zero_edit = 0
    for _ in range(200):
        syms, nmt, hiero, params, _ = random_combination_instance(rng)
        result = combine(nmt, hiero, params)
        assert_substitution_property(result, syms)
        if result.stats.exact_match and "UNK" not in result.t_nmt:
            checked_zero_edit += 1
            assert result.t_comb == result.t_nmt == result.t_hiero
    assert checked_zero_edit > 0
    ok(7, f"200 aligned paths satisfy the substitution semantics "
          f"({checked_zero_edit} were pure matches)")


@pytest.fixture
def worked_example_files(tmp_path):
    syms = SymbolTable()
    nmt = acceptor_from_sentences(syms, ["die UNK Politik"], score_feature=0, scores=[1.0])
    hiero = acceptor_from_sentences(syms, ["die regionale Politik", "der Plan"],
                                    score_feature=1, scores=[2.0, 1.0])
    paths = {
        "nmt": str(tmp_path / "s.nmt.fst"),
        "hiero": str(tmp_path / "s.hiero.fst"),
        "symtab": str(tmp_path / "table.sym"),
        "vocab": str(tmp_path / "vocab.txt"),
        "params": str(tmp_path / "params.cfg"),
        "report": str(tmp_path / "report.txt"),
    }
    write_lattice(nmt, paths["nmt"])
    write_lattice(hiero, paths["hiero"])
    write_symtab(syms, paths["symtab"])
    with open(paths["vocab"], "w") as handle:
        handle.write("die\nPolitik\nder\nPlan\n")
    with open(paths["params"], "w") as handle:
        handle.write("lambda_nmt=1\nlambda_hiero=1\nlambda_sub=2\nlambda_edit=5\nlambda_ins=1\n")
    return paths


def test_c08_worked_example_via_cli(worked_example_files, capsys):
    files = worked_example_files
    for command in ("combine", "oracle-combine"):
        code = cli_main([command,
                         "--nmt-lattice", files["nmt"], "--hiero-lattice", files["hiero"],
                         "--vocab", files["vocab"], "--params", files["params"],
                         "--symtab", files["symtab"], "--report", files["report"]])
        assert code == 0
        assert capsys.readouterr().out.strip() == "die regionale Politik"
        report = dict(line.split("=", 1)
                      for line in Path(files["report"]).read_text().splitlines())
        assert abs(float(report["total_cost"]) - 3.0) <= 1e-9
    ok(8, "combine and oracle-combine both print 'die regionale Politik' at cost 3.0")


def _report_corpus(tmp_path):
    """50 sentences in 5 hand-designed kinds of 10, with known statistics."""
    syms = SymbolTable()
    kinds = []
    # exact match
    kinds.append((["gut so"], ["gut so"], EditStats(0, 0, 0)))
    # one in-vocabulary fill
    kinds.append((["gut UNK so"], ["gut oft so"], EditStats(0, 1, 0)))
    # two plain substitutions
    kinds.append((["gut so"], ["kalt warm"], EditStats(0, 0, 2)))
    # one run extension over two out-of-vocabulary words
    kinds.append((["gut UNK so"], ["gut kalt warm so"], EditStats(1, 0, 0)))
    # free fill from the second-best hiero path
    kinds.append((["gut UNK so"], ["gut so", "gut neu so"], EditStats(0, 0, 0)))

    nmt_dir = tmp_path / "nmt"
    hiero_dir = tmp_path / "hiero"
    nmt_dir.mkdir()
    hiero_dir.mkdir()
    expected = []
    for idx in range(50):
        nmt_sentences, hiero_sentences, stats = kinds[idx // 10]
        nmt = acceptor_from_sentences(syms, nmt_sentences, score_feature=0, scores=[1.0])
        scores = [0.25, 0.5][: len(hiero_sentences)]
        hiero = acceptor_from_sentences(syms, hiero_sentences, score_feature=1, scores=scores)
        write_lattice(nmt, str(nmt_dir / f"{idx:04d}.nmt.fst"))
        write_lattice(hiero, str(hiero_dir / f"{idx:04d}.hiero.fst"))
        expected.append(stats)
    files = {
        "nmt_dir": str(nmt_dir), "hiero_dir": str(hiero_dir),
        "symtab": str(tmp_path / "table.sym"),
        "vocab": str(tmp_path / "vocab.txt"),
        "params": str(tmp_path / "params.cfg"),
    }
    write_symtab(syms, files["symtab"])
    with open(files["vocab"], "w") as handle:
        handle.write("gut\nso\noft\n")
    with open(files["params"], "w") as handle:
        handle.write("lambda_nmt=1\nlambda_hiero=1\nlambda_sub=2\nlambda_edit=5\nlambda_ins=1\n")
    return files, expected


def test_c09_report_machinery(tmp_path, capsys):
    files, expected = _report_corpus(tmp_path)
    code = cli_main(["stats", "--nmt-dir", files["nmt_dir"], "--hiero-dir", files["hiero_dir"],
                     "--vocab", files["vocab"], "--params", files["params"],
                     "--symtab", files["symtab"], "--nbest-ns", "1,2,5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "measure\tavg_per_sentence\tpct_affected"
    rows = {}
    for line in lines[1:]:
        name, avg, pct = line.split("\t")
        rows[name] = (avg, pct)

    def expect_avg(getter):
        return sum(getter(s) for s in expected) / len(expected)

    def expect_pct(getter):
        return 100.0 * sum(1 for s in expected if getter(s) > 0) / len(expected)

    assert float(rows["unk_extensions"][0]) == pytest.approx(expect_avg(lambda s: s.unk_extensions))
    assert float(rows["unk_extensions"][1]) == pytest.approx(expect_pct(lambda s: s.unk_extensions))
    assert float(rows["type2_subs"][0]) == pytest.approx(expect_avg(lambda s: s.type2_subs))
    assert float(rows["type2_subs"][1]) == pytest.approx(expect_pct(lambda s: s.type2_subs))
    assert float(rows["type3_edits"][0]) == pytest.approx(expect_avg(lambda s: s.type3_edits))
    assert float(rows["type3_edits"][1]) == pytest.approx(expect_pct(lambda s: s.type3_edits))
    assert float(rows["exact_match"][1]) == pytest.approx(40.0)
    # only the fifth kind picks a hiero path that is not the hiero 1-best
    assert float(rows["hiero_unchanged"][1]) == pytest.approx(80.0)
    curve = [float(rows[f"hiero_in_{n}best"][1]) for n in (1, 2, 5)]
    assert curve == sorted(curve)
    assert curve[0] == pytest.approx(80.0)
    assert curve[-1] == pytest.approx(100.0)
    ok(9, "the corpus report reproduces hand-computed statistics and a monotone curve")


def test_c10_io_round_trip(tmp_path):
    rng = random.Random(1010)
    for i in range(100):
        syms = SymbolTable()
        feature = rng.choice([0, 1])
        kind = "nmt" if feature == 0 else "hiero"
        lattice = random_dag_lattice(rng, syms, score_feature=feature, max_paths=60,
                                     allow_unk=(feature == 0))
        path = tmp_path / f"l{i}.fst"
        write_lattice(lattice, str(path))
        loaded = read_lattice(str(path), syms, kind=kind)
        assert loaded.num_states == lattice.num_states
        assert loaded.num_arcs == lattice.num_arcs
        assert loaded.num_finals == lattice.num_finals
        assert path_signature(loaded, UNIT) == path_signature(lattice, UNIT)
    ok(10, "100 random lattices survive the write/read round trip isomorphically")
