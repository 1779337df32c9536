import math
import os
import random
import sys
import tempfile
from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings, strategies as st

from latcomb import (
    EPSILON,
    ONE,
    UNK,
    Arc,
    CombinationParams,
    ContractError,
    EditStats,
    FormatError,
    NoPathError,
    SymbolTable,
    Wfst,
    combine,
    corpus_report,
    weight,
)
from latcomb import fst as fst_module
from latcomb.fst import LATTICE_KINDS, contract_errors
from latcomb.lattice_io import read_lattice, write_lattice
from latcomb.pipeline import CombinationResult
from latcomb.semiring import EDIT_COUNT, HIERO_SCORE, NMT_SCORE, SUB_COUNT

from helpers import (
    acceptor_from_sentences,
    assert_combination_matches_oracle,
    contract_test_machine,
    linear_chain,
    random_combination_instance,
    run_combine_and_oracle,
)


def worked_example():
    syms = SymbolTable()
    nmt = acceptor_from_sentences(syms, ["die UNK Politik"], score_feature=0, scores=[1.0])
    hiero = acceptor_from_sentences(syms, ["die regionale Politik", "der Plan"],
                                    score_feature=1, scores=[2.0, 1.0])
    vocab = frozenset(syms.add(w) for w in ("die", "Politik", "der", "Plan"))
    params = CombinationParams(lambda_nmt=1.0, lambda_hiero=1.0, lambda_sub=2.0,
                               lambda_edit=5.0, lambda_ins=1.0, nmt_vocab=vocab)
    return syms, nmt, hiero, params


def test_worked_example_fills_unk_from_better_hiero_path():
    _, nmt, hiero, params = worked_example()
    result = combine(nmt, hiero, params)
    assert result.t_comb == ("die", "regionale", "Politik")
    assert result.t_nmt == ("die", "UNK", "Politik")
    assert result.t_hiero == ("die", "regionale", "Politik")
    assert result.total_cost == pytest.approx(3.0, abs=1e-9)
    assert result.stats == EditStats(0, 0, 0)
    assert result.stats.exact_match


def test_worked_example_matches_oracle():
    syms, nmt, hiero, params = worked_example()
    vocab_words = {syms.word(l) for l in params.nmt_vocab}
    result, expected = run_combine_and_oracle(syms, nmt, hiero, params, vocab_words)
    assert expected.cost == pytest.approx(3.0, abs=1e-12)
    assert_combination_matches_oracle(result, expected, syms)


def test_worked_example_lattice_construction():
    # The hand-built two-path hiero lattice holds exactly its two hypotheses.
    from latcomb.oracle import enumerate_paths

    _, _, hiero, params = worked_example()
    paths = {p.tokens: p.score for p in enumerate_paths(hiero, params.as_param_vector())}
    assert paths == {("die", "regionale", "Politik"): 2.0, ("der", "Plan"): 1.0}


def test_combine_sorts_no_machine_twice(tmp_path):
    # The order and the contract are both kept per frozen machine: the
    # reader checks each clean lattice's contract while reading, without
    # a walk, and combine and the report do not check it again.
    sort = fst_module.topological_order.__wrapped__.__code__
    walk = fst_module.contract_errors.__wrapped__.__code__
    sorted_machines = []
    walked_machines = []

    def count_calls(frame, event, arg):
        if event == "call" and frame.f_code is sort:
            sorted_machines.append(frame.f_locals["fst"])
        elif event == "call" and frame.f_code is walk:
            walked_machines.append(frame.f_locals["fst"])

    syms, nmt, hiero, params = worked_example()
    write_lattice(nmt, str(tmp_path / "nmt.fst"))
    write_lattice(hiero, str(tmp_path / "hiero.fst"))
    sys.setprofile(count_calls)
    try:
        nmt = read_lattice(str(tmp_path / "nmt.fst"), syms, kind="nmt")
        hiero = read_lattice(str(tmp_path / "hiero.fst"), syms, kind="hiero")
        for budget in (100, 4):  # within budget, and pruned
            result = combine(nmt, hiero, dc_replace(params, hiero_node_budget=budget))
            corpus_report([result], [hiero])
    finally:
        sys.setprofile(None)
    assert any(m is nmt for m in sorted_machines) and any(m is hiero for m in sorted_machines)
    assert len({id(m) for m in sorted_machines}) == len(sorted_machines)
    # The read lattices and one expanded NMT lattice per combine: no
    # pruned copy is built, so none is sorted.
    assert len(sorted_machines) == 4
    assert walked_machines == []


def test_names_the_benchmark_reaches_by_name_exist(tmp_path):
    # perfbench's traced run looks these up by name: it wraps
    # pipeline.count_paths, records num_arcs of what read_lattice returns,
    # and counts calls by swapping algorithms.times for a counting
    # wrapper.  A missing name fails the traced run with AttributeError,
    # except a pipeline function to wrap: perfbench skips one the pipeline
    # does not import (pipeline.nbest, since corpus_report draws its
    # n-best lazily), and its metrics read 0.
    from latcomb import algorithms, pipeline

    assert callable(pipeline.count_paths)
    assert callable(algorithms.times)
    syms, nmt, _, _ = worked_example()
    write_lattice(nmt, str(tmp_path / "nmt.fst"))
    assert read_lattice(str(tmp_path / "nmt.fst"), syms, kind="nmt").num_arcs == nmt.num_arcs


def test_combine_freezes_one_machine_within_budget(monkeypatch):
    # Within budget and over it (budget 4 keeps "der Plan") the hiero
    # lattice is read as it is, through what pruning keeps; the only
    # machine combine builds is the NMT lattice with its UNK runs expanded.
    syms, nmt, hiero, params = worked_example()
    frozen = []
    freeze = Wfst.freeze

    def counting_freeze(fst):
        frozen.append(fst)
        return freeze(fst)

    monkeypatch.setattr(Wfst, "freeze", counting_freeze)
    for budget, t_comb in ((100, ("die", "regionale", "Politik")), (4, ("die", "der", "Politik"))):
        frozen.clear()
        result = combine(nmt, hiero, dc_replace(params, hiero_node_budget=budget))
        assert result.t_comb == t_comb
        assert len(frozen) == 1


def test_identity_combination_is_exact_match():
    syms = SymbolTable()
    sentence = "der plan steht"
    nmt = acceptor_from_sentences(syms, [sentence], score_feature=0, scores=[0.5])
    hiero = acceptor_from_sentences(syms, [sentence], score_feature=1, scores=[1.5])
    vocab = frozenset(syms.label(w) for w in sentence.split())
    params = CombinationParams(nmt_vocab=vocab)
    result = combine(nmt, hiero, params)
    assert result.t_comb == result.t_nmt == result.t_hiero == tuple(sentence.split())
    assert result.stats.exact_match
    assert result.total_cost == pytest.approx(0.5 + 1.5)


def test_unk_placeholder_is_replaced_by_matching_word():
    syms = SymbolTable()
    nmt_sentence = "die regionale Politik in UNK darf jedoch nicht leiden"
    hiero_sentence = "die regionale Politik in Grosswahlstadt darf jedoch nicht leiden"
    nmt = acceptor_from_sentences(syms, [nmt_sentence], score_feature=0, scores=[1.0])
    hiero = acceptor_from_sentences(syms, [hiero_sentence], score_feature=1, scores=[1.0])
    vocab = frozenset(syms.label(w) for w in nmt_sentence.split() if w != "UNK")
    params = CombinationParams(lambda_sub=1.0, lambda_edit=3.0, nmt_vocab=vocab)
    result = combine(nmt, hiero, params)
    assert result.t_comb == tuple(hiero_sentence.split())
    assert " ".join(result.t_comb).find("in Grosswahlstadt darf") >= 0
    assert result.stats.exact_match  # the only difference is the free UNK fill


def test_combine_rejects_empty_and_unk_in_hiero():
    syms = SymbolTable()
    nmt = acceptor_from_sentences(syms, ["a"], score_feature=0, scores=[1.0])
    bad_hiero = acceptor_from_sentences(syms, ["a UNK"])
    empty = Wfst(syms, syms).freeze()
    params = CombinationParams()
    with pytest.raises(ContractError):
        combine(nmt, bad_hiero, params)
    with pytest.raises(ContractError, match="^NMT lattice: no initial state$"):
        combine(empty, nmt, params)
    with pytest.raises(ContractError, match="^hiero lattice: no initial state$"):
        combine(nmt, empty, params)
    no_final = Wfst(syms, syms)
    no_final.set_initial(no_final.add_state())
    with pytest.raises(ContractError, match="^hiero lattice: no final state$"):
        combine(nmt, no_final.freeze(), params)

    # Each lattice may carry only its own score, on acceptor arcs; the
    # check runs before the search.
    a, b = syms.label("a"), syms.add("b")
    hiero = acceptor_from_sentences(syms, ["a"], score_feature=1, scores=[1.0])
    non_acceptor = Wfst(syms, syms)
    s0, s1 = non_acceptor.add_state(), non_acceptor.add_state()
    non_acceptor.set_initial(s0)
    non_acceptor.add_arc(s0, Arc(a, b, ONE, s1))
    non_acceptor.set_final(s1, ONE)
    bad_pairs = [
        (linear_chain([a], syms, weights=[weight({EDIT_COUNT: 1.0})]), hiero),
        (nmt, linear_chain([a], syms, final_weight=weight({SUB_COUNT: 1.0}))),
        (linear_chain([a], syms, weights=[weight({HIERO_SCORE: 1.0})]), hiero),
        (non_acceptor.freeze(), hiero),
    ]
    for bad_nmt, bad_hiero in bad_pairs:
        with pytest.raises(ContractError):
            combine(bad_nmt, bad_hiero, params)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_reader_and_combine_enforce_contract_errors(seed):
    rng = random.Random(seed)
    syms = SymbolTable()
    nmt = contract_test_machine(rng, syms, NMT_SCORE)
    hiero = contract_test_machine(rng, syms, HIERO_SCORE)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.fst")
        for machine in (nmt, hiero):
            write_lattice(machine, path)
            for kind in LATTICE_KINDS:
                try:
                    read_lattice(path, syms, kind=kind)
                except FormatError:
                    assert contract_errors(machine, kind)
                else:
                    assert not contract_errors(machine, kind)

    nmt_errors, hiero_errors = contract_errors(nmt, "nmt"), contract_errors(hiero, "hiero")
    expected = (f"NMT lattice: {nmt_errors[0]}" if nmt_errors else
                f"hiero lattice: {hiero_errors[0]}" if hiero_errors else None)
    try:
        combine(nmt, hiero, CombinationParams())
        raised = None
    except NoPathError:
        raised = None
    except ContractError as exc:
        raised = str(exc)
    assert raised == expected


def test_combine_warns_on_large_nmt_lattice():
    syms = SymbolTable()
    sentences = [f"w{i} w{j}" for i in range(5) for j in range(5)]  # 25 paths
    nmt = acceptor_from_sentences(syms, sentences, score_feature=0,
                                  scores=[0.1 * k for k in range(25)])
    hiero = acceptor_from_sentences(syms, ["w0 w0"], score_feature=1, scores=[1.0])
    with pytest.warns(UserWarning, match="hypotheses"):
        combine(nmt, hiero, CombinationParams())


def test_params_validation():
    with pytest.raises(ContractError):
        CombinationParams(lambda_sub=2.0, lambda_edit=2.0)
    with pytest.raises(ContractError):
        CombinationParams(lambda_ins=-0.5)
    with pytest.raises(ContractError):
        CombinationParams(lambda_nmt=-1.0)
    with pytest.raises(ContractError):
        CombinationParams(max_unk_run=0)
    with pytest.raises(ContractError):
        CombinationParams(hiero_node_budget=0)
    for reserved in (UNK, EPSILON):
        with pytest.raises(ContractError):
            CombinationParams(nmt_vocab={2, reserved})
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractError):
            CombinationParams(lambda_nmt=bad)


def test_params_counts_must_be_integers():
    # max_unk_run=2.5 used to pass and make combine raise TypeError;
    # hiero_node_budget=nan passed and pruned to the hiero 1-best.
    for name in ("max_unk_run", "hiero_node_budget"):
        for bad in (2.5, 3.0, math.inf, math.nan, True, "3"):
            with pytest.raises(ContractError):
                CombinationParams(**{name: bad})


def test_combine_matches_oracle_on_random_instances():
    rng = random.Random(515151)
    for _ in range(40):
        syms, nmt, hiero, params, vocab_words = random_combination_instance(rng)
        result, expected = run_combine_and_oracle(syms, nmt, hiero, params, vocab_words)
        assert_combination_matches_oracle(result, expected, syms)


def test_stats_counts_match_feature_vector():
    rng = random.Random(626262)
    for _ in range(25):
        syms, nmt, hiero, params, _ = random_combination_instance(rng)
        result = combine(nmt, hiero, params)
        fv = result.feature_vector
        assert result.stats.type3_edits == fv.get(2)
        assert result.stats.type2_subs == fv.get(3)
        assert result.stats.unk_extensions == fv.get(4)


def test_probabilistic_identity():
    # exp(-total) factors into the edit-similarity and the two model scores.
    rng = random.Random(737373)
    for _ in range(25):
        syms, nmt, hiero, params, _ = random_combination_instance(rng)
        result = combine(nmt, hiero, params)
        fv = result.feature_vector
        d_edit = (params.lambda_edit * fv.get(2) + params.lambda_sub * fv.get(3)
                  + params.lambda_ins * fv.get(4))
        lhs = math.exp(-result.total_cost)
        rhs = (math.exp(-d_edit)
               * math.exp(-params.lambda_nmt * fv.get(0))
               * math.exp(-params.lambda_hiero * fv.get(1)))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_strict_coupling_limit_forces_exact_match():
    rng = random.Random(848484)
    for _ in range(20):
        syms = SymbolTable()
        shared = " ".join(rng.choice(["ja", "gut", "so", "nun"]) for _ in range(rng.randint(1, 4)))
        nmt = acceptor_from_sentences(
            syms, [shared, "ganz anders hier"], score_feature=0,
            scores=[rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.4)])
        hiero = acceptor_from_sentences(
            syms, [shared, "voellig verschieden"], score_feature=1,
            scores=[rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.4)])
        params = CombinationParams(lambda_nmt=1.0, lambda_hiero=0.0, lambda_sub=500.0,
                                   lambda_edit=1000.0, lambda_ins=500.0)
        result = combine(nmt, hiero, params)
        assert result.stats.exact_match
        assert result.t_nmt == result.t_hiero == result.t_comb == tuple(shared.split())


def test_lambda_rescaling_keeps_selection():
    rng = random.Random(959595)
    for _ in range(15):
        syms, nmt, hiero, params, _ = random_combination_instance(rng)
        base = combine(nmt, hiero, params)
        for factor in (0.5, 2.0, 4.0):  # powers of two keep the arithmetic exact
            scaled = CombinationParams(
                lambda_nmt=params.lambda_nmt * factor,
                lambda_hiero=params.lambda_hiero * factor,
                lambda_sub=params.lambda_sub * factor,
                lambda_edit=params.lambda_edit * factor,
                lambda_ins=params.lambda_ins * factor,
                max_unk_run=params.max_unk_run,
                nmt_vocab=params.nmt_vocab)
            other = combine(nmt, hiero, scaled)
            assert other.t_nmt == base.t_nmt
            assert other.t_hiero == base.t_hiero
            assert other.total_cost == pytest.approx(base.total_cost * factor, rel=1e-9)


def test_corpus_report_single_sentence():
    syms = SymbolTable()
    hiero = acceptor_from_sentences(syms, ["der plan"], score_feature=1, scores=[1.0])
    result = CombinationResult(
        t_comb=("der", "plan"), t_nmt=("der", "plan"), t_hiero=("der", "plan"),
        total_cost=1.0, feature_vector=weight({1: 1.0, 3: 1.0, 2: 2.0}),
        stats=EditStats(unk_extensions=0, type2_subs=1, type3_edits=2))
    report = corpus_report([result], [hiero], n_values=(1, 5))
    assert report.avg_unk_extensions == 0.0
    assert report.avg_type2_subs == 1.0
    assert report.avg_type3_edits == 2.0
    assert report.pct_unk_extensions == 0.0
    assert report.pct_type2_subs == 100.0
    assert report.pct_type3_edits == 100.0
    assert report.pct_hiero_unchanged == 100.0
    assert report.nbest_membership == ((1, 100.0), (5, 100.0))


def test_corpus_report_membership_monotone():
    rng = random.Random(111000)
    results = []
    lattices = []
    for _ in range(12):
        syms, nmt, hiero, params, _ = random_combination_instance(rng, h_max_paths=20)
        results.append(combine(nmt, hiero, params))
        lattices.append(hiero)
    report = corpus_report(results, lattices, n_values=(1, 2, 5, 20, 100))
    fractions = [pct for _, pct in report.nbest_membership]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 100.0


def test_corpus_report_equals_separate_searches_per_n():
    # The report reads every n off one unique n-best list; that must give
    # what a shortest path and one unique n-best search per n give.
    from latcomb import nbest, shortest_path
    from latcomb.pipeline import HIERO_ONLY

    rng = random.Random(222000)
    results, lattices = [], []
    for _ in range(15):
        syms, nmt, hiero, params, _ = random_combination_instance(rng, h_max_paths=40)
        results.append(combine(nmt, hiero, params))
        lattices.append(hiero)
    n_values = (1, 2, 3, 5, 10, 40)
    report = corpus_report(results, lattices, n_values=n_values)

    def words(lattice, path):
        return tuple(lattice.osyms.word(l) for l in path.output_labels())

    unchanged = sum(words(h, shortest_path(h, HIERO_ONLY)) == r.t_hiero
                    for r, h in zip(results, lattices))
    assert report.pct_hiero_unchanged == 100.0 * unchanged / len(results)
    for n, pct in report.nbest_membership:
        hits = sum(r.t_hiero in {words(h, p) for p in nbest(h, n, HIERO_ONLY, unique=True)}
                   for r, h in zip(results, lattices))
        assert pct == 100.0 * hits / len(results)


def test_corpus_report_requires_matching_lengths():
    _, nmt, hiero, params = worked_example()
    result = combine(nmt, hiero, params)
    for results, lattices in (([], []), ([result], []), ([result, result], [hiero]),
                              ([result], [hiero, hiero])):
        with pytest.raises(ContractError):
            corpus_report(results, lattices, n_values=(1,))


def test_corpus_report_rejects_repeated_n():
    # A repeated n used to add its hits once per repeat: 200% for (10, 1, 10).
    _, nmt, hiero, params = worked_example()
    result = combine(nmt, hiero, params)
    with pytest.raises(ContractError):
        corpus_report([result], [hiero], n_values=(10, 1, 10))


@pytest.mark.parametrize("n_values", [(0, 5), (5, -1), (True, 5), (2.5,)])
def test_corpus_report_rejects_n_below_one(n_values):
    # n = 0 used to give pct_hiero_in_0best=0 where the CLI rejects it.
    _, nmt, hiero, params = worked_example()
    result = combine(nmt, hiero, params)
    with pytest.raises(ContractError, match="positive integer"):
        corpus_report([result], [hiero], n_values=n_values)


def test_corpus_report_spells_ranked_paths_only_up_to_the_match(monkeypatch):
    # The selected hiero hypothesis is the 1-best of four unique strings:
    # ranking it spells the first ranked path and no other.
    syms = SymbolTable()
    hiero = acceptor_from_sentences(syms, ["a b c", "d e", "f g h", "i"], score_feature=1,
                                    scores=[0.1, 0.5, 0.9, 1.2])
    nmt = acceptor_from_sentences(syms, ["a b c"], score_feature=0, scores=[0.1])
    result = combine(nmt, hiero, CombinationParams())
    assert result.t_hiero == ("a", "b", "c")
    spelled = []
    word = hiero.osyms.word
    monkeypatch.setattr(hiero.osyms, "word", lambda label: spelled.append(label) or word(label))
    report = corpus_report([result], [hiero], n_values=(1, 10))
    assert report.pct_hiero_unchanged == 100.0
    assert report.nbest_membership == ((1, 100.0), (10, 100.0))
    assert len(spelled) <= len(result.t_hiero)


def test_hiero_node_budget_restricts_candidates():
    # Pruning runs on hiero scores alone, so a tight budget can remove the
    # path the unpruned combination would have aligned with.
    syms = SymbolTable()
    nmt = acceptor_from_sentences(syms, ["x"], score_feature=0, scores=[0.1])
    hiero = acceptor_from_sentences(syms, ["x", "y"], score_feature=1, scores=[5.0, 0.1])
    base = CombinationParams(lambda_nmt=1.0, lambda_hiero=1.0, lambda_sub=1.0,
                             lambda_edit=100.0, lambda_ins=1.0)
    full = combine(nmt, hiero, base)
    assert full.t_hiero == ("x",)  # the exact match wins despite its hiero score

    from dataclasses import replace as dc_replace

    tight = dc_replace(base, hiero_node_budget=2)
    pruned = combine(nmt, hiero, tight)
    assert pruned.t_hiero == ("y",)  # only the hiero-cheap path survived pruning
    assert pruned.stats.type3_edits == 1


def test_random_instances_number_symbols_alike_in_every_process():
    # A failing random instance must reproduce with the same label ids in
    # another process, whatever its hash seed.
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    code = ("import random; from helpers import random_combination_instance; "
            "print([random_combination_instance(random.Random(seed))[0].items() "
            "for seed in range(20)])")
    tables = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
                                   "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                                  str(root / "tests")])})
        assert proc.returncode == 0, proc.stderr
        tables.append(proc.stdout)
    assert tables[0] == tables[1]
