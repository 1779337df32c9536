"""Self-test of the benchmark's checker and tracer.

Run from the repository root:  python3 -m pytest perfbench/test_checker.py

A checker that accepted everything would report no failures, so these
tests make sure it rejects wrong answers, and that its reference
agrees with both the program and the brute-force oracle.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from latcomb import lattice_io, pipeline  # noqa: E402


def _combine_all(corpus, root: Path, count: int):
    workloads.write_corpus(corpus, str(root))
    syms = lattice_io.read_symtab(str(root / "words.sym"))
    vocab = lattice_io.read_vocab(str(root / "vocab.txt"), syms)
    params = lattice_io.read_params(str(root / "params.cfg")).with_vocab(vocab)
    for sentence in corpus.sentences[:count]:
        nmt = lattice_io.read_lattice(str(root / "nmt" / f"{sentence.sid}.nmt.fst"), syms, "nmt")
        hiero = lattice_io.read_lattice(str(root / "hiero" / f"{sentence.sid}.hiero.fst"), syms,
                                        "hiero")
        yield sentence, pipeline.combine(nmt, hiero, params, source_id=sentence.sid)


def test_checker_rejects_perturbed_cost_and_swapped_tokens(tmp_path):
    corpus = workloads.generate("stats-corpus", 7)
    swaps = 0
    for sentence, result in _combine_all(corpus, tmp_path, 40):
        ref = reference.reference_optimum(sentence, corpus)
        t_comb, t_hiero, cost = result.t_comb, result.t_hiero, result.total_cost
        assert reference.check_result(ref, t_comb, t_hiero, cost) is None
        assert reference.check_result(ref, t_comb, t_hiero, cost + 1e-6) is not None
        assert reference.check_result(ref, t_comb, t_hiero, cost - 1e-6) is not None
        for i in range(len(t_comb)):
            replaced = t_comb[:i] + ("<not-a-word>",) + t_comb[i + 1:]
            assert reference.check_result(ref, replaced, t_hiero, cost) is not None
        for i in range(len(t_comb) - 1):
            if t_comb[i] != t_comb[i + 1]:
                swapped = t_comb[:i] + (t_comb[i + 1], t_comb[i]) + t_comb[i + 2:]
                assert reference.check_result(ref, swapped, t_hiero, cost) is not None
                swaps += 1
        assert run._checker_self_test(ref, [list(t_comb), list(t_hiero), cost])
    assert swaps > 0


def test_reference_agrees_with_brute_force_oracle():
    corpus = workloads.generate("stats-corpus", 8)
    for sentence in corpus.sentences[:40]:
        ref = reference.reference_optimum(sentence, corpus)
        assert run._oracle_check(sentence, corpus, ref) is None


@pytest.mark.parametrize("workload", ["deep-hiero", "wide-alphabet"])
def test_reference_accepts_the_program_where_paths_cannot_be_enumerated(tmp_path, workload):
    corpus = workloads.generate(workload, 9)
    for sentence, result in _combine_all(corpus, tmp_path, 3):
        ref = reference.reference_optimum(sentence, corpus)
        assert reference.check_result(ref, result.t_comb, result.t_hiero, result.total_cost) is None
    if workload == "deep-hiero":
        assert sentence.hiero.num_states > corpus.params["hiero_node_budget"]


def test_self_times_add_up_and_misnested_spans_are_rejected():
    spans = [
        ["combine", 0.0, 10.0, -1, "0000", None],
        ["compose", 1.0, 3.0, 0, "0000", {"states": 2, "arcs": 4}],
        ["compose", 3.0, 7.0, 0, "0000", {"states": 5, "arcs": 9}],
        ["shortest_path", 7.0, 9.0, 0, "0000", None],
    ]
    metrics = tracing.layer_metrics(spans, 1)
    assert metrics["algorithms.compose_edit_s"] == 2.0
    assert metrics["algorithms.compose_hiero_s"] == 4.0
    assert metrics["algorithms.compose_hiero_arcs"] == 9
    assert metrics["pipeline.combine_self_s"] == 2.0
    parts = ("algorithms.compose_edit_s", "algorithms.compose_hiero_s",
             "algorithms.shortest_path_s", "pipeline.combine_self_s")
    assert sum(metrics[k] for k in parts) == metrics["pipeline.combine_s"]
    spans[3][1] = 6.0  # overlaps the second compose
    with pytest.raises(ValueError):
        tracing.layer_metrics(spans, 1)
