"""The A* region before ``combine``'s alignment pass against the pass over every cell.

``pipeline._region`` (phase 1) picks the cells that can hold an
alignment within a margin of the optimum; the exact pass (phase 2)
visits only those.  Forced on, on every input, it must leave every
result bit for bit as the pass over every cell gives it: the same
``t_comb``, cost, feature vector and winning path, ties included.
"""

import os
import random

import pytest

from latcomb import (
    ONE,
    Arc,
    CombinationParams,
    NoPathError,
    SymbolTable,
    Wfst,
    combine,
    lattice_io,
    weight,
)
from latcomb import pipeline
from latcomb.algorithms import _prune_mask
from latcomb.editfst import expand_unk_runs
from latcomb.fst import accessible_states, has_negative

from helpers import assert_matches_flower_combine, flower_combine, linear_chain
from test_direct_alignment import build_instance, has_word, wide_instance
from test_golden import load_workloads

WORKLOADS = ("stats-corpus", "wide-alphabet", "deep-hiero")


def outcome(result):
    return (result.t_comb, result.total_cost.hex(), result.feature_vector.values,
            result.path.rows)


def both_ways(monkeypatch, nmt, hiero, params):
    """``combine`` with phase 1 forced on, then with the region as every cell."""
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_REGION_MIN_BRANCHING", 0.0)
        fast = combine(nmt, hiero, params)
        patch.setattr(pipeline, "_region", lambda tab: None)
        slow = combine(nmt, hiero, params)
    return fast, slow


def read_corpus(root):
    """The corpus at ``root`` as (params, [(NMT lattice, hiero lattice)]) in stem order."""
    syms = lattice_io.read_symtab(os.path.join(root, "words.sym"))
    vocab = lattice_io.read_vocab(os.path.join(root, "vocab.txt"), syms)
    params = lattice_io.read_params(os.path.join(root, "params.cfg")).with_vocab(vocab)
    stems = sorted(name[: -len(".nmt.fst")] for name in os.listdir(os.path.join(root, "nmt")))
    return params, [(lattice_io.read_lattice(os.path.join(root, "nmt", f"{s}.nmt.fst"), syms,
                                             kind="nmt"),
                     lattice_io.read_lattice(os.path.join(root, "hiero", f"{s}.hiero.fst"), syms,
                                             kind="hiero")) for s in stems]


def generated(tmp_path, workload, seed, **shape):
    """The read corpus of ``workload`` at ``seed``, its shape overridden by ``shape``."""
    workloads = load_workloads()
    saved = workloads.SHAPES[workload]
    workloads.SHAPES[workload] = dict(saved, **shape)
    try:
        corpus = workloads.generate(workload, seed)
    finally:
        workloads.SHAPES[workload] = saved
    root = str(tmp_path / f"{workload}-{seed}")
    workloads.write_corpus(corpus, root)
    return read_corpus(root)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_region_leaves_the_benchmark_corpora_bit_identical(workload, tmp_path, monkeypatch):
    for seed in (1, 2, 3):
        params, pairs = generated(tmp_path, workload, seed)
        for nmt, hiero in pairs:
            fast, slow = both_ways(monkeypatch, nmt, hiero, params)
            assert outcome(fast) == outcome(slow)


@pytest.mark.parametrize("length, width, states", [(5, 12, 38), (8, 30, 161)])
def test_region_leaves_unpruned_layered_lattices_bit_identical(length, width, states, tmp_path,
                                                               monkeypatch):
    params, pairs = generated(tmp_path, "deep-hiero", 1, length=length, width=width,
                              hiero_node_budget=100_000, sentences=5)
    for nmt, hiero in pairs:
        assert hiero.num_states == states
        fast, slow = both_ways(monkeypatch, nmt, hiero, params)
        assert outcome(fast) == outcome(slow)


def test_region_leaves_the_inexact_cancelling_and_wide_group_streams_bit_identical(monkeypatch):
    rng = random.Random(2121)
    checked = signed = 0
    while checked < 300:
        _, nmt, hiero, params = build_instance(rng.choice, inexact=True)
        if not has_word(nmt, hiero):
            continue
        fast, slow = both_ways(monkeypatch, nmt, hiero, params)
        assert outcome(fast) == outcome(slow)
        checked += 1
        signed += has_negative(nmt) or has_negative(hiero)
    assert signed > 100
    # 0.1 + 0.2 - 0.3 leaves 5.6e-17, which the exact pass zeroes.
    syms = SymbolTable()
    a, b, c = (syms.add(w) for w in "abc")
    scores = (0.1, 0.2, -0.3, 0.001)
    nmt = linear_chain([a, b, c, a], syms, [weight({0: v}) for v in scores])
    hiero = linear_chain([a, b, c, a], syms, [weight({1: v}) for v in scores])
    fast, slow = both_ways(monkeypatch, nmt, hiero, CombinationParams())
    assert outcome(fast) == outcome(slow)
    rng = random.Random(1515)
    for _ in range(150):
        _, nmt, hiero, params = wide_instance(rng)
        fast, slow = both_ways(monkeypatch, nmt, hiero, params)
        assert outcome(fast) == outcome(slow)


def region_of(nmt, hiero, params):
    """Phase 1's region for one pair, forced on."""
    mask = _prune_mask(hiero, params.hiero_node_budget, pipeline.HIERO_ONLY)
    tables = pipeline._MoveTables(expand_unk_runs(nmt, params.max_unk_run), hiero, mask,
                                  params.nmt_vocab, params.as_param_vector())
    return tables, pipeline._region(tables)


def test_infinite_slack_makes_the_region_every_cell(monkeypatch):
    # Scores of 1e300 and -1e300 put the weights' mass near the float
    # range: the slack is infinite, no estimate bounds anything, and phase
    # 1 leaves every reachable cell to the exact pass.
    monkeypatch.setattr(pipeline, "_REGION_MIN_BRANCHING", 0.0)
    syms = SymbolTable()
    a, b, c = (syms.add(w) for w in "abc")
    nmt = linear_chain([a, b], syms, [weight({0: 1e300}), weight({0: -1e300})])
    hiero = Wfst(syms, syms)
    for _ in range(3):
        hiero.add_state()
    hiero.set_initial(0)
    hiero.set_final(2, ONE)
    for src, label, score in ((0, a, 0.5), (0, c, 0.25), (1, b, 0.5), (1, c, 0.1)):
        hiero.add_arc(src, Arc(label, label, weight({1: score}), src + 1))
    hiero.freeze()
    params = CombinationParams()
    tables, region = region_of(nmt, hiero, params)
    assert tables.slack == float("inf") and region is None
    result = combine(nmt, hiero, params)
    assert result.t_hiero == ("c", "b") and result.total_cost == 2.75
    assert_matches_flower_combine(result, flower_combine(nmt, hiero, params), syms)


def test_no_reachable_final_cell_still_raises_no_path(monkeypatch):
    # The NMT lattice's final state is not reachable from its initial
    # state: no cell has a finite heuristic, phase 1 closes none, and the
    # exact pass finds no final cell.
    monkeypatch.setattr(pipeline, "_REGION_MIN_BRANCHING", 0.0)
    syms = SymbolTable()
    a, b = syms.add("a"), syms.add("b")
    nmt = Wfst(syms, syms)
    for _ in range(3):
        nmt.add_state()
    nmt.set_initial(0)
    nmt.add_arc(0, Arc(a, a, weight({0: 0.5}), 1))
    nmt.set_final(2, ONE)
    nmt.freeze()
    hiero = Wfst(syms, syms)
    for _ in range(3):
        hiero.add_state()
    hiero.set_initial(0)
    hiero.set_final(2, ONE)
    for src, label, dst in ((0, a, 1), (0, b, 2), (1, b, 2)):
        hiero.add_arc(src, Arc(label, label, weight({1: 0.5}), dst))
    hiero.freeze()
    params = CombinationParams()
    _, region = region_of(nmt, hiero, params)
    assert region == [[], [], []]
    with pytest.raises(NoPathError, match="^no path from the initial state to a final state$"):
        combine(nmt, hiero, params)


def test_signed_scores_keep_the_region_exact(monkeypatch):
    # h is consistent whatever the signs of the scores: with phase 1 forced
    # on, negative scores still give the flower chain's optimum.
    monkeypatch.setattr(pipeline, "_REGION_MIN_BRANCHING", 0.0)
    rng = random.Random(3131)
    checked = 0
    while checked < 150:
        syms, nmt, hiero, params = build_instance(rng.choice, inexact=True)
        if not has_word(nmt, hiero) or not (has_negative(nmt) or has_negative(hiero)):
            continue
        assert_matches_flower_combine(combine(nmt, hiero, params),
                                      flower_combine(nmt, hiero, params), syms)
        checked += 1


def test_region_holds_at_most_a_quarter_of_the_cells_on_deep_hiero(tmp_path, monkeypatch):
    # A count, not a time: the cells phase 1 leaves to the exact pass,
    # summed over the seed-1 deep-hiero corpus, against the cells the pass
    # over every cell reaches (every accessible NMT state of the expanded
    # lattice with every kept hiero state accessible through the kept arcs).
    params, pairs = generated(tmp_path, "deep-hiero", 1)
    sizes = []
    real_region = pipeline._region

    def counting(tab):
        region = real_region(tab)
        sizes.append(sum(map(len, region)))
        return region

    monkeypatch.setattr(pipeline, "_region", counting)
    reached = 0
    for nmt, hiero in pairs:
        combine(nmt, hiero, params)
        keep, arcs, _ = _prune_mask(hiero, params.hiero_node_budget, pipeline.HIERO_ONLY)
        seen, stack = {hiero.initial}, [hiero.initial]
        while stack:
            for row in arcs[stack.pop()]:
                if row[0] not in seen:
                    seen.add(row[0])
                    stack.append(row[0])
        reached += len(accessible_states(expand_unk_runs(nmt, params.max_unk_run))) * len(seen)
    assert len(sizes) == len(pairs)  # phase 1 ran on every sentence
    assert 4 * sum(sizes) <= reached
