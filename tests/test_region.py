"""The A* region before ``combine``'s alignment pass against the pass over every cell.

``pipeline._region`` (phase 1) picks the cells that can hold an
alignment within a margin of the optimum; the exact pass (phase 2)
visits only those.  Forced on, on every input, it must leave every
result bit for bit as the pass over every cell gives it: the same
``t_comb``, cost, feature vector and winning path, ties included.
"""

import math
import os
import random
from dataclasses import replace as dc_replace

import pytest

from latcomb import (
    EPSILON,
    HIERO_SCORE,
    ONE,
    UNK,
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
from latcomb.editfst import edit_weight, expand_unk_runs
from latcomb.fst import accessible_states, has_negative
from latcomb.semiring import search_key

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


def generated(tmp_path, workload, seed, skips=0.0, **shape):
    """The read corpus of ``workload`` at ``seed``, its shape overridden by
    ``shape``; with ``skips``, that share of the hiero states get one more
    arc, which skips a column of the layered lattice (see ``with_skips``)."""
    workloads = load_workloads()
    saved = workloads.SHAPES[workload]
    workloads.SHAPES[workload] = dict(saved, **shape)
    try:
        corpus = workloads.generate(workload, seed)
    finally:
        workloads.SHAPES[workload] = saved
    if skips:
        corpus = with_skips(corpus, skips, random.Random(seed))
    root = str(tmp_path / f"{workload}-{seed}")
    workloads.write_corpus(corpus, root)
    return read_corpus(root)


def with_skips(corpus, share, rng):
    """``corpus`` with about ``share`` of the states of each layered hiero
    lattice given one more arc, to a state two columns on, so that hiero
    paths from one state vary in length."""
    sentences = []
    for sentence in corpus.sentences:
        lattice = sentence.hiero
        column = {0: 0}
        for src, dst, _, _ in lattice.arcs:  # arcs come column by column
            column[dst] = column[src] + 1
        states = {}
        for s, c in column.items():
            states.setdefault(c, []).append(s)
        arcs = list(lattice.arcs)
        for s in range(lattice.num_states):
            if column[s] + 2 in states and rng.random() < share:
                arcs.append((s, rng.choice(states[column[s] + 2]), rng.choice(corpus.words),
                             rng.uniform(0.0, 2.0)))
        sentences.append(dc_replace(sentence, hiero=dc_replace(lattice, arcs=tuple(arcs))))
    return dc_replace(corpus, sentences=tuple(sentences))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_region_leaves_the_benchmark_corpora_bit_identical(workload, tmp_path, monkeypatch):
    for seed in (1, 2, 3):
        params, pairs = generated(tmp_path, workload, seed)
        for nmt, hiero in pairs:
            fast, slow = both_ways(monkeypatch, nmt, hiero, params)
            assert outcome(fast) == outcome(slow)


@pytest.mark.parametrize("length, width, states, skips",
                         [(5, 12, 38, 0.0), (8, 30, 161, 0.0), (5, 12, 38, 0.3), (8, 30, 161, 0.3)],
                         ids=["5-12-38", "8-30-161", "5-12-38-skips", "8-30-161-skips"])
def test_region_leaves_unpruned_layered_lattices_bit_identical(length, width, states, skips,
                                                               tmp_path, monkeypatch):
    params, pairs = generated(tmp_path, "deep-hiero", 1, skips, length=length, width=width,
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


def test_region_stays_small_on_hiero_paths_of_varying_length(tmp_path, monkeypatch):
    # A count, not a time: the cells phase 1 leaves to the exact pass,
    # summed over 20 unpruned layered lattices of 161 hiero states where
    # about 30% of the states also skip a column, so hiero paths from one
    # state differ in length.  Pinned at 1,794 with under 1% headroom: h
    # without the length gap leaves 4,753 cells, h with half of it 2,422,
    # and h with the gap's lo_n - hi_h side alone 1,821.
    monkeypatch.setattr(pipeline, "_REGION_MIN_BRANCHING", 0.0)
    params, pairs = generated(tmp_path, "deep-hiero", 1, 0.3, length=8, width=30,
                              hiero_node_budget=100_000, sentences=20)
    sizes = [sum(map(len, region_of(nmt, hiero, params)[1])) for nmt, hiero in pairs]
    assert sum(sizes) <= 1_810


def untrimmed_lattice(rng, syms, feature, labels):
    """A random acyclic acceptor over ``labels`` with signed scores, some
    ONE arcs, one or two final states and up to two dead states: states
    with arcs in, none out, and no final weight."""
    n, dead = rng.randint(2, 6), rng.randint(0, 2)
    fst = Wfst(syms, syms)
    for _ in range(n + dead):
        fst.add_state()
    fst.set_initial(0)

    def score():
        return weight({feature: rng.choice((0.0, rng.uniform(-1.0, 2.0)))})

    fst.set_final(n - 1, score())
    if n > 2 and rng.random() < 0.5:
        fst.set_final(rng.randrange(1, n - 1), score())
    for i in range(n - 1):
        for t in {rng.randint(i + 1, n - 1) for _ in range(rng.randint(1, 3))}:
            label = rng.choice(labels)
            fst.add_arc(i, Arc(label, label, score(), t))
    for d in range(n, n + dead):
        label = rng.choice(labels)
        fst.add_arc(rng.randrange(n - 1), Arc(label, label, score(), d))
    return fst.freeze()


def untrimmed_instance(rng):
    syms = SymbolTable()
    words = [syms.add(w) for w in ("a", "b", "c", "d")]
    nmt = untrimmed_lattice(rng, syms, 0, words[:3] + [UNK, UNK, EPSILON])
    hiero = untrimmed_lattice(rng, syms, 1, words + [EPSILON, EPSILON])
    sub = rng.choice((0.0, 0.4))
    params = CombinationParams(
        lambda_nmt=rng.choice((0.0, 0.5, 1.3)), lambda_hiero=rng.choice((0.0, 0.7, 1.0, 3.0)),
        lambda_sub=sub, lambda_edit=sub + rng.choice((0.3, 1.1, 2.5)),
        lambda_ins=rng.choice((0.0, 0.6)), max_unk_run=rng.randint(1, 4),
        hiero_node_budget=rng.choice((6, 7, 100_000)),
        nmt_vocab=frozenset(w for w in words if rng.random() < 0.5))
    return nmt, hiero, params


def test_heuristic_is_admissible_and_consistent():
    # Against the exact cost on from each cell, by a reverse pass over the
    # cells with every move of the tables (deletions and NMT epsilon arcs,
    # pairs with every kept hiero word arc, insertions and hiero epsilon
    # arcs), typed here by edit_weight: h never exceeds it, is infinite
    # exactly where it is, and h(c) <= w + h(c') for every move c -> c'.
    rng = random.Random(2222)
    dead = epsilon = 0
    for _ in range(400):
        nmt, hiero, params = untrimmed_instance(rng)
        tab, _ = region_of(nmt, hiero, params)
        h = pipeline._heuristic(tab)[3]
        width, cost, slack = tab.width, tab.cost, tab.slack
        assert slack < 1e-6
        final_n = [math.inf if w is None else cost(w.values)
                   for w in map(tab.nmt.final_weight, tab.order_n)]
        final_h = [cost(tab.hiero_finals[s].values) if s in tab.hiero_finals else math.inf
                   for s in tab.order_h]
        epsilon += any(skips for *_, skips in tab.hiero_moves)

        def edit(x, y):
            return cost(edit_weight(params.nmt_vocab, x, y).values)

        togo = [math.inf] * tab.size
        for c in reversed(range(tab.size)):
            i, j = divmod(c, width)
            singles, groups, _, skips = tab.hiero_moves[j]
            words = singles + [entry for _, group in groups for entry in group]
            moves = []
            for _, x, t_base, s_a, *_ in tab.nmt_moves[i]:
                moves.append((t_base + j, s_a + edit(x, EPSILON)))
                if x != EPSILON:
                    moves += [(t_base + t_j, s_a + edit(x, y) + s_h)
                              for s_h, _, t_j, _, y in words]
            moves += [(c - j + t_j, edit(EPSILON, y) + s_h) for s_h, _, t_j, _, y in words + skips]
            togo[c] = min([final_n[i] + final_h[j]] + [w + togo[t] for t, w in moves])
            assert (h(c) == math.inf) == (togo[c] == math.inf)
            assert h(c) <= togo[c] + slack
            for t, w in moves:
                assert h(c) <= w + h(t) + slack
            dead += togo[c] == math.inf
    assert dead > 1000 and epsilon > 100


@pytest.mark.parametrize("lambda_hiero", [0.0, 0.7, 1.0, 3.0])
def test_hiero_entry_costs_equal_their_search_key(lambda_hiero):
    # The tables read a kept hiero arc's cost as 0.0 + lambda_hiero * score,
    # not through search_key: bit for bit the same on hiero-contract lattices
    # under CombinationParams, signed and zero (ONE) scores included.
    rng = random.Random(2323)
    negative = one = 0
    for _ in range(100):
        nmt, hiero, params = untrimmed_instance(rng)
        params = dc_replace(params, lambda_hiero=lambda_hiero)
        tab, _ = region_of(nmt, hiero, params)
        key = search_key(params.as_param_vector())
        for singles, groups, _, skips in tab.hiero_moves:
            for s_h, _, _, row, _ in singles + [e for _, group in groups for e in group] + skips:
                assert s_h.hex() == key(row[3])[0].hex()
                negative += row[3][HIERO_SCORE] < 0.0
                one += row[3] == ONE.values
    assert negative > 50 and one > 50
