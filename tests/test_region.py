"""The A* pass of ``combine``'s alignment: its results, and the cells it expands.

``pipeline._best_alignment`` is one A* pass over the cells (NMT
position, hiero position): cells pop in (g + h, cell) order, and only a
popped cell's moves are tried.  The popped cells are its region.  On
every input the pass must give the whole winning path that the tie rule,
spelled out over every cell, gives (``helpers.tie_rule_alignment``), and
the flower chain's cost and feature vector (``helpers.flower_combine``),
ties included; and its region must stay small, by counts pinned here.
"""

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
from latcomb.fst import accessible_states

from helpers import (assert_matches_flower_combine, exact_cost, flower_combine, holds_negative,
                     linear_chain, tie_rule_alignment)
from test_direct_alignment import build_instance, has_word, wide_instance
from test_golden import load_workloads

WORKLOADS = ("stats-corpus", "wide-alphabet", "deep-hiero")


def follows_the_tie_rule(nmt, hiero, params):
    """``combine``'s whole winning path is the one the tie rule picks, at its
    cost and feature vector, bit for bit."""
    result = combine(nmt, hiero, params)
    path, cost, values = tie_rule_alignment(nmt, hiero, params)
    assert [(a.ilabel, a.olabel, a.weight.values) for a in result.path.arcs] == path
    assert (result.total_cost, result.feature_vector.values) == (cost, values)
    return result


def matches_both_references(nmt, hiero, params):
    """The tie rule's path, and the flower chain's cost and feature vector
    (the flower chain breaks exact ties its own way)."""
    result = follows_the_tie_rule(nmt, hiero, params)
    reference = flower_combine(nmt, hiero, params)
    assert (result.total_cost, result.feature_vector) == \
        (reference.total_cost, reference.feature_vector)


def expansions(monkeypatch, params, pairs):
    """Combine each pair; returns the cells the pass expanded and the cells
    there were, each summed over ``pairs``.  A cell counts as it expands:
    the pass reads its hiero position's moves then, and only then."""
    counts = [0, 0]

    class Reads(list):
        def __getitem__(self, j):
            counts[0] += 1
            return super().__getitem__(j)

    class Tables(pipeline._MoveTables):
        def __init__(self, *args):
            super().__init__(*args)
            self.hiero_moves = Reads(self.hiero_moves)
            counts[1] += self.size

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_MoveTables", Tables)
        for nmt, hiero in pairs:
            combine(nmt, hiero, params)
    return tuple(counts)


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
def test_region_leaves_the_benchmark_corpora_bit_identical(workload, tmp_path):
    # The tie rule reads the hiero lattice through the same prune mask, so
    # this covers the pruned deep-hiero corpus too.
    for seed in (1, 2, 3):
        params, pairs = generated(tmp_path, workload, seed)
        for nmt, hiero in pairs:
            follows_the_tie_rule(nmt, hiero, params)


@pytest.mark.parametrize("length, width, states, skips",
                         [(5, 12, 38, 0.0), (8, 30, 161, 0.0), (5, 12, 38, 0.3), (8, 30, 161, 0.3)],
                         ids=["5-12-38", "8-30-161", "5-12-38-skips", "8-30-161-skips"])
def test_region_leaves_unpruned_layered_lattices_bit_identical(length, width, states, skips,
                                                               tmp_path):
    params, pairs = generated(tmp_path, "deep-hiero", 1, skips, length=length, width=width,
                              hiero_node_budget=100_000, sentences=5)
    for nmt, hiero in pairs:
        assert hiero.num_states == states
        matches_both_references(nmt, hiero, params)


def test_region_leaves_the_inexact_cancelling_and_wide_group_streams_bit_identical():
    rng = random.Random(2121)
    checked = signed = 0
    while checked < 300:
        _, nmt, hiero, params = build_instance(rng.choice, inexact=True)
        if not has_word(nmt, hiero):
            continue
        matches_both_references(nmt, hiero, params)
        checked += 1
        signed += holds_negative(nmt) or holds_negative(hiero)
    assert signed > 100
    # 0.1 + 0.2 - 0.3 leaves 5.6e-17, which the exact pass zeroes.
    syms = SymbolTable()
    a, b, c = (syms.add(w) for w in "abc")
    scores = (0.1, 0.2, -0.3, 0.001)
    nmt = linear_chain([a, b, c, a], syms, [weight({0: v}) for v in scores])
    hiero = linear_chain([a, b, c, a], syms, [weight({1: v}) for v in scores])
    matches_both_references(nmt, hiero, CombinationParams())
    rng = random.Random(1515)
    for _ in range(150):
        _, nmt, hiero, params = wide_instance(rng)
        matches_both_references(nmt, hiero, params)


def tables_of(nmt, hiero, params):
    """The pass's move tables for one pair."""
    mask = _prune_mask(hiero, params.hiero_node_budget, pipeline.HIERO_ONLY)
    return pipeline._MoveTables(expand_unk_runs(nmt, params.max_unk_run), hiero, mask,
                                params.nmt_vocab, params.as_param_vector())


def test_no_reachable_final_cell_still_raises_no_path():
    # The NMT lattice's final state is not reachable from its initial
    # state: the start cell has no heuristic value, so the pass pushes no
    # cell and finds no final cell.
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
    tab = tables_of(nmt, hiero, params)
    assert pipeline._heuristic(tab)(tab.start) is None
    with pytest.raises(NoPathError, match="^no path from the initial state to a final state$"):
        combine(nmt, hiero, params)


def test_signed_scores_keep_the_region_exact():
    # h is consistent whatever the signs of the scores: negative scores
    # still give the flower chain's optimum.
    rng = random.Random(3131)
    checked = 0
    while checked < 150:
        syms, nmt, hiero, params = build_instance(rng.choice, inexact=True)
        if not has_word(nmt, hiero) or not (holds_negative(nmt) or holds_negative(hiero)):
            continue
        assert_matches_flower_combine(combine(nmt, hiero, params),
                                      flower_combine(nmt, hiero, params), syms)
        checked += 1


def test_region_holds_at_most_a_quarter_of_the_cells_on_deep_hiero(tmp_path, monkeypatch):
    # A count, not a time: the cells the pass expands, summed over the
    # seed-1 deep-hiero corpus, against the cells a pass over every cell
    # would reach (every accessible NMT state of the expanded lattice with
    # every kept hiero state accessible through the kept arcs).
    params, pairs = generated(tmp_path, "deep-hiero", 1)
    expanded, _ = expansions(monkeypatch, params, pairs)
    reached = 0
    for nmt, hiero in pairs:
        keep, arcs, _ = _prune_mask(hiero, params.hiero_node_budget, pipeline.HIERO_ONLY)
        seen, stack = {hiero.initial}, [hiero.initial]
        while stack:
            for row in arcs[stack.pop()]:
                if row[0] not in seen:
                    seen.add(row[0])
                    stack.append(row[0])
        reached += len(accessible_states(expand_unk_runs(nmt, params.max_unk_run))) * len(seen)
    assert 4 * expanded <= reached


def test_region_holds_at_most_a_third_of_the_cells_on_the_stats_corpus(tmp_path, monkeypatch):
    # A count, not a time: on sausage-shaped hiero lattices every hiero
    # state lies on every path, yet A* still leaves most cells unexpanded;
    # summed over the seed-1 stats corpus, the expanded cells against all
    # cells (every NMT position of the expanded lattice with every kept
    # hiero position).
    params, pairs = generated(tmp_path, "stats-corpus", 1)
    expanded, cells = expansions(monkeypatch, params, pairs)
    assert 3 * expanded <= cells


def test_region_stays_small_on_hiero_paths_of_varying_length(tmp_path, monkeypatch):
    # A count, not a time: the cells the pass expands, summed over 20
    # unpruned layered lattices of 161 hiero states where about 30% of the
    # states also skip a column, so hiero paths from one state differ in
    # length.  Pinned at 1,794 with under 1% headroom: h without the length
    # gap leaves 4,753 cells, h with half of it 2,422, and h with the gap's
    # lo_n - hi_h side alone 1,821.
    params, pairs = generated(tmp_path, "deep-hiero", 1, 0.3, length=8, width=30,
                              hiero_node_budget=100_000, sentences=20)
    expanded, _ = expansions(monkeypatch, params, pairs)
    assert expanded <= 1_810


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
    # arcs), typed here by edit_weight: h never exceeds it, is None
    # exactly where it is, and h(c) <= w + h(c') for every move c -> c'.
    rng = random.Random(2222)
    dead = epsilon = 0
    for _ in range(400):
        nmt, hiero, params = untrimmed_instance(rng)
        tab = tables_of(nmt, hiero, params)
        h = pipeline._heuristic(tab)
        # The tables hold packed keys; h and this reference compare costs.
        width, part, lambdas = tab.width, tab.packed.cost, params.as_param_vector()
        epsilon += any(skips for *_, skips in tab.hiero_moves)

        def edit(x, y):
            return exact_cost(edit_weight(params.nmt_vocab, x, y).values, lambdas, tab.packed.unit)

        togo = [None] * tab.size
        for c in reversed(range(tab.size)):
            i, j = divmod(c, width)
            singles, groups, skips = tab.hiero_moves[j]
            words = singles + [entry for _, group in groups for entry in group]
            moves = []
            for _, x, t_base, s_a, *_ in tab.nmt_moves[i]:
                moves.append((t_base + j, part(s_a) + edit(x, EPSILON)))
                if x != EPSILON:
                    moves += [(t_base + t_j, part(s_a) + edit(x, y) + part(s_h))
                              for s_h, _, t_j, _, y in words]
            moves += [(c - j + t_j, edit(EPSILON, y) + part(s_h))
                      for s_h, _, t_j, _, y in words + skips]
            options = [w + togo[t] for t, w in moves if togo[t] is not None]
            if tab.final_n[i] is not None and tab.final_h[j] is not None:
                options.append(part(tab.final_n[i]) + part(tab.final_h[j]))
            togo[c] = min(options, default=None)
            assert (h(c) is None) == (togo[c] is None)
            if togo[c] is not None:
                assert h(c) <= togo[c]
            for t, w in moves:
                if h(t) is not None:
                    assert h(c) <= w + h(t)
            dead += togo[c] is None
    assert dead > 1000 and epsilon > 100


@pytest.mark.parametrize("lambda_hiero", [0.0, 0.7, 1.0, 3.0])
def test_hiero_entry_costs_equal_their_search_key(lambda_hiero):
    # Each kept hiero arc's entry in the tables holds a packed key whose
    # cost is the arc's exact cost, under every lambda_hiero, signed and
    # zero (ONE) scores included.
    rng = random.Random(2323)
    negative = one = 0
    for _ in range(100):
        nmt, hiero, params = untrimmed_instance(rng)
        params = params._replace(lambda_hiero=lambda_hiero)
        tab, lambdas = tables_of(nmt, hiero, params), params.as_param_vector()
        for singles, groups, skips in tab.hiero_moves:
            for s_h, _, _, row, _ in singles + [e for _, group in groups for e in group] + skips:
                assert tab.packed.cost(s_h) == exact_cost(row[3], lambdas, tab.packed.unit)
                negative += row[3][HIERO_SCORE] < 0.0
                one += row[3] == ONE.values
    assert negative > 50 and one > 50
