"""End-to-end combination of an NMT lattice with a hiero lattice.

The steps: prune the hiero lattice to a node budget (a mask over the
lattice, not a new machine), expand each UNK arc of the NMT lattice into
the runs it may stand for, find the cheapest typed-edit alignment of an
NMT path with a hiero path, and read the combined translation off that
alignment (NMT words, with each UNK replaced by its aligned hiero
words).  The edit statistics are the count features of the alignment's
weight.  The selected pair of hypotheses minimizes typed edit distance
plus the scaled model scores over all pairs the two lattices offer.

The alignment is one shortest-distance pass over pairs of lattice
states (Mohri, "Edit-Distance of Weighted Automata", 2003).  It finds
the same optimum, at the same cost and feature vector, as composing the
extended NMT lattice with the modified edit flower and the hiero lattice
and taking the shortest path, which is the paper's construction; but it
builds no flower and no composed machine, so its work does not depend on
the alphabet size.  Per-sentence combinations are independent.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field, replace as dc_replace
from typing import FrozenSet, Iterable, Sequence

from .algorithms import Mask, PathWitness, _prune_mask, nbest
from .editfst import edit_weight, expand_unk_runs
from .errors import ContractError, NoPathError, check_count
from .fst import (EPSILON, UNK, Row, Wfst, contract_errors, count_paths, dense_arcs,
                  has_negative, topological_order)
from .semiring import (
    CANONICAL_EPS,
    EDIT_COUNT,
    ONE,
    SUB_COUNT,
    UNK_EXT_COUNT,
    Dense,
    FeatureWeight,
    Key,
    ParamVector,
    dense_times,
    format_weight,
    search_key,
    times,
)

# The combination is designed around small NMT hypothesis sets; larger
# ones still work but deserve a nudge.
NMT_PATHS_SOFT_LIMIT = 20

HIERO_ONLY = ParamVector(nmt=0.0, hiero=1.0, edit=0.0, sub=0.0, ins=0.0)

# The alignment pass's view of a kept hiero arc: (cost, index among its
# state's kept arcs, target position, row, label); and of the move that
# set a cell: (source cell, NMT row, hiero row, edit values, hiero arc index).
_Entry = tuple[float, int, int, Row, int]
_Move = tuple[int, Row | None, Row | None, Dense, int]


@dataclass(frozen=True)
class CombinationParams:
    """Scaling and similarity parameters plus the NMT vocabulary (as labels)."""

    lambda_nmt: float = 1.0
    lambda_hiero: float = 1.0
    lambda_sub: float = 1.0
    lambda_edit: float = 2.0
    lambda_ins: float = 1.0
    max_unk_run: int = 3
    hiero_node_budget: int = 100_000
    nmt_vocab: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        self.as_param_vector()  # rejects a lambda that is not finite
        if not (self.lambda_sub >= 0.0 and self.lambda_edit > self.lambda_sub):
            raise ContractError(
                f"need lambda_edit > lambda_sub >= 0, got "
                f"lambda_edit={self.lambda_edit}, lambda_sub={self.lambda_sub}")
        if self.lambda_ins < 0.0:
            raise ContractError(f"lambda_ins must be nonnegative, got {self.lambda_ins}")
        if self.lambda_nmt < 0.0 or self.lambda_hiero < 0.0:
            raise ContractError("lambda_nmt and lambda_hiero must be nonnegative")
        check_count("max_unk_run", self.max_unk_run)
        check_count("hiero_node_budget", self.hiero_node_budget)
        object.__setattr__(self, "nmt_vocab", frozenset(self.nmt_vocab))
        if UNK in self.nmt_vocab or EPSILON in self.nmt_vocab:
            raise ContractError("the NMT vocabulary must not contain the UNK or epsilon labels")

    def as_param_vector(self) -> ParamVector:
        return ParamVector(nmt=self.lambda_nmt, hiero=self.lambda_hiero,
                           edit=self.lambda_edit, sub=self.lambda_sub, ins=self.lambda_ins)

    def with_vocab(self, vocab: Iterable[int]) -> "CombinationParams":
        return dc_replace(self, nmt_vocab=frozenset(vocab))


@dataclass(frozen=True)
class EditStats:
    """Per-sentence edit counts of the winning alignment.

    Each count is one feature of the alignment's weight:
    ``unk_extensions`` is UNK_EXT_COUNT, ``type2_subs`` (in-vocabulary UNK
    fills) is SUB_COUNT and ``type3_edits`` (all other edits) is
    EDIT_COUNT.  Free out-of-vocabulary fills are not counted.
    """

    unk_extensions: int = 0
    type2_subs: int = 0
    type3_edits: int = 0

    @property
    def exact_match(self) -> bool:
        return self.unk_extensions == 0 and self.type2_subs == 0 and self.type3_edits == 0


@dataclass(frozen=True)
class CombinationResult:
    """Combined translation plus the hypothesis pair and diagnostics.

    ``path`` is the winning alignment, arc by arc as the path of the
    machine composed through the edit flower would read (None when the
    result was assembled elsewhere, e.g. in reports).
    """

    t_comb: tuple[str, ...]
    t_nmt: tuple[str, ...]
    t_hiero: tuple[str, ...]
    total_cost: float
    feature_vector: FeatureWeight
    stats: EditStats
    source_id: str = ""
    path: PathWitness | None = field(default=None, repr=False, compare=False)

    def to_key_value_lines(self) -> list[str]:
        return [
            f"source_id={self.source_id}",
            f"t_comb={' '.join(self.t_comb)}",
            f"t_nmt={' '.join(self.t_nmt)}",
            f"t_hiero={' '.join(self.t_hiero)}",
            f"total_cost={_fmt(self.total_cost)}",
            f"feature_vector={format_weight(self.feature_vector)}",
            f"unk_extensions={self.stats.unk_extensions}",
            f"type2_subs={self.stats.type2_subs}",
            f"type3_edits={self.stats.type3_edits}",
            f"exact_match={'true' if self.stats.exact_match else 'false'}",
        ]


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _check_lattice(lattice: Wfst, kind: str) -> None:
    name = "NMT" if kind == "nmt" else kind
    if not lattice.frozen:
        raise ContractError(f"{name} lattice must be frozen")
    errors = contract_errors(lattice, kind)
    if errors:
        raise ContractError(f"{name} lattice: {errors[0]}")


def combine(nmt_lattice: Wfst, hiero_lattice: Wfst, params: CombinationParams,
            source_id: str = "") -> CombinationResult:
    """Run the full combination for one sentence pair.

    Both lattices must be frozen, share a symbol table and hold to
    :func:`~latcomb.fst.contract_errors` for their kind, which a frozen
    machine keeps (a lattice ``read_lattice`` checked is not walked
    again); anything else raises :class:`ContractError` before the search.

    Reading lattice scores as negative log-likelihoods gives the
    probabilistic view: exp(-total_cost) is the edit-similarity factor
    times the lambda-weighted likelihoods of the selected pair.  That is
    an identity on the returned cost, not a separate runtime semiring.

    The hiero side is the lattice as read, seen through what
    :func:`~latcomb.algorithms.prune_to_node_budget` keeps of it: kept
    states, arcs and final weights on the lattice's own state ids.  No
    pruned machine is built.

    Tie rule.  Alignments compare on (cost, feature vector in id order).
    Among exactly tied alignments the first one found wins: cells (NMT
    state, hiero state) are visited in lexicographic order of their (NMT,
    hiero) topological positions; from each cell, each outgoing arc of the
    extended NMT state is tried in arc order (an epsilon arc advances
    alone; any other arc is deleted, then paired with each non-epsilon
    kept hiero arc in arc order), then each kept hiero arc in arc order
    (an epsilon arc advances alone; any other arc is inserted); a cell
    takes a new value only on a strictly smaller key, and among final
    cells the first in visiting order with the smallest key wins.  The
    extended NMT machine is :func:`~latcomb.editfst.expand_unk_runs` of
    the lattice: the lattice's states keep their ids, each UNK arc is
    followed, in its state's arc order, by the first arc of its run chain,
    and the run states are numbered after the lattice's states.  The NMT
    positions are those of :func:`~latcomb.fst.topological_order` on that
    machine, the hiero positions those of the kept states in
    ``topological_order`` of the hiero lattice as read.  For example, NMT
    ``UNK die`` against hiero ``die`` (``die`` out of vocabulary) ties
    deleting the UNK with filling it and deleting ``die``; the deletion of
    the UNK is found first, so ``t_comb`` is ``die``.  The pass decides
    most moves on float cost estimates and does not try the hiero arcs
    that cannot win (see ``_best_alignment``); that leaves the rule
    unchanged, because such a move's exact key is strictly larger than
    the cell's current key, so it could not have taken the cell.  The
    hiero arcs of one group (from one cell and NMT arc, or the insertions
    from one cell, to one target cell) are tried in cost order, and an
    exactly equal key goes to the lower arc index, so each group leaves
    its target as trying its arcs in arc order would.
    """
    _check_lattice(nmt_lattice, "nmt")
    _check_lattice(hiero_lattice, "hiero")
    if not nmt_lattice.isyms.same_mapping(hiero_lattice.isyms):
        raise ContractError("the two lattices must share a symbol table")

    n_paths = count_paths(nmt_lattice)
    if n_paths is not None and n_paths > NMT_PATHS_SOFT_LIMIT:
        warnings.warn(f"NMT lattice holds {n_paths} hypotheses; the combination is tuned "
                      f"for small sets (<= {NMT_PATHS_SOFT_LIMIT})", stacklevel=2)

    mask = _prune_mask(hiero_lattice, params.hiero_node_budget, HIERO_ONLY)
    extended_nmt = expand_unk_runs(nmt_lattice, params.max_unk_run)

    path = _best_alignment(extended_nmt, hiero_lattice, mask, params.nmt_vocab,
                           params.as_param_vector())
    counts = path.weight.values

    syms = nmt_lattice.isyms
    return CombinationResult(
        t_comb=tuple(syms.word(l) for l in path.unk_filled_labels()),
        t_nmt=tuple(syms.word(l) for l in path.input_labels()),
        t_hiero=tuple(syms.word(l) for l in path.output_labels()),
        total_cost=path.cost,
        feature_vector=path.weight,
        stats=EditStats(unk_extensions=int(counts[UNK_EXT_COUNT]),
                        type2_subs=int(counts[SUB_COUNT]),
                        type3_edits=int(counts[EDIT_COUNT])),
        source_id=source_id,
        path=path,
    )


def _best_alignment(nmt: Wfst, hiero: Wfst, mask: Mask, nmt_vocab: FrozenSet[int],
                    params: ParamVector) -> PathWitness:
    """Cheapest typed-edit alignment of an NMT path with a hiero path.

    A forward shortest-distance pass over the cells (NMT state, hiero
    state) of two acyclic machines that have initial states (``combine``
    checks both), in the order and with the moves that :func:`combine`
    documents; the hiero machine is read through ``mask``, what
    :func:`~latcomb.algorithms._prune_mask` keeps of it.  NMT output
    labels are matched against hiero input labels; the returned path
    writes (NMT input label, hiero output label) on each arc and carries
    the same per-arc weights as the composition with the modified flower
    would.

    Weight values are accumulated with
    :func:`~latcomb.semiring.dense_times` and compared by
    :func:`~latcomb.semiring.search_key`, the order every search uses.
    Every feature of an aligned pair comes from one side, because
    ``combine``'s contract check admits no foreign feature; so the cost
    and feature vector are bit-identical to the shortest path of the
    composed machine.  Raises :class:`NoPathError` when either machine
    accepts nothing.

    Cells are scalar first.  A cell holds a float estimate of its cost
    and the move that set it: the source cell's estimate plus the costs
    of the arc and edit weights the move adds.  Its value vector and
    exact key are built, and kept, only when a move's estimate comes
    within ``2 * slack`` of the cell's (a near tie, settled by the exact
    strict ``<`` on keys), at acceptance and for the path.  An estimate
    more than ``2 * slack`` above the cell's loses, one more than that
    below it wins, and both are decided on floats alone.

    Why that is exact: let ``mass`` be sum_k |p_k| times the total
    magnitude of feature k over everything one path can add up (every
    arc and final weight the pass reads of both machines, plus one edit
    count per move).  Every term an estimate or an exact cost adds has
    magnitude at most ``mass``.  Over the reals the two are the same sum;
    in floats each takes a few roundings of relative size 2**-53 per
    move, and the exact vector may also zero, once per move, entries
    below CANONICAL_EPS.  A path makes fewer than ``steps`` moves, so
    their gap is far below ``slack = (1e-9 + 1e-15 * steps) * mass +
    CANONICAL_EPS * steps * sum_k |p_k|`` (plus the smallest normal
    float, against underflow), however much large positive and negative
    scores cancel.  A NaN estimate is never decided on floats, and when
    ``mass`` nears the float range the slack is infinite, so every move
    is settled exactly.

    Most moves lose, so from each cell and NMT arc the pass tries only
    the hiero arcs that can win.  It groups each kept hiero state's word
    arcs by target and sorts each group of two or more by (arc cost, arc
    index).  A label that is not UNK tries a group's arcs with its own
    label (free matches) first, then the others in cost order, each at
    one and the same edit cost (:func:`~latcomb.editfst.edit_weight`
    types every other word alike), and stops at the first that loses on
    floats; UNK tries the group in cost order, each word at its typed
    edit cost, and stops once the estimate without the edit cost loses.
    Insertions, at one and the same edit cost for every word, try each
    group in cost order and stop at the first that loses.  An arc alone
    on its target, and an epsilon arc, is just tried.  Both cuts are
    exact.  Float addition is monotone and edit costs are nonnegative, so
    every arc after the stop loses too.  A group (the moves from one cell
    and NMT arc, or the insertions from one cell, to one target) changes
    its target only through its first minimum by (key, arc index), and
    the cell keeps the arc index of the move that set it: an exactly
    equal key from the same group goes to the lower index.  So the group
    leaves the cell as trying its arcs in arc order would.
    """
    keep, hiero_arcs, hiero_finals = mask
    kept = set(keep)
    order_n = topological_order(nmt)
    order_h = [s for s in topological_order(hiero) if s in kept]
    assert order_n is not None
    pos_n = {s: i for i, s in enumerate(order_n)}
    pos_h = {s: j for j, s in enumerate(order_h)}
    width = len(order_h)
    key = search_key(params)

    def cost(v: Dense) -> float:
        return key(v)[0]

    # Edit weights as (values, cost).  Edit typing yields a few distinct
    # weights, so each one's cost is computed once, by its values.
    scored = functools.cache(lambda v: (v, cost(v)))

    # Per hiero position, its arcs as (cost, index, target, arc, label):
    # the word arcs alone on their target; the other word arcs grouped by
    # target, each group sorted by (cost, index), and the same arcs by
    # label; the epsilon arcs.
    hiero_moves: list[tuple[list[_Entry], list[tuple[int, list[_Entry]]],
                            dict[int, list[_Entry]], list[_Entry]]] = []
    words: list[int] = []  # two distinct hiero words, if there are two
    for s in order_h:
        targets: dict[int, list[_Entry]] = {}
        skips: list[_Entry] = []
        for rank, h in enumerate(hiero_arcs[s]):
            y = h[1]
            entry = (key(h[3])[0], rank, pos_h[h[0]], h, y)
            if y == EPSILON:
                skips.append(entry)
                continue
            targets.setdefault(entry[2], []).append(entry)
            if len(words) < 2 and y not in words:
                words.append(y)
        singles: list[_Entry] = []
        groups: list[tuple[int, list[_Entry]]] = []
        labels: dict[int, list[_Entry]] = {}
        for t_j, group in targets.items():
            if len(group) == 1:
                singles.append(group[0])
                continue
            group.sort()
            groups.append((t_j, group))
            for entry in group:
                labels.setdefault(entry[4], []).append(entry)
        hiero_moves.append((singles, groups, labels, skips))

    # Edit typing charges alike for inserting any word, and for pairing a
    # label that is not UNK with any word but itself; so those weights are
    # typed once, with the first hiero words.
    w_skip, s_skip = scored(edit_weight(nmt_vocab, EPSILON, EPSILON).values)
    w_ins, s_ins = scored(edit_weight(nmt_vocab, EPSILON, words[0]).values) if words \
        else (None, 0.0)

    # Per NMT label: the values and cost of deleting it; the weights of
    # pairing it with the words typed one by one (filled on demand for
    # UNK); the weight of pairing it with every other word (None for UNK)
    # and a floor under their costs; and the free match.
    arcs_n = dense_arcs(nmt)
    pairings: dict[int, tuple] = {}
    for x in {r[2] for rows in arcs_n for r in rows}:
        deleting = scored(edit_weight(nmt_vocab, x, EPSILON).values)
        if x == UNK:  # the hiero side has no UNK to match
            pairings[x] = (*deleting, {}, None, 0.0, ONE.values, 0.0)
            continue
        match = scored(edit_weight(nmt_vocab, x, x).values)
        other = [y for y in words if y != x]
        sub = scored(edit_weight(nmt_vocab, x, other[0]).values) if other else None
        pairings[x] = (*deleting, {x: match}, sub, 0.0 if sub is None else sub[1], *match)

    # Moves per NMT position: (arc, label matched, target base, arc cost,
    # then the label's pairings).  An epsilon arc advances alone: its
    # edit weight is ONE.
    nmt_moves = [[(a, a[2], pos_n[a[0]] * width, key(a[3])[0], *pairings[a[2]])
                  for a in arcs_n[s]] for s in order_n]

    # The slack, from the weights' magnitudes (see the docstring).
    absp = [abs(p) for p in params.as_tuple()]
    totals = [sum(map(abs, column)) for column in zip(
        *[r[3] for machine in (arcs_n, hiero_arcs) for rows in machine for r in rows],
        *[fw.values for _, fw in nmt.finals()], *[fw.values for fw in hiero_finals.values()])]
    totals[EDIT_COUNT] += nmt.num_states + width
    totals[SUB_COUNT] += nmt.num_states + width
    mass = sum(p * v for p, v in zip(absp, totals))
    steps = len(order_n) + width
    slack = math.inf
    if mass < 1e300:
        slack = ((1e-9 + 1e-15 * steps) * mass + CANONICAL_EPS * steps * sum(absp)
                 + sys.float_info.min)
    twice = 2.0 * slack

    signed = has_negative(nmt) or has_negative(hiero)
    size = len(order_n) * width
    # Per cell: the estimate; the estimate plus 2 * slack, above which a
    # move loses; the move that set it, as (source cell, NMT arc, hiero
    # arc, edit values, hiero arc index); and its value vector once built.
    est = [math.inf] * size
    high = [math.inf] * size
    back: list[_Move | None] = [None] * size
    vec: list[Dense | None] = [None] * size

    def step(d: Dense, move: _Move) -> Dense:
        # Three-term sums zero entries once, at the end (inner signed=False):
        # with each feature coming from one side, that equals zeroing after
        # each addition.
        _, a, h, e, _ = move
        if a is None:
            return dense_times(dense_times(d, e, False), h[3], signed)
        d = dense_times(d, a[3], False)
        if h is None:
            return dense_times(d, e, signed)
        return dense_times(dense_times(d, e, False), h[3], signed)

    def exact(c: int) -> Dense:
        chain = []
        while vec[c] is None:
            chain.append(c)
            c = back[c][0]
        d = vec[c]
        for c in reversed(chain):
            d = vec[c] = step(d, back[c])
        return d

    def relax(t: int, e: float, move: _Move) -> None:
        # The caller has checked that e is not above high[t].  An unset
        # cell's estimate is inf, so with a finite slack any finite e wins.
        if e < est[t] - twice:
            est[t], high[t], back[t], vec[t] = e, e + twice, move, None
            return
        v = step(exact(move[0]), move)
        old = back[t]
        if old is not None:
            v_old = exact(t)
            if v == v_old:  # equal keys: a lower arc index of the same group takes the cell
                if not (old[0] == move[0] and old[1] is move[1] and move[4] < old[4]):
                    return
            elif not key(v) < key(v_old):
                return
        e = cost(v)
        est[t], high[t], back[t], vec[t] = e, e + twice, move, v

    start = pos_n[nmt.initial] * width + pos_h[hiero.initial]
    est[start], vec[start] = cost(ONE.values), ONE.values
    back[start] = (start, None, None, ONE.values, 0)  # reached; never followed
    for i in range(pos_n[nmt.initial], len(order_n)):
        moves_n = nmt_moves[i]
        base = i * width
        for j in range(width):
            c = base + j
            if back[c] is None:
                continue
            est_c = est[c]
            singles, groups, labels, skips = hiero_moves[j]
            for a, x, t_base, s_a, w_del, s_del, typed, sub, s_sub, w_m, s_m in moves_n:
                est_a = est_c + s_a
                t = t_base + j
                e = est_a + s_del
                if not e > high[t]:
                    relax(t, e, (c, a, None, w_del, 0))
                if x == EPSILON:
                    continue
                for s_h, rank, t_j, h, y in singles:
                    w_e = typed.get(y, sub)
                    if w_e is None:
                        w_e = typed[y] = scored(edit_weight(nmt_vocab, x, y).values)
                    t = t_base + t_j
                    e = est_a + w_e[1] + s_h
                    if not e > high[t]:
                        relax(t, e, (c, a, h, w_e[0], rank))
                if not groups:
                    continue
                # A group: the free matches, then the other words in cost order.
                for s_h, rank, t_j, h, _ in labels.get(x, ()):
                    t = t_base + t_j
                    e = est_a + s_m + s_h
                    if not e > high[t]:
                        relax(t, e, (c, a, h, w_m, rank))
                floor = est_a + s_sub
                for t_j, group in groups:
                    t = t_base + t_j
                    for s_h, rank, _, h, y in group:
                        if floor + s_h > high[t]:
                            break
                        if y == x:
                            continue
                        w_e = typed.get(y, sub)
                        if w_e is None:
                            w_e = typed[y] = scored(edit_weight(nmt_vocab, x, y).values)
                        e = est_a + w_e[1] + s_h
                        if not e > high[t]:
                            relax(t, e, (c, a, h, w_e[0], rank))
            # Insertions, each word at the same edit cost, then epsilon arcs.
            est_i = est_c + s_ins
            for s_h, rank, t_j, h, _ in singles:
                t = base + t_j
                e = est_i + s_h
                if not e > high[t]:
                    relax(t, e, (c, None, h, w_ins, rank))
            for t_j, group in groups:
                t = base + t_j
                for s_h, rank, _, h, _ in group:
                    e = est_i + s_h
                    if e > high[t]:
                        break
                    relax(t, e, (c, None, h, w_ins, rank))
            for s_h, rank, t_j, h, _ in skips:
                t = base + t_j
                e = est_c + s_skip + s_h
                if not e > high[t]:
                    relax(t, e, (c, None, h, w_skip, rank))

    # Acceptance: the final cells in visiting order, first smallest key wins.
    best: Key | None = None
    accepted = start
    for i in sorted(pos_n[s] for s, _ in nmt.finals()):
        fw_n = nmt.final_weight(order_n[i]).values
        for j in sorted(pos_h[s] for s in hiero_finals):
            c = i * width + j
            if back[c] is not None:
                fw_h = hiero_finals[order_h[j]].values
                k = key(dense_times(dense_times(exact(c), fw_n, False), fw_h, signed))
                if best is None or k < best:
                    best, accepted = k, c
    if best is None:
        raise NoPathError("no path from the initial state to a final state")

    # Rebuild the path with the weights the composed machine's arcs carry.
    c = accepted
    final_weight = times(nmt.final_weight(order_n[c // width]),
                         hiero_finals[order_h[c % width]])
    rows: list[Row] = []
    while c != start:
        src, a, h, _, _ = back[c]
        w = edit_weight(nmt_vocab, EPSILON if a is None else a[2],
                        EPSILON if h is None else h[1]).values
        if a is not None:
            w = dense_times(a[3], w, True)
        if h is not None:
            w = dense_times(w, h[3], True)
        rows.append((c, EPSILON if a is None else a[1], EPSILON if h is None else h[2], w))
        c = src
    rows.reverse()
    return PathWitness(rows=tuple(rows), final_weight=final_weight,
                       weight=FeatureWeight(best[1]), cost=best[0])


@dataclass(frozen=True)
class CorpusReport:
    """Corpus-level aggregation of per-sentence combination outcomes."""

    num_sentences: int
    avg_unk_extensions: float
    avg_type2_subs: float
    avg_type3_edits: float
    pct_unk_extensions: float
    pct_type2_subs: float
    pct_type3_edits: float
    pct_exact_match: float
    pct_hiero_unchanged: float
    nbest_membership: tuple[tuple[int, float], ...]

    def to_key_value_lines(self) -> list[str]:
        lines = [
            f"num_sentences={self.num_sentences}",
            f"avg_unk_extensions={_fmt(self.avg_unk_extensions)}",
            f"pct_unk_extensions={_fmt(self.pct_unk_extensions)}",
            f"avg_type2_subs={_fmt(self.avg_type2_subs)}",
            f"pct_type2_subs={_fmt(self.pct_type2_subs)}",
            f"avg_type3_edits={_fmt(self.avg_type3_edits)}",
            f"pct_type3_edits={_fmt(self.pct_type3_edits)}",
            f"pct_exact_match={_fmt(self.pct_exact_match)}",
            f"pct_hiero_unchanged={_fmt(self.pct_hiero_unchanged)}",
        ]
        lines.extend(f"pct_hiero_in_{n}best={_fmt(pct)}" for n, pct in self.nbest_membership)
        return lines

    def to_tsv_lines(self) -> list[str]:
        lines = ["measure\tavg_per_sentence\tpct_affected"]
        lines.append(f"unk_extensions\t{_fmt(self.avg_unk_extensions)}\t{_fmt(self.pct_unk_extensions)}")
        lines.append(f"type2_subs\t{_fmt(self.avg_type2_subs)}\t{_fmt(self.pct_type2_subs)}")
        lines.append(f"type3_edits\t{_fmt(self.avg_type3_edits)}\t{_fmt(self.pct_type3_edits)}")
        lines.append(f"exact_match\t-\t{_fmt(self.pct_exact_match)}")
        lines.append(f"hiero_unchanged\t-\t{_fmt(self.pct_hiero_unchanged)}")
        for n, pct in self.nbest_membership:
            lines.append(f"hiero_in_{n}best\t-\t{_fmt(pct)}")
        return lines


def corpus_report(results: Sequence[CombinationResult], hiero_lattices: Sequence[Wfst],
                  n_values: Sequence[int] = (1, 10, 100)) -> CorpusReport:
    """Aggregate edit statistics and hiero-side selection behavior.

    Reports, per edit class, the average count per sentence and the
    percentage of sentences with a nonzero count; the percentage of
    sentences whose selected hiero hypothesis is the hiero 1-best; and,
    for each n, the percentage of sentences whose selected hiero
    hypothesis appears among the n cheapest unique hiero strings.
    """
    if not results:
        raise ContractError("corpus report needs at least one result")
    if len(results) != len(hiero_lattices):
        raise ContractError("need exactly one hiero lattice per result")
    if len(set(n_values)) != len(n_values):
        raise ContractError(f"each n may appear only once, got {list(n_values)}")
    total = len(results)

    def avg(getter) -> float:
        return sum(getter(r) for r in results) / total

    def pct(predicate) -> float:
        return 100.0 * sum(1 for r in results if predicate(r)) / total

    # One unique n-best search per lattice at the largest n; the list for
    # a smaller n is its prefix, and its first entry is the 1-best.
    deepest = max(n_values, default=1)
    unchanged = 0
    hits = {n: 0 for n in n_values}
    for result, lattice in zip(results, hiero_lattices):
        ranked = [tuple(lattice.osyms.word(l) for l in p.output_labels())
                  for p in nbest(lattice, deepest, HIERO_ONLY, unique=True)]
        rank = ranked.index(result.t_hiero) if result.t_hiero in ranked else deepest
        if rank == 0:
            unchanged += 1
        for n in n_values:
            if rank < n:
                hits[n] += 1

    return CorpusReport(
        num_sentences=total,
        avg_unk_extensions=avg(lambda r: r.stats.unk_extensions),
        avg_type2_subs=avg(lambda r: r.stats.type2_subs),
        avg_type3_edits=avg(lambda r: r.stats.type3_edits),
        pct_unk_extensions=pct(lambda r: r.stats.unk_extensions > 0),
        pct_type2_subs=pct(lambda r: r.stats.type2_subs > 0),
        pct_type3_edits=pct(lambda r: r.stats.type3_edits > 0),
        pct_exact_match=pct(lambda r: r.stats.exact_match),
        pct_hiero_unchanged=100.0 * unchanged / total,
        nbest_membership=tuple((n, 100.0 * hits[n] / total) for n in n_values),
    )
