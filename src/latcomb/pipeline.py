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
states (Mohri, "Edit-Distance of Weighted Automata", 2003), over only
the pairs that an A* search finds can hold the optimum.  It finds
the same optimum, at the same cost and feature vector, as composing the
extended NMT lattice with the modified edit flower and the hiero lattice
and taking the shortest path, which is the paper's construction; but it
builds no flower and no composed machine, so its work does not depend on
the alphabet size.  Per-sentence combinations are independent.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace as dc_replace
from heapq import heappop, heappush
from typing import Callable, FrozenSet, Iterable, Sequence

from .algorithms import Mask, PathWitness, _prune_mask, iter_nbest
from .editfst import edit_weight, expand_unk_runs
from .errors import ContractError, NoPathError, check_count
from .fst import (EPSILON, UNK, Row, Wfst, contract_errors, count_paths, dense_arcs,
                  has_negative, magnitudes, topological_order)
from .semiring import (
    CANONICAL_EPS,
    EDIT_COUNT,
    HIERO_SCORE,
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
    the UNK is found first, so ``t_comb`` is ``die``.  The pass visits
    only the cells that can hold an alignment within a margin of the
    optimum, decides most moves on float cost estimates, and does not try
    the hiero arcs that cannot win (see ``_best_alignment``).  That leaves
    the rule unchanged: a skipped cell or move could not have taken a cell
    of the winning alignment, whose exact key is strictly smaller, and a
    group of hiero arcs tried in cost order leaves its target as trying
    them in arc order would.
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


# Phase 1 runs when the kept hiero states have at least this many
# successor states on average.  In a chain or a sausage (fewer than one)
# every hiero state lies on every path, only the length gap can rule a
# cell out, and the heap costs more than it saves (CHANGES.md has the sweep).
_REGION_MIN_BRANCHING = 1.25


class _MoveTables:
    """What both traversals of the cells read, built once per sentence.

    Cell (i, j), of NMT position i and kept hiero position j, is
    ``i * width + j``; ``nmt_moves[i]`` and ``hiero_moves[j]`` hold the
    moves out of it (see :func:`_best_alignment`).  A kept hiero arc costs
    ``0.0 + params.hiero * score``, bit for bit its ``search_key`` cost on
    what ``combine`` admits: hiero arcs carry no other feature and every
    lambda is finite and nonnegative, so every other term of the sum is 0.
    """

    def __init__(self, nmt: Wfst, hiero: Wfst, mask: Mask, nmt_vocab: FrozenSet[int],
                 params: ParamVector) -> None:
        keep, hiero_arcs, hiero_finals = mask
        kept = set(keep)
        order_n = topological_order(nmt)
        assert order_n is not None
        order_h = [s for s in topological_order(hiero) if s in kept]
        self.pos_n = pos_n = {s: i for i, s in enumerate(order_n)}
        self.pos_h = pos_h = {s: j for j, s in enumerate(order_h)}
        self.nmt, self.order_n, self.order_h, self.hiero_finals = nmt, order_n, order_h, \
            hiero_finals
        self.width = width = len(order_h)
        self.size = len(order_n) * width
        self.start = pos_n[nmt.initial] * width + pos_h[hiero.initial]
        self.key = key = search_key(params)
        self.nmt_vocab, self.lambda_edit, lam_h = nmt_vocab, params.edit, params.hiero
        self.cost = lambda v: key(v)[0]
        self._scored: dict[Dense, tuple[Dense, float]] = {}  # edit typing yields few weights

        # Per hiero position, its arcs as (cost, index, target, arc, label):
        # the word arcs alone on their target; the other word arcs grouped by
        # target, each group sorted by (cost, index), and the same arcs by
        # label; the epsilon arcs.
        self.hiero_moves = hiero_moves = []
        self.branches = 0  # successor states summed over the kept states
        words: list[int] = []  # two distinct hiero words, if there are two
        for s in order_h:
            targets: dict[int, list[_Entry]] = {}
            skips: list[_Entry] = []
            for rank, h in enumerate(hiero_arcs[s]):
                y = h[1]
                entry = (0.0 + lam_h * h[3][HIERO_SCORE], rank, pos_h[h[0]], h, y)
                if y == EPSILON:
                    skips.append(entry)
                    continue
                targets.setdefault(entry[2], []).append(entry)
                if len(words) < 2 and y not in words:
                    words.append(y)
            self.branches += len(targets) + len(skips)
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
        self.w_skip, self.s_skip = self.scored(edit_weight(nmt_vocab, EPSILON, EPSILON).values)
        self.w_ins, self.s_ins = self.scored(edit_weight(nmt_vocab, EPSILON, words[0]).values) \
            if words else (None, 0.0)

        # Per NMT label: the values and cost of deleting it; the weights of
        # pairing it with the words typed one by one (filled on demand for
        # UNK, by type_pair); the weight of pairing it with every other word
        # (None for UNK) and a floor under their costs; and the free match.
        arcs_n = dense_arcs(nmt)
        pairings: dict[int, tuple] = {}
        for x in {r[2] for rows in arcs_n for r in rows}:
            deleting = self.scored(edit_weight(nmt_vocab, x, EPSILON).values)
            if x == UNK:  # the hiero side has no UNK to match
                pairings[x] = (*deleting, {}, None, 0.0, ONE.values, 0.0)
                continue
            match = self.scored(edit_weight(nmt_vocab, x, x).values)
            other = [y for y in words if y != x]
            sub = self.scored(edit_weight(nmt_vocab, x, other[0]).values) if other else None
            pairings[x] = (*deleting, {x: match}, sub, 0.0 if sub is None else sub[1], *match)

        # Moves per NMT position: (arc, label matched, target base, arc cost,
        # then the label's pairings).  An epsilon arc advances alone: its
        # edit weight is ONE.
        self.nmt_moves = [[(a, a[2], pos_n[a[0]] * width, key(a[3])[0], *pairings[a[2]])
                           for a in arcs_n[s]] for s in order_n]

        # The slack, from the weights' magnitudes (see _best_alignment).
        absp = [abs(p) for p in params.as_tuple()]
        totals = [a + b for a, b in zip(magnitudes(nmt), magnitudes(hiero))]
        totals[EDIT_COUNT] += nmt.num_states + width
        totals[SUB_COUNT] += nmt.num_states + width
        mass = sum(p * v for p, v in zip(absp, totals))
        steps = len(order_n) + width
        self.slack = math.inf
        if mass < 1e300:
            self.slack = ((1e-9 + 1e-15 * steps) * mass + CANONICAL_EPS * steps * sum(absp)
                          + sys.float_info.min)
        self.signed = has_negative(nmt) or has_negative(hiero)

    def scored(self, v: Dense) -> tuple[Dense, float]:
        """Edit weight values with their cost, computed once per distinct values."""
        return self._scored.get(v) or self._scored.setdefault(v, (v, self.cost(v)))

    def type_pair(self, typed: dict, x: int, y: int) -> tuple[Dense, float]:
        """Type the pairing of ``x`` with ``y`` and keep it in ``typed``, x's table."""
        return typed.setdefault(y, self.scored(edit_weight(self.nmt_vocab, x, y).values))


def _to_go(finals: list[float], moves: list[list[_Entry]]) -> tuple[list, list, list]:
    """Per position, whose moves (cost, _, target, _, label) lead to later ones: the cheapest
    cost on to a final, the fewest and most tokens (non-epsilon labels) on the way."""
    inf, cost = math.inf, finals[:]
    lo, hi = [0 if f < inf else inf for f in finals], [0 if f < inf else -inf for f in finals]
    for p in reversed(range(len(finals))):
        c, l, h = cost[p], lo[p], hi[p]
        for w, _, t, _, y in moves[p]:
            token = y != EPSILON
            if cost[t] + w < c:
                c = cost[t] + w
            if lo[t] + token < l:
                l = lo[t] + token
            if hi[t] + token > h:
                h = hi[t] + token
        cost[p], lo[p], hi[p] = c, l, h
    return cost, lo, hi


def _heuristic(tab: _MoveTables) -> tuple[list[float], list[float], list[list[_Entry]], Callable]:
    """Per NMT and kept hiero position its final cost; per hiero position its cheapest
    word arc to each target, then its epsilon arcs; and h(cell) (see _best_alignment)."""
    inf, width, cost, lam = math.inf, tab.width, tab.cost, tab.lambda_edit
    advances = [singles + [g[0] for _, g in groups] + skips if groups or skips else singles
                for singles, groups, _, skips in tab.hiero_moves]
    final_n = [inf if fw is None else cost(fw.values)
               for fw in map(tab.nmt.final_weight, tab.order_n)]
    final_h = [cost(tab.hiero_finals[s].values) if s in tab.hiero_finals else inf
               for s in tab.order_h]
    cn, lo_n, hi_n = _to_go(final_n, [[(m[3], 0, m[2] // width, 0, m[1]) for m in row]
                                      for row in tab.nmt_moves])
    ch, lo_h, hi_h = _to_go(final_h, advances)

    def h(c: int) -> float:
        i, j = divmod(c, width)
        return cn[i] + ch[j] + lam * max(0, lo_n[i] - hi_h[j], lo_h[j] - hi_n[i])

    return final_n, final_h, advances, h


def _region(tab: _MoveTables) -> list[list[int]] | None:
    """Phase 1 of :func:`_best_alignment`: per NMT position, the sorted
    hiero positions of the cells A* closes; None for every cell."""
    if tab.branches < _REGION_MIN_BRANCHING * tab.width or tab.slack == math.inf:
        return None
    inf, width, cost, type_pair = math.inf, tab.width, tab.cost, tab.type_pair
    s_ins, s_skip, nmt_moves, hiero_moves = tab.s_ins, tab.s_skip, tab.nmt_moves, tab.hiero_moves
    final_n, final_h, advances, heuristic = _heuristic(tab)
    est = [inf] * tab.size
    heap: list[tuple[float, int, float]] = []
    closed: list[int] = []

    def push(c: int, e: float) -> None:
        est[c] = e
        h = heuristic(c)
        if h < inf:
            heappush(heap, (e + h, c, e))

    push(tab.start, cost(ONE.values))
    limit, margin = inf, 4.0 * tab.slack
    while heap:
        f, c, est_c = heappop(heap)
        if f > limit:
            break
        if est_c > est[c]:  # superseded by a cheaper push
            continue
        closed.append(c)
        i, j = divmod(c, width)
        singles, groups, _, _ = hiero_moves[j]
        limit = min(limit, est_c + final_n[i] + final_h[j] + margin)
        for _, x, t_base, s_a, _, s_del, typed, sub, _, _, _ in nmt_moves[i]:
            est_a = est_c + s_a
            if est_a + s_del < est[t_base + j]:
                push(t_base + j, est_a + s_del)
            if x == EPSILON:
                continue
            for s_h, _, t_j, _, y in singles:
                e = est_a + (typed.get(y, sub) or type_pair(typed, x, y))[1] + s_h
                if e < est[t_base + t_j]:
                    push(t_base + t_j, e)
            for t_j, group in groups:
                t = t_base + t_j
                for s_h, _, _, _, y in group:  # edit costs are nonnegative
                    if est_a + s_h >= est[t]:
                        break
                    e = est_a + (typed.get(y, sub) or type_pair(typed, x, y))[1] + s_h
                    if e < est[t]:
                        push(t, e)
        for s_h, _, t_j, _, y in advances[j]:
            e = est_c + (s_skip if y == EPSILON else s_ins) + s_h
            if e < est[i * width + t_j]:
                push(i * width + t_j, e)
    region: list[list[int]] = [[] for _ in tab.order_n]
    for c in sorted(set(closed)):
        region[c // width].append(c % width)
    return region


def _best_alignment(nmt: Wfst, hiero: Wfst, mask: Mask, nmt_vocab: FrozenSet[int],
                    params: ParamVector) -> PathWitness:
    """Cheapest typed-edit alignment of an NMT path with a hiero path.

    A shortest-distance search over the cells (NMT state, hiero state) of
    two acyclic machines that have initial states (``combine`` checks
    both), with the moves that :func:`combine` documents; the hiero
    machine is read through ``mask``, what
    :func:`~latcomb.algorithms._prune_mask` keeps of it.  NMT output
    labels are matched against hiero input labels; the returned path
    writes (NMT input label, hiero output label) on each arc and carries
    the same per-arc weights as the composition with the modified flower
    would.  Raises :class:`NoPathError` when no final cell is reachable.

    Two phases read one set of :class:`_MoveTables`.  Phase 1
    (:func:`_region`) is A* over the cells on float estimates (Hart,
    Nilsson and Raphael, 1968) with h(i, j) = cn(i) + ch(j) + lambda_edit
    * max(0, lo_n(i) - hi_h(j), lo_h(j) - hi_n(i)) (:func:`_heuristic`):
    per position, c is the cheapest cost on to a final state and lo, hi
    the fewest and most tokens on the way (epsilon arcs count none, UNK
    run arcs one; hiero through the mask).  Completions cost at least cn
    and ch in arcs and final weights, and lambda_edit per token of their
    length gap (insertions or deletions; pair edits cost >= 0): h is
    admissible.  It is consistent, h(c) <= w + h(c') for each move c -> c'
    of cost w, whatever the signs of the scores: cn and ch are; a pair
    move shifts both token ranges by one, an epsilon arc neither, and an
    insertion or deletion widens the gap by at most one and pays
    lambda_edit.  A* stops once the least g + h on its heap exceeds the
    cheapest final estimate it closed plus ``4 * slack``; its closed cells
    are the region.  Phase 2 (the exact pass below) visits only the
    region: a cell outside it keeps ``high = -inf``, so every move into it
    loses on the float screen.  Each cell of the winning alignment has
    g + h <= f* over the reals.  An estimate and h (path costs, and
    lambda_edit times fewer than ``steps`` tokens, all within ``mass``)
    are within far less than ``slack``, and an exact key within ``slack``,
    of their real sums, so its g + h is below the stop.  Its winning move
    is still there and every other move into it is missing or no cheaper,
    in the same order, so the result, ties included, is the full pass's.
    The region is every cell when the slack is infinite or the kept hiero
    states average fewer than ``_REGION_MIN_BRANCHING`` successors.

    Weight values are accumulated with
    :func:`~latcomb.semiring.dense_times` and compared by
    :func:`~latcomb.semiring.search_key`, the order every search uses.
    Every feature of an aligned pair comes from one side, because
    ``combine``'s contract check admits no foreign feature; so the cost
    and feature vector are bit-identical to the shortest path of the
    composed machine.

    Cells are scalar first.  A cell holds a float estimate of its cost
    and the move that set it: the source cell's estimate plus the costs
    of the arc and edit weights the move adds.  Its value vector and
    exact key are built, and kept, only when a move's estimate comes
    within ``2 * slack`` of the cell's (a near tie, settled by the exact
    strict ``<`` on keys), at acceptance and for the path.  An estimate
    more than ``2 * slack`` above the cell's loses, one more than that
    below it wins, and both are decided on floats alone.

    Why that is exact: let ``mass`` be sum_k |p_k| times the total
    magnitude of feature k over every arc and final weight of both
    machines (:func:`~latcomb.fst.magnitudes`), plus one edit count per
    move.  Every term an estimate or an exact cost adds has magnitude at
    most ``mass``.  Over the reals the two are the same sum; in floats
    each takes a few roundings of relative size 2**-53 per move, and the
    exact vector may also zero, once per move, entries below
    CANONICAL_EPS.  A path makes fewer than ``steps`` moves, so their gap
    is far below ``slack = (1e-9 + 1e-15 * steps) * mass + CANONICAL_EPS
    * steps * sum_k |p_k|`` (plus the smallest normal float, against
    underflow), however much large positive and negative scores cancel.
    A NaN estimate is never decided on floats, and when ``mass`` nears
    the float range the slack is infinite, so every move is settled
    exactly.

    Most moves lose, so the pass tries only the hiero arcs that can win.
    Each kept hiero state's word arcs to one target form a group, sorted
    by (arc cost, arc index).  A label that is not UNK tries its free
    matches first, then the other words in cost order, all at one edit
    cost (:func:`~latcomb.editfst.edit_weight` types them alike); UNK
    and insertions try the group in cost order.  Each stops at the first
    arc that loses on floats, UNK even without its typed edit cost: float
    addition is monotone and edit costs are nonnegative, so every later
    arc loses too.  A group changes its target only through its first
    minimum by (key, arc index), an equal key from the same group going
    to the lower index, as trying its arcs in arc order would.
    """
    tab = _MoveTables(nmt, hiero, mask, nmt_vocab, params)
    region = _region(tab)
    order_n, order_h, pos_n, pos_h, hiero_finals = tab.order_n, tab.order_h, tab.pos_n, \
        tab.pos_h, tab.hiero_finals
    width, size, start, hiero_moves, nmt_moves = tab.width, tab.size, tab.start, \
        tab.hiero_moves, tab.nmt_moves
    key, cost, signed, type_pair = tab.key, tab.cost, tab.signed, tab.type_pair
    w_skip, s_skip, w_ins, s_ins = tab.w_skip, tab.s_skip, tab.w_ins, tab.s_ins
    twice = 2.0 * tab.slack

    # Per cell: the estimate; the estimate plus 2 * slack, above which a
    # move loses (-inf outside the region); the move that set it, as
    # (source cell, NMT arc, hiero arc, edit values, hiero arc index); and
    # its value vector once built.
    est = [math.inf] * size
    high = [math.inf] * size
    if region is not None:
        high = [-math.inf] * size
        for i, row in enumerate(region):
            for j in row:
                high[i * width + j] = math.inf
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

    est[start], vec[start] = cost(ONE.values), ONE.values
    back[start] = (start, None, None, ONE.values, 0)  # reached; never followed
    for i in range(start // width, len(order_n)):
        moves_n = nmt_moves[i]
        base = i * width
        for j in range(width) if region is None else region[i]:
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
                    w_e = typed.get(y, sub) or type_pair(typed, x, y)
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
                        w_e = typed.get(y, sub) or type_pair(typed, x, y)
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
        src, a, h, w, _ = back[c]
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

    def _rows(self) -> list[tuple[str, float | None, float]]:
        """Each measure in report order: (name, average per sentence or None, percentage)."""
        return [
            ("unk_extensions", self.avg_unk_extensions, self.pct_unk_extensions),
            ("type2_subs", self.avg_type2_subs, self.pct_type2_subs),
            ("type3_edits", self.avg_type3_edits, self.pct_type3_edits),
            ("exact_match", None, self.pct_exact_match),
            ("hiero_unchanged", None, self.pct_hiero_unchanged),
            *((f"hiero_in_{n}best", None, pct) for n, pct in self.nbest_membership),
        ]

    def to_key_value_lines(self) -> list[str]:
        lines = [f"num_sentences={self.num_sentences}"]
        for name, avg, pct in self._rows():
            if avg is not None:
                lines.append(f"avg_{name}={_fmt(avg)}")
            lines.append(f"pct_{name}={_fmt(pct)}")
        return lines

    def to_tsv_lines(self) -> list[str]:
        return ["measure\tavg_per_sentence\tpct_affected"] + [
            f"{name}\t{'-' if avg is None else _fmt(avg)}\t{_fmt(pct)}"
            for name, avg, pct in self._rows()]


def corpus_report(results: Sequence[CombinationResult], hiero_lattices: Sequence[Wfst],
                  n_values: Sequence[int] = (1, 10, 100)) -> CorpusReport:
    """Aggregate edit statistics and hiero-side selection behavior.

    Reports, per edit class, the average count per sentence and the
    percentage of sentences with a nonzero count; the percentage of
    sentences whose selected hiero hypothesis is the hiero 1-best; and,
    for each n, the percentage of sentences whose selected hiero
    hypothesis appears among the n cheapest unique hiero strings.

    All are read off one table: per sentence, the three edit counts and
    the rank of its hiero hypothesis in one unique n-best list of its
    lattice at the largest n (that n if absent; the list at a smaller n
    is its first n, so a smaller n reads the same list), drawn by
    :func:`~latcomb.algorithms.iter_nbest` only up to the match, on
    floats for a lattice that holds to the hiero contract.
    """
    if not results:
        raise ContractError("corpus report needs at least one result")
    if len(results) != len(hiero_lattices):
        raise ContractError("need exactly one hiero lattice per result")
    if len(set(n_values)) != len(n_values):
        raise ContractError(f"each n may appear only once, got {list(n_values)}")
    for n in n_values:
        check_count("n", n)
    total = len(results)
    deepest = max(n_values, default=1)
    counts = [(r.stats.unk_extensions, r.stats.type2_subs, r.stats.type3_edits) for r in results]
    ranks = [next((i for i, p in enumerate(iter_nbest(h, deepest, HIERO_ONLY, unique=True))
                   if tuple(map(h.osyms.word, p.output_labels())) == r.t_hiero), deepest)
             for r, h in zip(results, hiero_lattices)]

    def pct(flags: Iterable[bool]) -> float:
        return 100.0 * sum(flags) / total

    # Positional, in field order: the averages, then the percentages.
    return CorpusReport(
        total,
        *(sum(column) / total for column in zip(*counts)),
        *(pct(v > 0 for v in column) for column in zip(*counts)),
        pct(row == (0, 0, 0) for row in counts),
        pct(r == 0 for r in ranks),
        tuple((n, pct(r < n for r in ranks)) for n in n_values),
    )
