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
states (Mohri, "Edit-Distance of Weighted Automata", 2003), run as A*:
it expands only the pairs whose cost so far plus a consistent estimate
of the rest is at most the optimum, and settles each pair, exact ties
included, before it expands it.  It finds the same optimum, at the same
cost and feature vector, as composing the extended NMT lattice with the
modified edit flower and the hiero lattice and taking the shortest path,
which is the paper's construction; but it builds no flower and no
composed machine, so its work does not depend on the alphabet size.
Per-sentence combinations are independent.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import chain
from typing import Callable, FrozenSet, Iterable, NamedTuple, Sequence

from .algorithms import Mask, PathWitness, _prune_mask, _ranked, _witness
from .editfst import _EDIT_ONE, _SUB_ONE, edit_weight, expand_unk_runs
from .errors import Checked, ContractError, NoPathError, check_count
from .fst import EPSILON, UNK, Row, Wfst, contract_errors, dense_arcs, topological_order
from .semiring import (EDIT_COUNT, ONE, SUB_COUNT, UNK_EXT_COUNT, Dense, FeatureWeight, ParamVector,
                       dense_times, format_weight, pack_keys)

HIERO_ONLY = ParamVector(nmt=0.0, hiero=1.0, edit=0.0, sub=0.0, ins=0.0)

# The alignment pass's view of a kept hiero arc: (packed key, index among
# its state's kept arcs, target position, row, label); and of the move that
# set a cell: (source cell, NMT arc index, hiero arc index, NMT row, hiero
# row, edit values), whose first three fields settle exact ties.
_Entry = tuple[int, int, int, Row, int]
_Move = tuple[int, int, int, Row | None, Row | None, Dense]


class _CombinationParamsFields(NamedTuple):
    lambda_nmt: float = 1.0
    lambda_hiero: float = 1.0
    lambda_sub: float = 1.0
    lambda_edit: float = 2.0
    lambda_ins: float = 1.0
    max_unk_run: int = 3
    hiero_node_budget: int = 100_000
    nmt_vocab: FrozenSet[int] = frozenset()


class CombinationParams(Checked, _CombinationParamsFields):
    """Scaling and similarity parameters plus the NMT vocabulary (as labels)."""

    __slots__ = ()

    def _check(self) -> "CombinationParams":
        if type(self.nmt_vocab) is not frozenset:
            return self._replace(nmt_vocab=frozenset(self.nmt_vocab))  # checked in turn
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
        if UNK in self.nmt_vocab or EPSILON in self.nmt_vocab:
            raise ContractError("the NMT vocabulary must not contain the UNK or epsilon labels")
        return self

    def as_param_vector(self) -> ParamVector:
        return ParamVector(nmt=self.lambda_nmt, hiero=self.lambda_hiero,
                           edit=self.lambda_edit, sub=self.lambda_sub, ins=self.lambda_ins)

    def with_vocab(self, vocab: Iterable[int]) -> "CombinationParams":
        return self._replace(nmt_vocab=frozenset(vocab))


class EditStats(NamedTuple):
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


class CombinationResult(NamedTuple):
    """Combined translation plus the hypothesis pair and diagnostics.

    ``path`` is the winning alignment, arc by arc as the path of the
    machine composed through the edit flower would read (None when the
    result was assembled elsewhere, e.g. in reports).  It takes no part
    in ``==``, ``hash`` or ``repr``: two results that differ only in how
    their paths number cells are equal.
    """

    t_comb: tuple[str, ...]
    t_nmt: tuple[str, ...]
    t_hiero: tuple[str, ...]
    total_cost: float
    feature_vector: FeatureWeight
    stats: EditStats
    source_id: str = ""
    path: PathWitness | None = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CombinationResult) and self[:-1] == other[:-1]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:-1])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"CombinationResult({shown})"

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

    Tie rule.  Alignments compare on (cost, feature vector in id order),
    both exact sums packed into one integer key
    (:func:`~latcomb.semiring.pack_keys`), so a tie is a real tie; the
    reported cost and feature vector are float sums along the winning
    path, and may differ from another path's by rounding.
    Exact ties go by an order on moves, as in a lexicographic semiring
    (Roark, Sproat and Shafran, 2011).  A move leaves a source cell (NMT
    state, hiero state) along an NMT arc, a hiero arc or one of each.  Of
    the moves that give a cell its least key, the least (source cell, NMT
    arc index, hiero arc index) sets it, and the least (key, cell) wins
    among final cells.  Cells compare by (NMT position, hiero position):
    the positions in :func:`~latcomb.fst.topological_order` of the
    extended NMT machine and of the hiero lattice as read (its kept
    states).  The extended machine is
    :func:`~latcomb.editfst.expand_unk_runs` of the lattice: the lattice's
    states keep their ids, each UNK arc is followed, in its state's arc
    order, by the first arc of its run chain, and the run states are
    numbered after the lattice's states.  Hiero arcs count among their
    state's kept arcs; a move without an arc on one side counts index 0
    there (moves of two kinds from one cell never share a target).  For
    example, NMT ``UNK die`` against hiero ``die`` (``die`` out of
    vocabulary) ties deleting the UNK and matching ``die`` with filling the
    UNK and deleting ``die``; the match leaves an earlier cell than the
    deletion, so ``t_comb`` is ``die``.
    """
    _check_lattice(nmt_lattice, "nmt")
    _check_lattice(hiero_lattice, "hiero")
    if not nmt_lattice.isyms.same_mapping(hiero_lattice.isyms):
        raise ContractError("the two lattices must share a symbol table")

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


class _MoveTables:
    """What the pass over the cells reads, built once per sentence.

    Cell (i, j), of NMT position i and kept hiero position j, is
    ``i * width + j``; ``nmt_moves[i]`` and ``hiero_moves[j]`` hold the
    moves out of it (see :func:`_best_alignment`).  Every value vector the
    pass adds has its exact key packed into one integer once
    (:func:`~latcomb.semiring.pack_keys`, ``packed``): both machines'
    arcs and final weights, and the three weights edit typing yields.  A
    move adds at most an NMT arc, a hiero arc and an edit weight, and
    advances at least one side, so an alignment, its two final weights
    included, adds fewer keys than twice the positions of both sides; the
    digits are wide enough for that many, so a cell's key never carries.
    """

    def __init__(self, nmt: Wfst, hiero: Wfst, mask: Mask, nmt_vocab: FrozenSet[int],
                 params: ParamVector) -> None:
        keep, hiero_arcs, hiero_finals = mask
        kept = set(keep)
        order_n = topological_order(nmt)
        assert order_n is not None
        order_h = [s for s in topological_order(hiero) if s in kept]
        pos_n = {s: i for i, s in enumerate(order_n)}
        pos_h = {s: j for j, s in enumerate(order_h)}
        self.width = width = len(order_h)
        self.size = len(order_n) * width
        self.start = pos_n[nmt.initial] * width + pos_h[hiero.initial]
        arcs_n = dense_arcs(nmt)
        # Final weights per position, None where a state is not final.
        self.finals_n = finals_n = [nmt.final_weight(s) for s in order_n]
        self.finals_h = finals_h = [hiero_finals.get(s) for s in order_h]
        edits = (ONE.values, _SUB_ONE.values, _EDIT_ONE.values)
        self.packed = packed = pack_keys(params, [
            *edits, *(h[3] for s in order_h for h in hiero_arcs[s]),
            *(a[3] for s in order_n for a in arcs_n[s]),
            *(fw.values for fw in chain(finals_n, finals_h) if fw is not None)],
            2 * (len(order_n) + width))
        keys = iter(packed.keys)  # in the order packed, taken as the tables fill
        self.edits = {v: (v, key) for v, key in zip(edits, keys)}
        self.nmt_vocab, self.lambda_edit = nmt_vocab, packed.cost(self.edits[_EDIT_ONE.values][1])

        # Per hiero position, its arcs as (key, index, target, arc, label):
        # the word arcs alone on their target; the other word arcs grouped by
        # target, each group sorted by (key, index); the epsilon arcs.
        self.hiero_moves = hiero_moves = []
        words: list[int] = []  # two distinct hiero words, if there are two
        for s in order_h:
            targets: dict[int, list[_Entry]] = {}
            skips: list[_Entry] = []
            for rank, h in enumerate(hiero_arcs[s]):
                y = h[1]
                entry = (next(keys), rank, pos_h[h[0]], h, y)
                if y == EPSILON:
                    skips.append(entry)
                    continue
                targets.setdefault(entry[2], []).append(entry)
                if len(words) < 2 and y not in words:
                    words.append(y)
            singles: list[_Entry] = []
            groups: list[tuple[int, list[_Entry]]] = []
            for t_j, group in targets.items():
                if len(group) == 1:
                    singles.append(group[0])
                    continue
                group.sort()
                groups.append((t_j, group))
            hiero_moves.append((singles, groups, skips))

        # Edit typing charges alike for inserting any word, and for pairing a
        # label that is not UNK with any word but itself; so those weights are
        # typed once, with the first hiero words.
        self.w_skip, self.s_skip = self.edit(EPSILON, EPSILON)
        self.w_ins, self.s_ins = self.edit(EPSILON, words[0]) if words else (None, 0)

        # Per NMT label: the values and key of deleting it; its pairings typed
        # word by word, starting with its match; and the weight of pairing it
        # with any other word, None for UNK, whose pairings type_pair fills
        # on demand.
        pairings: dict[int, tuple] = {}
        for x in {r[2] for rows in arcs_n for r in rows}:
            if x == UNK:  # the hiero side has no UNK to match
                pairings[x] = (*self.edit(x, EPSILON), {}, None)
                continue
            other = [y for y in words if y != x]
            pairings[x] = (*self.edit(x, EPSILON), {x: self.edit(x, x)},
                           self.edit(x, other[0]) if other else None)

        # Moves per NMT position: (arc, label matched, target base, arc key,
        # then the label's pairings, then the arc's index).  An epsilon arc
        # advances alone: its edit weight is ONE.
        self.nmt_moves = [[(a, a[2], pos_n[a[0]] * width, next(keys), *pairings[a[2]], k)
                           for k, a in enumerate(arcs_n[s])] for s in order_n]
        # The final weights' keys per position, None where a state is not final.
        self.final_n, self.final_h = ([None if fw is None else next(keys) for fw in fws]
                                      for fws in (finals_n, finals_h))

    def edit(self, x: int, y: int) -> tuple[Dense, int]:
        """The values and key of the edit weight of aligning ``x`` with ``y``."""
        return self.edits[edit_weight(self.nmt_vocab, x, y).values]

    def type_pair(self, typed: dict, x: int, y: int) -> tuple[Dense, int]:
        """Type the pairing of ``x`` with ``y`` and keep it in ``typed``, x's table."""
        return typed.setdefault(y, self.edit(x, y))


def _to_go(finals: list[int | None], moves: list[list[_Entry]]) -> tuple[list, list, list]:
    """Per position, whose moves (key, _, target, _, label) lead to later ones: the least
    key on to a final (None for none), the fewest and most tokens (non-epsilon labels) on
    the way."""
    inf, key = math.inf, finals[:]
    lo, hi = [inf if f is None else 0 for f in finals], [-inf if f is None else 0 for f in finals]
    for p in reversed(range(len(finals))):
        c, l, h = key[p], lo[p], hi[p]
        for w, _, t, _, y in moves[p]:
            if key[t] is None:
                continue
            token = y != EPSILON
            if c is None or key[t] + w < c:
                c = key[t] + w
            if lo[t] + token < l:
                l = lo[t] + token
            if hi[t] + token > h:
                h = hi[t] + token
        key[p], lo[p], hi[p] = c, l, h
    return key, lo, hi


def _heuristic(tab: _MoveTables) -> Callable[[int], int | None]:
    """The A* estimate h(cell) of the cheapest completion's cost from a cell, None where
    no final cell is reachable: admissible and consistent (see _best_alignment)."""
    width, lam, shift = tab.width, tab.lambda_edit, tab.packed.shift
    # Per kept hiero position its least word arc to each target, then its epsilon arcs.
    advances = [singles + [g[0] for _, g in groups] + skips if groups or skips else singles
                for singles, groups, skips in tab.hiero_moves]
    kn, lo_n, hi_n = _to_go(tab.final_n, [[(m[3], 0, m[2] // width, 0, m[1]) for m in row]
                                          for row in tab.nmt_moves])
    kh, lo_h, hi_h = _to_go(tab.final_h, advances)
    # The least key on has the least cost on.
    half = 1 << shift >> 1
    cn, ch = ([None if k is None else (k + half) >> shift for k in ks] for ks in (kn, kh))

    def h(c: int) -> int | None:
        i, j = divmod(c, width)
        if cn[i] is None or ch[j] is None:
            return None
        return cn[i] + ch[j] + lam * max(0, lo_n[i] - hi_h[j], lo_h[j] - hi_n[i])

    return h


def _best_alignment(nmt: Wfst, hiero: Wfst, mask: Mask, nmt_vocab: FrozenSet[int],
                    params: ParamVector) -> PathWitness:
    """Cheapest typed-edit alignment of an NMT path with a hiero path.

    A shortest-distance search over the cells (NMT state, hiero state) of
    two acyclic machines that have initial states (``combine`` checks
    both).  A move takes an NMT arc alone (an epsilon arc advances, any
    other is deleted), a kept hiero arc alone (likewise, or inserted), or
    pairs two arcs that are not epsilon; :func:`combine` states the tie
    rule.  The hiero machine is read through ``mask``, what
    :func:`~latcomb.algorithms._prune_mask` keeps of it.  NMT output
    labels are matched against hiero input labels; the returned path
    writes (NMT input label, hiero output label) on each arc and carries
    the same per-arc weights as the composition with the modified flower
    would.  Raises :class:`NoPathError` when no final cell is reachable.

    Keys are exact and packed (:class:`_MoveTables`): a cell's key g is
    the integer sum of the keys of the values its alignment adds, and
    compares as (cost, value vector) does, so the order is kept under
    extension and one key per cell finds the least alignment, as the
    lexicographic semiring requires.  The returned weight and cost are
    floats: the path's values summed in path order with
    :func:`~latcomb.semiring.dense_times`, as the shortest path of the
    composed machine reports them.  Every feature of an aligned pair
    comes from one side, because ``combine``'s contract check admits no
    foreign feature, so the two are bit-identical.

    The pass is A* over the cells (Hart, Nilsson and Raphael, 1968) on
    one set of :class:`_MoveTables`, with h(i, j) = cn(i) + ch(j) +
    lambda_edit * max(0, lo_n(i) - hi_h(j), lo_h(j) - hi_n(i))
    (:func:`_heuristic`): per position, c is the cheapest cost on to a
    final state and lo, hi the fewest and most tokens on the way (epsilon
    arcs count none, UNK run arcs one; hiero through the mask).
    Completions cost at least cn and ch in arcs and final weights, and
    lambda_edit per token of their length gap (insertions or deletions;
    pair edits cost >= 0): h is admissible.  It is consistent, h(c) <= w
    + h(c') for each move c -> c' of cost w, whatever the signs of the
    scores: cn and ch are; a pair move shifts both token ranges by one, an
    epsilon arc neither, and an insertion or deletion widens the gap by at
    most one and pays lambda_edit.  A cell with no final cell within reach
    has no h and is never pushed.

    The heap orders cells by the cost of g, plus h, then by cell.  A move
    that lowers a cell's key sets it and pushes the cell, so a move that
    lowers only the value vector pushes it again, and the stale entry is
    dropped when it pops.  A move that ties the key is settled as it
    arrives: it sets the cell when its (source cell, NMT arc index, hiero
    arc index) is less.  Every move leads to a larger cell, and h is
    consistent, so a move c -> t that gives t its least key comes from a
    cell with cost(g(c)) + h(c) <= cost(g(t)) + h(t) and c < t: c pops
    first, with its least key, and every such move has arrived when t
    pops.  The heap does not order by the packed key g + h: with signed
    scores a move of equal cost can add a vector below zero, and t could
    pop before a move that lowers its key arrives.  The final weights are
    moves from each popped final cell into a sink, the largest cell,
    where h is 0: the sink pops after every cell whose cost of g, plus h,
    is at most its cost, and the pass ends there.  Each cell of the
    winning alignment, of any alignment tied with it, and each cell that
    gives one of them its least key has cost(g) + h <= f*, so all pop
    first.

    Most moves lose, so the pass tries only the hiero arcs that can win.
    Each kept hiero state's word arcs to one target form a group, sorted
    by (arc key, arc index).  An NMT label walks each group in that order,
    as an insertion does, and stops at the first arc that loses before its
    edit weight is added: edit weights' keys are nonnegative (their costs
    are, and their counts), so that arc and every later one lose.  An arc
    before it takes its edit weight from the label's table: the match, or
    for a label that is not UNK the one weight of pairing it with any
    other word (:func:`~latcomb.editfst.edit_weight` types those alike);
    UNK's pairings are typed one word at a time.
    """
    tab = _MoveTables(nmt, hiero, mask, nmt_vocab, params)
    heuristic = _heuristic(tab)
    width, start, hiero_moves, nmt_moves = tab.width, tab.start, tab.hiero_moves, tab.nmt_moves
    finals_n, finals_h, final_n, final_h = tab.finals_n, tab.finals_h, tab.final_n, tab.final_h
    type_pair, shift = tab.type_pair, tab.packed.shift
    w_skip, s_skip, w_ins, s_ins = tab.w_skip, tab.s_skip, tab.w_ins, tab.s_ins
    half = 1 << shift >> 1  # a key's cost is (key + half) >> shift

    # Per cell, and at ``sink`` for the final weights: its least key found
    # (inf unset) and the move that set it; and the cells to pop, as (cost
    # of g, plus h, cell, g).
    sink = tab.size
    g: list[float] = [math.inf] * (sink + 1)
    back: list[_Move | None] = [None] * (sink + 1)
    heap: list[tuple[int, int, int]] = []

    def relax(t: int, e: int, move: _Move) -> None:
        # The caller has checked that e is not above g[t].
        if e == g[t]:
            if move[:3] < back[t][:3]:  # the least (source cell, NMT arc, hiero arc) wins
                back[t] = move
        elif (h := 0 if t == sink else heuristic(t)) is not None:
            g[t], back[t] = e, move
            heappush(heap, (((e + half) >> shift) + h, t, e))

    relax(start, 0, (start, 0, 0, None, None, ONE.values))  # reached; never followed
    while heap:
        _, c, g_c = heappop(heap)
        if g_c > g[c]:  # superseded by a lesser key
            continue
        if c == sink:
            break
        i, j = divmod(c, width)
        base = c - j
        if final_n[i] is not None and final_h[j] is not None \
                and (e := g_c + final_n[i] + final_h[j]) <= g[sink]:
            relax(sink, e, (c, 0, 0, None, None,
                            dense_times(finals_n[i].values, finals_h[j].values)))
        singles, groups, skips = hiero_moves[j]
        for a, x, t_base, s_a, w_del, s_del, typed, sub, k in nmt_moves[i]:
            g_a = g_c + s_a
            t = t_base + j
            e = g_a + s_del
            if e <= g[t]:
                relax(t, e, (c, k, 0, a, None, w_del))
            if x == EPSILON:
                continue
            for s_h, rank, t_j, h, y in singles:
                w_e = typed.get(y, sub) or type_pair(typed, x, y)
                t = t_base + t_j
                e = g_a + w_e[1] + s_h
                if e <= g[t]:
                    relax(t, e, (c, k, rank, a, h, w_e[0]))
            for t_j, group in groups:
                t = t_base + t_j
                for s_h, rank, _, h, y in group:
                    if g_a + s_h > g[t]:
                        break
                    w_e = typed.get(y, sub) or type_pair(typed, x, y)
                    e = g_a + w_e[1] + s_h
                    if e <= g[t]:
                        relax(t, e, (c, k, rank, a, h, w_e[0]))
        # Insertions, each word at the same edit cost, then epsilon arcs.
        g_i = g_c + s_ins
        for s_h, rank, t_j, h, _ in singles:
            t = base + t_j
            e = g_i + s_h
            if e <= g[t]:
                relax(t, e, (c, 0, rank, None, h, w_ins))
        for t_j, group in groups:
            t = base + t_j
            for s_h, rank, _, h, _ in group:
                e = g_i + s_h
                if e > g[t]:
                    break
                relax(t, e, (c, 0, rank, None, h, w_ins))
        for s_h, rank, t_j, h, _ in skips:
            t = base + t_j
            e = g_c + s_skip + s_h
            if e <= g[t]:
                relax(t, e, (c, 0, rank, None, h, w_skip))

    if back[sink] is None:
        raise NoPathError("no path from the initial state to a final state")

    # Rebuild the path with the weights the composed machine's arcs carry.
    c, final_weight = back[sink][0], FeatureWeight(back[sink][5])
    rows: list[Row] = []
    while c != start:
        src, _, _, a, h, w = back[c]
        if a is not None:
            w = dense_times(a[3], w)
        if h is not None:
            w = dense_times(w, h[3])
        rows.append((c, EPSILON if a is None else a[1], EPSILON if h is None else h[2], w))
        c = src
    rows.reverse()
    return _witness(rows, final_weight, params)


class CorpusReport(NamedTuple):
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
    is its first n, so a smaller n reads the same list), drawn lazily, as
    rows, and only up to the match (``algorithms._ranked``, the stream
    behind :func:`~latcomb.algorithms.nbest`).
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
    ranks = [next((i for i, (rows, _) in enumerate(_ranked(h, deepest, HIERO_ONLY, True))
                   if tuple(h.osyms.word(r[2]) for r in rows if r[2] != EPSILON) == t.t_hiero),
                  deepest)
             for t, h in zip(results, hiero_lattices)]

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
