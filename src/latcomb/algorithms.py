"""Generic WFST algorithms: composition, search, pruning.

All functions take frozen machines and return frozen machines (or path
witnesses); nothing here mutates its inputs, so sentence-level work can
run concurrently over shared read-only transducers.  ``_prune_mask``
says what pruning keeps, on the input's own state ids; ``combine`` reads
the hiero lattice through it, and only :func:`prune_to_node_budget`
builds the pruned machine.

Search order: every search here (shortest path, n-best, pruning), like
``plus`` and the alignment pass of :mod:`latcomb.pipeline`, compares
paths by exact integer keys: scalarized cost first, then the feature
vector, packed into one integer per arc
(:func:`latcomb.semiring.pack_keys`).  The keys do not round, so keeping
the least key per state finds the least path, and every tie is a real
one.  No search adds floats; a found path reports its weight and cost in
floats, summed along it by :func:`latcomb.semiring.dense_times`.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import count
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ContractError, NoPathError, check_count
from .fst import (
    EPSILON,
    NO_STATE,
    UNK,
    Arc,
    Row,
    Wfst,
    accessible_states,
    arc_of,
    coaccessible_states,
    dense_arcs,
    topological_order,
)
from .semiring import (ONE, Dense, FeatureWeight, ParamVector, dense_times, pack_keys, scalarize,
                       times)


class PathWitness(NamedTuple):
    """One complete path: its arcs as rows, final weight, and total weight.

    ``rows`` holds each arc as a machine stores it (:data:`~latcomb.fst.Row`);
    :attr:`arcs` builds the :class:`~latcomb.fst.Arc` objects on demand.
    ``weight`` is the product of all arc weights and the final weight;
    ``cost`` is its scalarization under the parameters the search ran with.
    """

    rows: tuple[Row, ...]
    final_weight: FeatureWeight
    weight: FeatureWeight
    cost: float

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(map(arc_of, self.rows))

    def input_labels(self) -> tuple[int, ...]:
        return tuple(r[1] for r in self.rows if r[1] != EPSILON)

    def output_labels(self) -> tuple[int, ...]:
        return tuple(r[2] for r in self.rows if r[2] != EPSILON)

    def unk_filled_labels(self) -> tuple[int, ...]:
        """Input labels with every UNK replaced by the aligned output label.

        Arcs whose input is UNK contribute their output label (nothing when
        that is epsilon); all other arcs contribute their input label.  This
        yields the combined translation of the pipeline.
        """
        return tuple(label for _, ilabel, olabel, _ in self.rows
                     if (label := olabel if ilabel == UNK else ilabel) != EPSILON)


def _check_frozen(*machines: Wfst) -> None:
    for m in machines:
        if not m.frozen:
            raise ContractError("algorithm inputs must be frozen machines")


def connect(fst: Wfst) -> Wfst:
    """Drop states that are not both accessible and coaccessible.

    The weighted language is unchanged.  If nothing survives, the result
    is the canonical empty machine (no states, no initial).
    """
    _check_frozen(fst)
    coacc = coaccessible_states(fst)
    if fst.initial not in coacc:
        return Wfst(fst.isyms, fst.osyms).freeze()
    acc = accessible_states(fst)
    return _submachine(fst, [s for s in fst.states() if s in acc and s in coacc], fst.rows,
                       fst.finals())


def _submachine(fst: Wfst, keep: Sequence[int], rows_of: Callable[[int], Iterable[Row]],
                finals: Iterable[tuple[int, FeatureWeight]]) -> Wfst:
    """The machine on the states ``keep`` (which holds the initial state),
    renumbered in that order: of the rows ``rows_of(s)`` out of each kept
    ``s`` and of ``finals``, those whose states are kept."""
    remap = {old: new for new, old in enumerate(keep)}
    rows = [[(remap[t], il, ol, v) for t, il, ol, v in rows_of(s) if t in remap] for s in keep]
    return Wfst.frozen_from(fst.isyms, rows, {remap[s]: w for s, w in finals if s in remap},
                            remap[fst.initial], fst.osyms)


def compose(t1: Wfst, t2: Wfst) -> Wfst:
    """Weighted composition with epsilon sequencing.

    Matches t1's output tape against t2's input tape.  Epsilon moves are
    filtered so that each pair of matching paths is produced through one
    canonical interleaving: between two symbol matches, paired eps moves
    come first, then the leftover side advances alone.  Without this,
    eps-heavy operands blow up with redundant interleavings that all
    carry the same weight.

    The result is trimmed.
    """
    _check_frozen(t1, t2)
    if not t1.osyms.same_mapping(t2.isyms):
        raise ContractError("composition requires t1's output alphabet to equal t2's input alphabet")
    if t1.initial == NO_STATE or t2.initial == NO_STATE:
        return Wfst(t1.isyms, t2.osyms).freeze()

    # t2's rows per state, indexed by input label (EPSILON: its eps-input rows).
    by_ilabel: list[dict[int, list[Row]]] = []
    for s in t2.states():
        index: dict[int, list[Row]] = {}
        for row in t2.rows(s):
            index.setdefault(row[1], []).append(row)
        by_ilabel.append(index)

    rows: list[list[Row]] = []
    finals: dict[int, FeatureWeight] = {}
    ids: dict[tuple[int, int, int], int] = {}
    queue: deque[tuple[int, int, int]] = deque()

    def state_of(key: tuple[int, int, int]) -> int:
        """The result state of ``key``; a new one is queued for expansion."""
        sid = ids.get(key)
        if sid is None:
            sid = ids[key] = len(rows)
            rows.append([])
            queue.append(key)
        return sid

    def mul(u: Dense | None, v: Dense | None) -> Dense | None:
        return None if u is None or v is None else dense_times(u, v)

    initial = state_of((t1.initial, t2.initial, 0))
    while queue:
        key = queue.popleft()
        s1, s2, flt = key
        out = rows[ids[key]]

        f1 = t1.final_weight(s1)
        if f1 is not None:
            f2 = t2.final_weight(s2)
            if f2 is not None:
                finals[ids[key]] = times(f1, f2)

        index2 = by_ilabel[s2]
        eps2 = index2.get(EPSILON, ())
        for t1_, x, y, v1 in t1.rows(s1):
            if y != EPSILON:
                for t2_, _, z, v2 in index2.get(y, ()):
                    out.append((state_of((t1_, t2_, 0)), x, z, mul(v1, v2)))
            else:
                if flt != 2:
                    # t1 advances alone on its eps-output arc.
                    out.append((state_of((t1_, s2, 1)), x, EPSILON, v1))
                if flt == 0:
                    # Both sides advance on paired eps arcs.
                    for t2_, _, z, v2 in eps2:
                        out.append((state_of((t1_, t2_, 0)), x, z, mul(v1, v2)))
        if flt != 1:
            # t2 advances alone on its eps-input arcs.
            for t2_, _, z, v2 in eps2:
                out.append((state_of((s1, t2_, 2)), EPSILON, z, v2))

    return connect(Wfst.frozen_from(t1.isyms, rows, finals, initial, t2.osyms))


class _Search(NamedTuple):
    """One search's view of a machine: per state, its ``dense_arcs`` rows
    each with its key; each final weight's key; the cost 1.0; and the
    bits below a key's cost (see :func:`_search`)."""

    arcs: list[list[tuple[Row, int]]]
    finals: dict[int, int]
    unit: int
    shift: int


def _search(fst: Wfst, params: ParamVector, terms: int = 0) -> _Search:
    """The exact arithmetic of every search over ``fst`` under ``params``.

    Each arc and final weight gets its exact key packed into one integer
    (:func:`~latcomb.semiring.pack_keys`), with digits wide enough for a
    sum of at most ``terms`` keys (by default the states: a path that
    visits no state twice, its final weight included).  Such sums compare
    as the keys they pack do, and the sum's cost is (sum + 2**(shift -
    1)) >> shift.

    Requires an initial and a final state and, for a cyclic machine, no
    arc of negative cost.
    """
    if fst.initial == NO_STATE or fst.num_finals == 0:
        raise NoPathError("machine accepts nothing")
    arcs = dense_arcs(fst)
    finals = dict(fst.finals())
    packed = pack_keys(params, [r[3] for rows in arcs for r in rows]
                       + [w.values for w in finals.values()], terms or fst.num_states)
    shift = packed.shift
    each = iter(packed.keys)
    keyed = [list(zip(rows, each)) for rows in arcs]
    # A key's cost is below 0 when the key is below -2**(shift - 1).
    if topological_order(fst) is None and any(w < -(1 << shift >> 1) for pairs in keyed
                                              for _, w in pairs):
        raise ContractError("cyclic machine with a negative-cost arc: shortest path undefined")
    return _Search(keyed, dict(zip(finals, each)), packed.unit, shift)


def _distances(fst: Wfst, search: _Search, backward: bool = False) -> tuple[list, list]:
    """Least key from the initial state to every state; with
    ``backward``, from every state to acceptance, final weight included.

    Returns, per state, its least key (None where there is no path) and
    the pointer that set it: the previous state and the row of the arc
    taken, None at the initial state and where there is no path.  A path
    takes a state only on a smaller key, so the first arc tried keeps a
    tie.  An acyclic machine is relaxed in topological order (backward,
    each state takes the least of its final key and its own arcs' keys
    plus their targets', Mohri, 2002, and sets no pointer); a cyclic one
    is searched with Dijkstra, backward on reversed arcs, where a pointer
    names the next state.
    """
    order = topological_order(fst)
    adj = search.arcs
    n = fst.num_states
    key: list[Any] = [None] * n
    ptr: list[Any] = [None] * n
    if backward:
        for s, k in search.finals.items():
            key[s] = k
    else:
        key[fst.initial] = 0

    if order is not None and backward:
        for s in reversed(order):
            best = key[s]
            for row, w in adj[s]:
                kt = key[row[0]]
                if kt is not None and (best is None or kt + w < best):
                    best = kt + w
            key[s] = best
    elif order is not None:
        for s in order:
            ks = key[s]
            if ks is None:
                continue
            for row, w in adj[s]:
                t = row[0]
                k, old = ks + w, key[t]
                if old is None or k < old:
                    key[t], ptr[t] = k, (s, row)
    else:
        if backward:
            rev: list[list[tuple[Row, int]]] = [[] for _ in range(n)]
            for s, pairs in enumerate(adj):
                for (t, il, ol, v), w in pairs:
                    rev[t].append(((s, il, ol, v), w))
            adj = rev
        counter = count()
        heap = [(k, next(counter), s) for s, k in enumerate(key) if k is not None]
        heapq.heapify(heap)
        settled = [False] * n
        while heap:
            ks, _, s = heapq.heappop(heap)
            if settled[s]:
                continue
            settled[s] = True
            for row, w in adj[s]:
                t = row[0]
                k, old = ks + w, key[t]
                if not settled[t] and (old is None or k < old):
                    key[t], ptr[t] = k, (s, row)
                    heapq.heappush(heap, (k, next(counter), t))
    return key, ptr


def shortest_path(fst: Wfst, params: ParamVector) -> PathWitness:
    """The path of least exact key from the initial state to acceptance.

    Acyclic machines use topological relaxation; cyclic ones require all
    arc scalarizations to be nonnegative and use Dijkstra.  Raises
    :class:`NoPathError` when the machine accepts nothing.
    """
    _check_frozen(fst)
    search = _search(fst, params)
    return _witness(*_best_path(fst, search, *_distances(fst, search)), params)


def _witness(rows: Sequence[Row], final_weight: FeatureWeight, params: ParamVector) -> PathWitness:
    """A found path, its weight and cost in floats: its values added in
    path order by ``dense_times``, then scalarized."""
    values = ONE.values
    for row in rows:
        values = dense_times(values, row[3])
    weight = FeatureWeight(dense_times(values, final_weight.values))
    return PathWitness(rows=tuple(rows), final_weight=final_weight, weight=weight,
                       cost=scalarize(weight, params))


def _best_path(fst: Wfst, search: _Search, key: list[Any],
               back: list[Any]) -> tuple[list[Row], FeatureWeight]:
    """The rows and final weight of the complete path of least key, given
    the forward tree; the final state of least id keeps a tie."""
    keys = [(key[s] + k, s) for s, k in search.finals.items() if key[s] is not None]
    if not keys:
        raise NoPathError("no path from the initial state to a final state")
    best_state = min(keys)[1]
    rows: list[Row] = []
    s = best_state
    while s != fst.initial:
        s, row = back[s]
        rows.append(row)
    rows.reverse()
    return rows, fst.final_weight(best_state)


def _nbest_raw(fst: Wfst, cap: float, search: _Search,
               bkey: list) -> Iterator[tuple[list[Row], FeatureWeight]]:
    """The rows and final weight of up to ``cap`` paths of least key,
    drawn lazily by best-first search with an exact heuristic, expanding
    no state more than ``cap`` times; push order keeps a tie.

    ``cap`` may be ``math.inf``: every path, in key order, which ends
    only on an acyclic machine.  ``bkey`` holds the backward keys of
    :func:`_distances`; the initial state has a path.
    """
    arcs, finals = search.arcs, search.finals

    # Nodes are (state, row, parent-index); rows recovered by walking parents.
    nodes: list[tuple[int, Row | None, int]] = [(fst.initial, None, -1)]
    # Entries are (bound, node, prefix key): a node's index grows with
    # every push, so it keeps a tie in push order.
    heap = [(bkey[fst.initial], 0, 0)]
    pops = [0] * fst.num_states
    drawn = 0

    while heap and drawn < cap:
        _, node_idx, prefix = heapq.heappop(heap)
        state = nodes[node_idx][0]
        if state == NO_STATE:  # a completed path
            path = []
            i = nodes[node_idx][2]
            while i != -1:
                _, row, i = nodes[i]
                if row is not None:
                    path.append(row)
            path.reverse()
            drawn += 1
            yield path, fst.final_weight(path[-1][0] if path else fst.initial)
            continue
        if pops[state] >= cap:
            continue
        pops[state] += 1

        fk = finals.get(state)
        if fk is not None:
            nodes.append((NO_STATE, None, node_idx))
            heapq.heappush(heap, (prefix + fk, len(nodes) - 1, 0))
        for row, w in arcs[state]:
            b = bkey[row[0]]
            if b is None:
                continue
            ext = prefix + w
            nodes.append((row[0], row, node_idx))
            heapq.heappush(heap, (ext + b, len(nodes) - 1, ext))


def _unique(paths: Iterator[tuple[list[Row], FeatureWeight]],
            n: int) -> Iterator[tuple[list[Row], FeatureWeight]]:
    """The first n of ``paths`` whose output strings no earlier path
    had, lazily: from a stream in key order, each string's least."""
    seen: set[tuple[int, ...]] = set()
    for path in paths:
        string = tuple(r[2] for r in path[0] if r[2] != EPSILON)
        if string not in seen:
            seen.add(string)
            yield path
            if len(seen) == n:
                return


def _ranked(fst: Wfst, n: int, params: ParamVector,
            unique: bool) -> Iterator[tuple[list[Row], FeatureWeight]]:
    """The rows and final weights of the paths of :func:`nbest`, each
    searched for only when asked for; the checks and errors of
    :func:`nbest` come before it returns.

    The raw stream stops after n paths, expanding no state more than n
    times; the unique one filters a stream with neither cap, so its
    paths do not depend on n.
    """
    _check_frozen(fst)
    check_count("n", n)
    acyclic = topological_order(fst) is not None
    # On a cyclic machine a drawn path visits a state at most n times, and
    # its bound adds a completion that visits each state at most once.
    search = _search(fst, params, 0 if acyclic else (n + 1) * fst.num_states)
    if unique and not acyclic:
        raise ContractError("unique n-best requires an acyclic machine")
    bkey = _distances(fst, search, backward=True)[0]
    if bkey[fst.initial] is None:
        raise NoPathError("no path from the initial state to a final state")
    paths = _nbest_raw(fst, math.inf if unique else n, search, bkey)
    return _unique(paths, n) if unique else paths


def nbest(fst: Wfst, n: int, params: ParamVector, unique: bool = False) -> list[PathWitness]:
    """The n paths of least exact key, in key order.

    With ``unique``, paths whose output label strings coincide are
    collapsed keeping the cheapest; that mode requires an acyclic machine
    (otherwise there is no bound on how many raw paths must be drawn),
    and its list at n is the first n of its list at any larger n.
    """
    return [_witness(rows, fw, params) for rows, fw in _ranked(fst, n, params, unique)]


# What pruning keeps of a machine, on its own state ids: see _prune_mask.
# States within 1e-9 * max(1, |best cost|) of a threshold count as at it.
PLATEAU = (1e-9).as_integer_ratio()
Mask = tuple[Sequence[int], Sequence[Sequence[Row]], dict[int, FeatureWeight]]


def prune_to_node_budget(fst: Wfst, budget: int, params: ParamVector) -> Wfst:
    """Threshold-prune an acyclic machine down to at most ``budget`` states.

    Removes states and arcs whose best through-cost exceeds the best path
    cost by more than a threshold chosen (by searching the sorted
    through-costs) as large as possible while meeting the budget; costs
    are exact (see :func:`_search`).  The shortest path always survives
    with its cost intact; when even the optimal-cost plateau is over
    budget, only the shortest path is kept.
    """
    keep, arcs, finals = _prune_mask(fst, budget, params)
    if fst.num_states <= budget:
        return fst
    return connect(_submachine(fst, keep, arcs.__getitem__, finals.items()))


def _prune_mask(fst: Wfst, budget: int, params: ParamVector) -> Mask:
    """What :func:`prune_to_node_budget` keeps of ``fst``, on its state ids.

    Returns the kept states, in the order the pruned machine numbers
    them; per state, its kept ``dense_arcs`` rows (none for a dropped
    state); and the kept final weights.  Within budget that is all of
    ``fst``, its own ``dense_arcs`` included.  Kept states need not all
    be connected through the kept arcs; the public function trims them.
    Through-costs and the threshold are exact (see :func:`_search`).  The
    forward pass also tells which final states are accessible; the
    threshold is found in one downward scan of the sorted through-costs.
    """
    _check_frozen(fst)
    check_count("budget", budget)
    if topological_order(fst) is None:
        raise ContractError("pruning is defined for acyclic machines only")
    if fst.num_states <= budget:
        if not any(fst.is_final(s) for s in accessible_states(fst)):
            raise NoPathError("machine accepts nothing")
        return fst.states(), dense_arcs(fst), dict(fst.finals())
    search = _search(fst, params)
    fkey, back = _distances(fst, search)
    # A final state that the forward pass reaches is accessible.
    if all(fkey[s] is None for s in search.finals) \
            and not any(fst.is_final(s) for s in accessible_states(fst)):
        raise NoPathError("machine accepts nothing")
    best, final_w = _best_path(fst, search, fkey, back)
    sp_states = len(best) + 1
    if budget < sp_states:
        raise ContractError(f"budget {budget} is below the {sp_states} states on the shortest path")

    bkey = _distances(fst, search, backward=True)[0]
    # The costs of sums of keys (see _search).
    shift, half = search.shift, 1 << search.shift >> 1
    best_cost = (bkey[fst.initial] + half) >> shift
    # A state on no complete path has no through-cost: within no limit.
    through = [None if fk is None or bk is None else (fk + bk + half) >> shift
               for fk, bk in zip(fkey, bkey)]
    # The plateau, PLATEAU * max(1, |best cost|) on the costs' scale, rounded
    # down: costs are integers, so c <= x + plateau exactly when c <= x + that.
    plateau = PLATEAU[0] * max(search.unit, abs(best_cost)) // PLATEAU[1]

    finite = sorted([c for c in through if c is not None])
    # The largest threshold c whose states, those within c + plateau, fit
    # the budget: with more states than that, finite[budget] > c + plateau.
    i = min(budget, len(finite)) - 1
    if budget < len(finite):
        while i >= 0 and finite[budget] <= finite[i] + plateau:
            i -= 1
    if i < 0 or finite[i] < best_cost - plateau:
        # Even the optimal plateau is over budget: keep just the best
        # path, its states in path order.
        keep = [fst.initial, *(row[0] for row in best)]
        arcs: list[Sequence[Row]] = [()] * fst.num_states
        for s, row in zip(keep, best):
            arcs[s] = (row,)
        return keep, arcs, {keep[-1]: final_w}

    limit = finite[i] + plateau
    kept = [c is not None and c <= limit for c in through]
    arcs = [tuple([r for r, w in pairs
                   if kept[r[0]] and (fkey[s] + w + bkey[r[0]] + half) >> shift <= limit])
            if kept[s] else () for s, pairs in enumerate(search.arcs)]
    keep = [s for s in fst.states() if kept[s]]
    return keep, arcs, {s: w for s, w in fst.finals() if kept[s]}
