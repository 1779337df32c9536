"""Generic WFST algorithms: composition, search, pruning.

All functions take frozen machines and return frozen machines (or path
witnesses); nothing here mutates its inputs, so sentence-level work can
run concurrently over shared read-only transducers.  ``_prune_mask``
says what pruning keeps, on the input's own state ids; ``combine`` reads
the hiero lattice through it, and only :func:`prune_to_node_budget`
builds the pruned machine.

Search order: every search here (shortest path, n-best, pruning), like
``plus`` and the alignment pass of :mod:`latcomb.pipeline`, extends
paths with :func:`latcomb.semiring.dense_times` and compares them by
:func:`latcomb.semiring.search_key`: scalarized cost first, then the
feature vector.  Results are therefore deterministic and consistent
with the weight algebra.  Every search picks its arithmetic once through
:func:`_search`: it adds floats instead where that gives the same order
(see :func:`_on_floats`), and runs one loop either way.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import count
from operator import itemgetter
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
    contract_errors,
    dense_arcs,
    has_negative,
    topological_order,
)
from .semiring import (
    CANONICAL_EPS,
    HIERO_SCORE,
    NUM_FEATURES,
    ONE,
    Dense,
    FeatureWeight,
    Key,
    ParamVector,
    dense_times,
    search_key,
    times,
)


@dataclass(frozen=True)
class PathWitness:
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
        return None if u is None or v is None else dense_times(u, v, True)

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


def _check_searchable(fst: Wfst, params: ParamVector) -> None:
    """Require an initial and a final state and, for a cyclic machine,
    nonnegative arc scalarizations."""
    if fst.initial == NO_STATE or fst.num_finals == 0:
        raise NoPathError("machine accepts nothing")
    key = search_key(params)
    if topological_order(fst) is None and any(key(r[3])[0] < 0.0 for rows in dense_arcs(fst)
                                              for r in rows):
        raise ContractError("cyclic machine with a negative-cost arc: shortest path undefined")


class _Search(NamedTuple):
    """The arithmetic of one search: see :func:`_search`."""

    lift: Callable[[Dense], Any]
    step: Callable[[Any, Dense], Any]
    unit: Any
    extend: Callable[[Any, Dense], Any]
    join: Callable[[Any, Any], Any]
    cost: Callable[[Any], float]
    pair: Callable[[Any], Key]


def _on_floats(fst: Wfst, params: ParamVector) -> bool:
    """Whether searches over ``fst`` under ``params`` can add floats: for a
    hiero lattice under a hiero lambda of exactly 1.0.  Every weight is
    then zero but at HIERO_SCORE, so a path's search key is ``(c, v)``
    with ``v`` zero but ``v[HIERO_SCORE] == c``: c its scores' float sum,
    zeroed below CANONICAL_EPS at each step as ``dense_times`` zeroes, inf
    on overflow either way.  Keys order as their c do, so the same sums
    and the same strict ``<`` give the same costs, backpointers and paths.
    """
    return params.hiero == 1.0 and not contract_errors(fst, "hiero")


def _search(fst: Wfst, params: ParamVector) -> _Search:
    """How every search over ``fst`` under ``params`` adds and compares keys.

    ``lift`` keys a value vector, ``step`` extends a key by one (one call
    per arc), ``cost`` and ``pair`` give a key as its cost and as ``(cost,
    values)``.  The n-best extends bare prefixes from ``unit`` by ``extend``
    and keys one followed by a key with ``join``.  Keys and prefixes are
    costs where :func:`_on_floats` accepts ``fst`` and ``params``, else
    value vectors and their :func:`~latcomb.semiring.search_key`.
    """
    signed = has_negative(fst)
    if not _on_floats(fst, params):
        key = search_key(params)
        return _Search(key, lambda k, v: key(dense_times(k[1], v, signed)), ONE.values,
                       lambda p, v: dense_times(p, v, signed),
                       lambda p, k: key(dense_times(p, k[1], signed)), itemgetter(0), lambda k: k)

    def step(c: float, v: Dense) -> float:
        c += v[HIERO_SCORE]
        return 0.0 if signed and -CANONICAL_EPS < c < CANONICAL_EPS else c

    def join(c: float, d: float) -> float:
        c += d
        return 0.0 if signed and -CANONICAL_EPS < c < CANONICAL_EPS else c

    return _Search(itemgetter(HIERO_SCORE), step, 0.0, step, join, float,
                   lambda c: (c, (0.0,) * HIERO_SCORE + (c,) + (0.0,) * (NUM_FEATURES - HIERO_SCORE - 1)))


def _distances(fst: Wfst, search: _Search, backward: bool = False,
               ) -> tuple[list[Any], list[tuple[int, Row] | None]]:
    """Best key from the initial state to every state, with backpointers
    (the previous state and the row of the arc taken).

    With ``backward``, the best key from every state to acceptance (final
    weight included) instead, and no backpointers: in reverse topological
    order, each state takes the least of its final key and its own arcs'
    keys plus their targets' (Mohri, 2002), the same key in any order as
    keys order totally (a nan cost needs an overflow under a zero lambda).
    A cyclic machine is searched with Dijkstra, backward on reversed arcs.
    """
    lift, step = search.lift, search.step
    order = topological_order(fst)
    adj = dense_arcs(fst)
    n = fst.num_states
    keys: list[Any] = [None] * n
    back: list[tuple[int, Row] | None] = [None] * n
    if backward:
        for s, fw in fst.finals():
            keys[s] = lift(fw.values)
    elif fst.initial != NO_STATE:
        keys[fst.initial] = lift(ONE.values)

    if order is not None and backward:
        for s in reversed(order):
            best = keys[s]
            for t, _, _, v in adj[s]:
                kt = keys[t]
                if kt is not None:
                    k = step(kt, v)
                    if best is None or k < best:
                        best = k
            keys[s] = best
    elif order is not None:
        for s in order:
            ks = keys[s]
            if ks is None:
                continue
            for row in adj[s]:
                cand = step(ks, row[3])
                t = row[0]
                old = keys[t]
                if old is None or cand < old:
                    keys[t] = cand
                    back[t] = (s, row)
    else:
        if backward:
            rev: list[list[Row]] = [[] for _ in range(n)]
            for s, rows in enumerate(adj):
                for t, il, ol, w in rows:
                    rev[t].append((s, il, ol, w))
            adj = rev
        counter = count()
        heap = [(k, next(counter), s) for s, k in enumerate(keys) if k is not None]
        heapq.heapify(heap)
        settled = [False] * n
        while heap:
            ks, _, s = heapq.heappop(heap)
            if settled[s]:
                continue
            settled[s] = True
            for row in adj[s]:
                t = row[0]
                if settled[t]:
                    continue
                cand = step(ks, row[3])
                old = keys[t]
                if old is None or cand < old:
                    keys[t] = cand
                    back[t] = (s, row)
                    heapq.heappush(heap, (cand, next(counter), t))
    return keys, [] if backward else back


def shortest_path(fst: Wfst, params: ParamVector) -> PathWitness:
    """Minimum-scalarized-cost path from the initial state to acceptance.

    Acyclic machines use topological relaxation; cyclic ones require all
    arc scalarizations to be nonnegative and use Dijkstra.  Raises
    :class:`NoPathError` when the machine accepts nothing.
    """
    _check_frozen(fst)
    _check_searchable(fst, params)
    search = _search(fst, params)
    return _best_path(fst, search, *_distances(fst, search))


def _best_path(fst: Wfst, search: _Search, keys: list[Any],
               back: list[tuple[int, Row] | None]) -> PathWitness:
    """The best complete path given forward keys and backpointers."""
    step = search.step
    best_state = NO_STATE
    best: Any = None
    for s, fw in fst.finals():
        ks = keys[s]
        if ks is None:
            continue
        k = step(ks, fw.values)
        if best is None or k < best:
            best = k
            best_state = s
    if best is None:
        raise NoPathError("no path from the initial state to a final state")

    rows: list[Row] = []
    s = best_state
    while s != fst.initial:
        entry = back[s]
        assert entry is not None
        s, row = entry
        rows.append(row)
    rows.reverse()
    final_w = fst.final_weight(best_state)
    assert final_w is not None
    cost, values = search.pair(best)
    return PathWitness(rows=tuple(rows), final_weight=final_w,
                       weight=FeatureWeight(values), cost=cost)


def _nbest_raw(fst: Wfst, cap: float, search: _Search, beta: list[Any]) -> Iterator[PathWitness]:
    """Up to ``cap`` cheapest paths, drawn lazily by best-first search
    with an exact heuristic, expanding no state more than ``cap`` times.

    ``cap`` may be ``math.inf``: every path, in cost order, which ends
    only on an acyclic machine.  ``beta`` holds the backward keys of
    :func:`_distances` under ``search``; the initial state's is not None.
    """
    extend, join = search.extend, search.join
    arcs = dense_arcs(fst)
    finals = {s: search.lift(fw.values) for s, fw in fst.finals()}

    # Nodes are (state, row, parent-index); rows recovered by walking parents.
    nodes: list[tuple[int, Row | None, int]] = [(fst.initial, None, -1)]
    counter = count()
    # Entries are (bound, tie counter, node, prefix).
    heap = [(beta[fst.initial], next(counter), 0, search.unit)]
    pops = [0] * fst.num_states
    drawn = 0

    while heap and drawn < cap:
        bound, _, node_idx, prefix = heapq.heappop(heap)
        state = nodes[node_idx][0]
        if state == NO_STATE:
            # Completed path: rebuild the row sequence.
            path: list[Row] = []
            idx = nodes[node_idx][2]
            while idx != -1:
                _, row, idx = nodes[idx]
                if row is not None:
                    path.append(row)
            path.reverse()
            fw = fst.final_weight(path[-1][0] if path else fst.initial)
            assert fw is not None
            cost, values = search.pair(bound)
            drawn += 1
            yield PathWitness(rows=tuple(path), final_weight=fw,
                              weight=FeatureWeight(values), cost=cost)
            continue
        if pops[state] >= cap:
            continue
        pops[state] += 1

        fk = finals.get(state)
        if fk is not None:
            node = len(nodes)
            nodes.append((NO_STATE, None, node_idx))
            heapq.heappush(heap, (join(prefix, fk), next(counter), node, None))
        for row in arcs[state]:
            b = beta[row[0]]
            if b is None:
                continue
            ext = extend(prefix, row[3])
            node = len(nodes)
            nodes.append((row[0], row, node_idx))
            heapq.heappush(heap, (join(ext, b), next(counter), node, ext))


def _unique(paths: Iterator[PathWitness], n: int) -> Iterator[PathWitness]:
    """The first n of ``paths`` whose output strings no earlier path
    had, lazily: from a stream in cost order, each string's cheapest."""
    seen: set[tuple[int, ...]] = set()
    for p in paths:
        labels = p.output_labels()
        if labels not in seen:
            seen.add(labels)
            yield p
            if len(seen) == n:
                return


def iter_nbest(fst: Wfst, n: int, params: ParamVector,
               unique: bool = False) -> Iterator[PathWitness]:
    """The paths of :func:`nbest`, each searched for only when asked for.

    Checks its input, and raises as :func:`nbest` does, before returning.
    The raw stream stops after n paths, expanding no state more than n
    times; the unique one filters a stream with neither cap, so its
    paths do not depend on n.
    """
    _check_frozen(fst)
    check_count("n", n)
    _check_searchable(fst, params)
    if unique and topological_order(fst) is None:
        raise ContractError("unique n-best requires an acyclic machine")
    search = _search(fst, params)
    beta, _ = _distances(fst, search, backward=True)
    if beta[fst.initial] is None:
        raise NoPathError("no path from the initial state to a final state")
    if unique:
        return _unique(_nbest_raw(fst, math.inf, search, beta), n)
    return _nbest_raw(fst, n, search, beta)


def nbest(fst: Wfst, n: int, params: ParamVector, unique: bool = False) -> list[PathWitness]:
    """The n cheapest paths in cost order.

    With ``unique``, paths whose output label strings coincide are
    collapsed keeping the cheapest; that mode requires an acyclic machine
    (otherwise there is no bound on how many raw paths must be drawn),
    and its list at n is the first n of its list at any larger n.
    """
    return list(iter_nbest(fst, n, params, unique))


# What pruning keeps of a machine, on its own state ids: see _prune_mask.
Mask = tuple[Sequence[int], Sequence[Sequence[Row]], dict[int, FeatureWeight]]


def prune_to_node_budget(fst: Wfst, budget: int, params: ParamVector) -> Wfst:
    """Threshold-prune an acyclic machine down to at most ``budget`` states.

    Removes states and arcs whose best through-cost exceeds the best path
    cost by more than a threshold chosen (by searching the sorted
    through-costs) as large as possible while meeting the budget.  The
    shortest path always survives with its cost intact; when even the
    optimal-cost plateau is over budget, or the shortest path's cost is
    not finite (a sum overflowed), only the shortest path is kept.
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
    Over budget, the searches add floats for ``combine``'s hiero lattice
    under ``HIERO_ONLY`` (see :func:`_search`).  The forward pass also
    tells which final states are accessible; the threshold is found in
    one downward scan of the sorted through-costs.
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
    fkeys, back = _distances(fst, search)
    # A final state that the forward pass reaches is accessible.
    if all(fkeys[s] is None for s, _ in fst.finals()) \
            and not any(fst.is_final(s) for s in accessible_states(fst)):
        raise NoPathError("machine accepts nothing")
    best = _best_path(fst, search, fkeys, back)
    sp_states = len(best.rows) + 1
    if budget < sp_states:
        raise ContractError(f"budget {budget} is below the {sp_states} states on the shortest path")

    bkeys, _ = _distances(fst, search, backward=True)
    cost, lift = search.cost, search.lift
    fcost, bcost = ([None if k is None else cost(k) for k in keys] for keys in (fkeys, bkeys))
    # A state on no complete path is nan: within no limit.
    through = [math.nan if fc is None or bc is None else fc + bc for fc, bc in zip(fcost, bcost)]
    best_cost = best.cost
    slack = 1e-9 * max(1.0, abs(best_cost))

    finite = sorted([c for c in through if c < math.inf])
    # The largest threshold c whose states, those within c + slack, fit
    # the budget: with more states than that, finite[budget] > c + slack.
    i = min(budget, len(finite)) - 1
    if budget < len(finite):
        while i >= 0 and finite[budget] <= finite[i] + slack:
            i -= 1
    bound = finite[i] if i >= 0 else None
    if bound is None or bound < best_cost - slack or not math.isfinite(best_cost):
        # Even the optimal plateau is over budget, or the best cost
        # overflowed: keep just the best path, its states in path order.
        keep = [fst.initial, *(row[0] for row in best.rows)]
        arcs: list[Sequence[Row]] = [()] * fst.num_states
        for s, row in zip(keep, best.rows):
            arcs[s] = (row,)
        return keep, arcs, {keep[-1]: best.final_weight}

    limit = bound + slack
    arcs = [tuple([r for r in rows if through[r[0]] <= limit
                   and fcost[s] + cost(lift(r[3])) + bcost[r[0]] <= limit])
            if through[s] <= limit else () for s, rows in enumerate(dense_arcs(fst))]
    keep = [s for s in fst.states() if through[s] <= limit]
    return keep, arcs, {s: w for s, w in fst.finals() if through[s] <= limit}
