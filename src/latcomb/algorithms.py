"""Generic WFST algorithms: composition, splicing, search, pruning.

All functions take frozen machines and return frozen machines (or path
witnesses); nothing here mutates its inputs, so sentence-level work can
run concurrently over shared read-only transducers.

Search order: paths compare by scalarized cost first, then by the dense
feature-vector order of :func:`latcomb.semiring.plus`, so results are
deterministic and consistent with the weight algebra.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import count

from .errors import ContractError, NoPathError
from .fst import (
    EPSILON,
    NO_STATE,
    UNK,
    Arc,
    SymbolTable,
    Wfst,
    accessible_states,
    topological_order,
)
from .semiring import (
    NUM_FEATURES,
    ONE,
    ZERO,
    FeatureWeight,
    ParamVector,
    scalarize,
    times,
)


@dataclass(frozen=True)
class PathWitness:
    """One complete path: its arcs, final weight, and total weight.

    ``weight`` is the product of all arc weights and the final weight;
    ``cost`` is its scalarization under the parameters the search ran with.
    """

    arcs: tuple[Arc, ...]
    final_weight: FeatureWeight
    weight: FeatureWeight
    cost: float

    def input_labels(self) -> tuple[int, ...]:
        return tuple(a.ilabel for a in self.arcs if a.ilabel != EPSILON)

    def output_labels(self) -> tuple[int, ...]:
        return tuple(a.olabel for a in self.arcs if a.olabel != EPSILON)

    def unk_filled_labels(self) -> tuple[int, ...]:
        """Input labels with every UNK replaced by the aligned output label.

        Arcs whose input is UNK contribute their output label (nothing when
        that is epsilon); all other arcs contribute their input label.  This
        yields the combined translation of the pipeline.
        """
        out = []
        for a in self.arcs:
            label = a.olabel if a.ilabel == UNK else a.ilabel
            if label != EPSILON:
                out.append(label)
        return tuple(out)


def _check_frozen(*machines: Wfst) -> None:
    for m in machines:
        if not m.frozen:
            raise ContractError("algorithm inputs must be frozen machines")


def _empty_like(isyms: SymbolTable, osyms: SymbolTable) -> Wfst:
    return Wfst(isyms, osyms).freeze()


def connect(fst: Wfst) -> Wfst:
    """Drop states that are not both accessible and coaccessible.

    The weighted language is unchanged.  If nothing survives, the result
    is the canonical empty machine (no states, no initial).
    """
    _check_frozen(fst)
    if fst.initial == NO_STATE:
        return _empty_like(fst.isyms, fst.osyms)

    n = fst.num_states
    acc = [False] * n
    stack = [fst.initial]
    acc[fst.initial] = True
    while stack:
        s = stack.pop()
        for arc in fst.arcs(s):
            if not acc[arc.target]:
                acc[arc.target] = True
                stack.append(arc.target)

    reverse: list[list[int]] = [[] for _ in range(n)]
    for s in range(n):
        for arc in fst.arcs(s):
            reverse[arc.target].append(s)
    coacc = [False] * n
    stack = [s for s, _ in fst.finals()]
    for s in stack:
        coacc[s] = True
    while stack:
        s = stack.pop()
        for src in reverse[s]:
            if not coacc[src]:
                coacc[src] = True
                stack.append(src)

    keep = [s for s in range(n) if acc[s] and coacc[s]]
    if fst.initial == NO_STATE or not keep or not (acc[fst.initial] and coacc[fst.initial]):
        return _empty_like(fst.isyms, fst.osyms)

    remap = {old: new for new, old in enumerate(keep)}
    out = Wfst(fst.isyms, fst.osyms)
    for _ in keep:
        out.add_state()
    out.set_initial(remap[fst.initial])
    for old in keep:
        new = remap[old]
        for arc in fst.arcs(old):
            if arc.target in remap:
                out.add_arc(new, Arc(arc.ilabel, arc.olabel, arc.weight, remap[arc.target]))
        w = fst.final_weight(old)
        if w is not None:
            out.set_final(new, w)
    return out.freeze()


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
        return _empty_like(t1.isyms, t2.osyms)

    # t2 arcs indexed by input label, plus its eps-input arcs, per state.
    by_ilabel: list[dict[int, list[Arc]]] = []
    eps_in: list[list[Arc]] = []
    for s in t2.states():
        index: dict[int, list[Arc]] = {}
        eps_arcs: list[Arc] = []
        for arc in t2.arcs(s):
            if arc.ilabel == EPSILON:
                eps_arcs.append(arc)
            else:
                index.setdefault(arc.ilabel, []).append(arc)
        by_ilabel.append(index)
        eps_in.append(eps_arcs)

    out = Wfst(t1.isyms, t2.osyms)
    start = (t1.initial, t2.initial, 0)
    ids: dict[tuple[int, int, int], int] = {start: out.add_state()}
    out.set_initial(0)
    queue: deque[tuple[int, int, int]] = deque([start])

    def state_of(key: tuple[int, int, int]) -> int:
        sid = ids.get(key)
        if sid is None:
            sid = out.add_state()
            ids[key] = sid
        return sid

    while queue:
        key = queue.popleft()
        s1, s2, flt = key
        src = ids[key]

        f1 = t1.final_weight(s1)
        if f1 is not None:
            f2 = t2.final_weight(s2)
            if f2 is not None:
                out.set_final(src, times(f1, f2))

        arcs1 = t1.arcs(s1)
        index2 = by_ilabel[s2]
        eps2 = eps_in[s2]
        for a1 in arcs1:
            if a1.olabel != EPSILON:
                matches = index2.get(a1.olabel)
                if matches:
                    for a2 in matches:
                        nkey = (a1.target, a2.target, 0)
                        known = nkey in ids
                        dst = state_of(nkey)
                        if not known:
                            queue.append(nkey)
                        out.add_arc(src, Arc(a1.ilabel, a2.olabel, times(a1.weight, a2.weight), dst))
            else:
                if flt != 2:
                    # t1 advances alone on its eps-output arc.
                    nkey = (a1.target, s2, 1)
                    known = nkey in ids
                    dst = state_of(nkey)
                    if not known:
                        queue.append(nkey)
                    out.add_arc(src, Arc(a1.ilabel, EPSILON, a1.weight, dst))
                if flt == 0:
                    # Both sides advance on paired eps arcs.
                    for a2 in eps2:
                        nkey = (a1.target, a2.target, 0)
                        known = nkey in ids
                        dst = state_of(nkey)
                        if not known:
                            queue.append(nkey)
                        out.add_arc(src, Arc(a1.ilabel, a2.olabel, times(a1.weight, a2.weight), dst))
        if flt != 1:
            # t2 advances alone on its eps-input arcs.
            for a2 in eps2:
                nkey = (s1, a2.target, 2)
                known = nkey in ids
                dst = state_of(nkey)
                if not known:
                    queue.append(nkey)
                out.add_arc(src, Arc(EPSILON, a2.olabel, a2.weight, dst))

    return connect(out.freeze())


def replace(root: Wfst, label: int, sub: Wfst) -> Wfst:
    """Splice a copy of ``sub`` over every root arc labeled ``label``:``label``.

    The replaced arc's weight moves onto the entry of the spliced copy;
    entry and exit are epsilon arcs, which downstream composition filters
    handle.  Arcs with other labels are kept as they are.
    """
    _check_frozen(root, sub)
    if label == EPSILON:
        raise ContractError("cannot replace the epsilon label")
    if sub.initial == NO_STATE:
        raise ContractError("substituted machine needs an initial state")
    if sub.num_finals == 0:
        raise ContractError("substituted machine needs at least one final state")

    out = Wfst(root.isyms, root.osyms)
    for _ in root.states():
        out.add_state()
    out.set_initial(root.initial)
    for s, w in root.finals():
        out.set_final(s, w)

    for s in root.states():
        for arc in root.arcs(s):
            if arc.ilabel == label and arc.olabel == label:
                offset = out.num_states
                for _ in sub.states():
                    out.add_state()
                out.add_arc(s, Arc(EPSILON, EPSILON, arc.weight, offset + sub.initial))
                for q in sub.states():
                    for sarc in sub.arcs(q):
                        out.add_arc(offset + q, Arc(sarc.ilabel, sarc.olabel, sarc.weight,
                                                    offset + sarc.target))
                for q, fw in sub.finals():
                    out.add_arc(offset + q, Arc(EPSILON, EPSILON, fw, arc.target))
            else:
                out.add_arc(s, arc)
    return out.freeze()


_Key = tuple[float, tuple[float, ...]]


def _weight_key(w: FeatureWeight, cost: float) -> _Key:
    return (cost, w.dense())


def _check_searchable(fst: Wfst, params: ParamVector) -> list[int] | None:
    """The topological order when acyclic; otherwise None, after requiring
    nonnegative arc scalarizations."""
    order = topological_order(fst)
    if order is not None:
        return order
    for s in fst.states():
        for arc in fst.arcs(s):
            if scalarize(arc.weight, params) < 0.0:
                raise ContractError("cyclic machine with a negative-cost arc: shortest path undefined")
    return None


def _forward_distances(fst: Wfst, params: ParamVector, order: list[int] | None,
                       ) -> tuple[list[FeatureWeight | None], list[float],
                                  list[tuple[int, Arc] | None]]:
    """Best weight from the initial state to every state, with backpointers.

    ``order`` is the machine's topological order, or None for a cyclic
    machine (searched with Dijkstra).
    """
    n = fst.num_states
    dist: list[FeatureWeight | None] = [None] * n
    cost: list[float] = [0.0] * n
    back: list[tuple[int, Arc] | None] = [None] * n
    if fst.initial == NO_STATE:
        return dist, cost, back
    dist[fst.initial] = ONE
    cost[fst.initial] = 0.0

    if order is not None:
        for s in order:
            dw = dist[s]
            if dw is None:
                continue
            for arc in fst.arcs(s):
                cand = times(dw, arc.weight)
                if cand.infinite:
                    continue
                cc = scalarize(cand, params)
                t = arc.target
                if dist[t] is None or (cc, cand.dense()) < (cost[t], dist[t].dense()):
                    dist[t] = cand
                    cost[t] = cc
                    back[t] = (s, arc)
    else:
        counter = count()
        heap: list[tuple[float, tuple[float, ...], int, int]] = [(0.0, ONE.dense(), next(counter), fst.initial)]
        settled = [False] * n
        while heap:
            cc, _, _, s = heapq.heappop(heap)
            if settled[s]:
                continue
            settled[s] = True
            dw = dist[s]
            assert dw is not None
            for arc in fst.arcs(s):
                t = arc.target
                if settled[t]:
                    continue
                cand = times(dw, arc.weight)
                if cand.infinite:
                    continue
                cand_c = scalarize(cand, params)
                if dist[t] is None or (cand_c, cand.dense()) < (cost[t], dist[t].dense()):
                    dist[t] = cand
                    cost[t] = cand_c
                    back[t] = (s, arc)
                    heapq.heappush(heap, (cand_c, cand.dense(), next(counter), t))
    return dist, cost, back


def _backward_distances(fst: Wfst, params: ParamVector, order: list[int] | None,
                        ) -> tuple[list[FeatureWeight | None], list[float]]:
    """Best weight from every state to acceptance (final weight included).

    ``order`` is as for :func:`_forward_distances`.
    """
    n = fst.num_states
    dist: list[FeatureWeight | None] = [None] * n
    cost: list[float] = [0.0] * n
    for s, fw in fst.finals():
        dist[s] = fw
        cost[s] = scalarize(fw, params)

    if order is not None:
        for s in reversed(order):
            for arc in fst.arcs(s):
                tw = dist[arc.target]
                if tw is None:
                    continue
                cand = times(arc.weight, tw)
                if cand.infinite:
                    continue
                cc = scalarize(cand, params)
                if dist[s] is None or (cc, cand.dense()) < (cost[s], dist[s].dense()):
                    dist[s] = cand
                    cost[s] = cc
    else:
        reverse: list[list[tuple[int, Arc]]] = [[] for _ in range(n)]
        for s in range(n):
            for arc in fst.arcs(s):
                reverse[arc.target].append((s, arc))
        counter = count()
        heap = [(cost[s], dist[s].dense(), next(counter), s)  # type: ignore[union-attr]
                for s, _ in fst.finals()]
        heapq.heapify(heap)
        settled = [False] * n
        while heap:
            cc, _, _, s = heapq.heappop(heap)
            if settled[s]:
                continue
            settled[s] = True
            dw = dist[s]
            assert dw is not None
            for src, arc in reverse[s]:
                if settled[src]:
                    continue
                cand = times(arc.weight, dw)
                if cand.infinite:
                    continue
                cand_c = scalarize(cand, params)
                if dist[src] is None or (cand_c, cand.dense()) < (cost[src], dist[src].dense()):
                    dist[src] = cand
                    cost[src] = cand_c
                    heapq.heappush(heap, (cand_c, cand.dense(), next(counter), src))
    return dist, cost


def shortest_path(fst: Wfst, params: ParamVector) -> PathWitness:
    """Minimum-scalarized-cost path from the initial state to acceptance.

    Acyclic machines use topological relaxation; cyclic ones require all
    arc scalarizations to be nonnegative and use Dijkstra.  Raises
    :class:`NoPathError` when the machine accepts nothing.
    """
    _check_frozen(fst)
    if fst.initial == NO_STATE or fst.num_finals == 0:
        raise NoPathError("machine accepts nothing")
    order = _check_searchable(fst, params)
    dist, _, back = _forward_distances(fst, params, order)
    return _best_path(fst, params, dist, back)


def _best_path(fst: Wfst, params: ParamVector, dist: list[FeatureWeight | None],
               back: list[tuple[int, Arc] | None]) -> PathWitness:
    """The best complete path given forward distances and backpointers."""
    best_state = NO_STATE
    best_w: FeatureWeight | None = None
    best_key: _Key | None = None
    for s, fw in fst.finals():
        dw = dist[s]
        if dw is None:
            continue
        total = times(dw, fw)
        if total.infinite:
            continue
        key = _weight_key(total, scalarize(total, params))
        if best_key is None or key < best_key:
            best_key = key
            best_w = total
            best_state = s
    if best_w is None or best_key is None:
        raise NoPathError("no path from the initial state to a final state")

    arcs: list[Arc] = []
    s = best_state
    while s != fst.initial:
        entry = back[s]
        assert entry is not None
        src, arc = entry
        arcs.append(arc)
        s = src
    arcs.reverse()
    final_w = fst.final_weight(best_state)
    assert final_w is not None
    return PathWitness(arcs=tuple(arcs), final_weight=final_w, weight=best_w, cost=best_key[0])


def _nbest_raw(fst: Wfst, n: int, params: ParamVector,
               beta: list[FeatureWeight | None]) -> list[PathWitness]:
    """Up to n cheapest paths via best-first search with an exact heuristic.

    ``beta`` holds the backward distances of :func:`_backward_distances`.
    """
    if fst.initial == NO_STATE or beta[fst.initial] is None:
        return []

    # Nodes are (state, arc, parent-index); arcs recovered by walking parents.
    nodes: list[tuple[int, Arc | None, int]] = [(fst.initial, None, -1)]
    counter = count()
    start_bound = beta[fst.initial]
    assert start_bound is not None
    heap: list[tuple[float, tuple[float, ...], int, int, FeatureWeight]] = [
        (scalarize(start_bound, params), start_bound.dense(), next(counter), 0, ONE)
    ]
    pops = [0] * fst.num_states
    results: list[PathWitness] = []

    while heap and len(results) < n:
        _, _, _, node_idx, prefix = heapq.heappop(heap)
        state = nodes[node_idx][0]
        if state == NO_STATE:
            # Completed path: rebuild the arc sequence.
            arcs: list[Arc] = []
            idx = nodes[node_idx][2]
            while idx != -1:
                s, arc, parent = nodes[idx]
                if arc is not None:
                    arcs.append(arc)
                idx = parent
            arcs.reverse()
            final_state = arcs[-1].target if arcs else fst.initial
            fw = fst.final_weight(final_state)
            assert fw is not None
            results.append(PathWitness(arcs=tuple(arcs), final_weight=fw, weight=prefix,
                                       cost=scalarize(prefix, params)))
            continue
        if pops[state] >= n:
            continue
        pops[state] += 1

        fw = fst.final_weight(state)
        if fw is not None:
            total = times(prefix, fw)
            if not total.infinite:
                node = len(nodes)
                nodes.append((NO_STATE, None, node_idx))
                heapq.heappush(heap, (scalarize(total, params), total.dense(),
                                      next(counter), node, total))
        for arc in fst.arcs(state):
            b = beta[arc.target]
            if b is None:
                continue
            ext = times(prefix, arc.weight)
            bound = times(ext, b)
            if bound.infinite:
                continue
            node = len(nodes)
            nodes.append((arc.target, arc, node_idx))
            heapq.heappush(heap, (scalarize(bound, params), bound.dense(), next(counter), node, ext))
    return results


def nbest(fst: Wfst, n: int, params: ParamVector, unique: bool = False) -> list[PathWitness]:
    """The n cheapest paths in cost order.

    With ``unique``, paths whose output label strings coincide are
    collapsed keeping the cheapest; that mode requires an acyclic machine
    (otherwise there is no bound on how many raw paths must be drawn).
    """
    _check_frozen(fst)
    if n < 1:
        raise ContractError(f"n must be positive, got {n}")
    if fst.initial == NO_STATE or fst.num_finals == 0:
        raise NoPathError("machine accepts nothing")
    order = _check_searchable(fst, params)
    if unique and order is None:
        raise ContractError("unique n-best requires an acyclic machine")
    beta, _ = _backward_distances(fst, params, order)
    if not unique:
        paths = _nbest_raw(fst, n, params, beta)
        if not paths:
            raise NoPathError("no path from the initial state to a final state")
        return paths

    k = n
    while True:
        raw = _nbest_raw(fst, k, params, beta)
        if not raw:
            raise NoPathError("no path from the initial state to a final state")
        seen: set[tuple[int, ...]] = set()
        out: list[PathWitness] = []
        for p in raw:
            key = p.output_labels()
            if key not in seen:
                seen.add(key)
                out.append(p)
            if len(out) == n:
                return out
        if len(raw) < k:
            return out  # machine exhausted
        k *= 2


def prune_to_node_budget(fst: Wfst, budget: int, params: ParamVector) -> Wfst:
    """Threshold-prune an acyclic machine down to at most ``budget`` states.

    Removes states and arcs whose best through-cost exceeds the best path
    cost by more than a threshold chosen (by searching the sorted
    through-costs) as large as possible while meeting the budget.  The
    shortest path always survives with its cost intact; when even the
    optimal-cost plateau is over budget, only the shortest path is kept.
    """
    _check_frozen(fst)
    if budget < 1:
        raise ContractError(f"budget must be positive, got {budget}")
    order = topological_order(fst)
    if order is None:
        raise ContractError("pruning is defined for acyclic machines only")
    if fst.initial == NO_STATE or not any(fst.is_final(s) for s in accessible_states(fst)):
        raise NoPathError("machine accepts nothing")
    if fst.num_states <= budget:
        return fst
    fdist, fcost, back = _forward_distances(fst, params, order)
    best = _best_path(fst, params, fdist, back)
    sp_states = len(best.arcs) + 1
    if budget < sp_states:
        raise ContractError(f"budget {budget} is below the {sp_states} states on the shortest path")

    bdist, bcost = _backward_distances(fst, params, order)
    inf = float("inf")
    through = [inf] * fst.num_states
    for s in fst.states():
        if fdist[s] is not None and bdist[s] is not None:
            through[s] = fcost[s] + bcost[s]
    best_cost = best.cost
    slack = 1e-9 * max(1.0, abs(best_cost))

    finite = sorted(c for c in through if c < inf)
    # Largest threshold whose state count fits the budget.
    bound = None
    lo, hi = 0, len(finite) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        c = finite[mid]
        cnt = sum(1 for t in through if t <= c + slack)
        if cnt <= budget:
            bound = c
            lo = mid + 1
        else:
            hi = mid - 1
    if bound is None or bound < best_cost - slack:
        # Even the optimal plateau is over budget: keep just the best path.
        out = Wfst(fst.isyms, fst.osyms)
        prev = out.add_state()
        out.set_initial(prev)
        for arc in best.arcs:
            nxt = out.add_state()
            out.add_arc(prev, Arc(arc.ilabel, arc.olabel, arc.weight, nxt))
            prev = nxt
        out.set_final(prev, best.final_weight)
        return out.freeze()

    keep = [s for s in fst.states() if through[s] <= bound + slack]
    remap = {old: new for new, old in enumerate(keep)}
    out = Wfst(fst.isyms, fst.osyms)
    for _ in keep:
        out.add_state()
    out.set_initial(remap[fst.initial])
    for old in keep:
        new = remap[old]
        for arc in fst.arcs(old):
            if arc.target not in remap:
                continue
            b = bdist[arc.target]
            if b is None or fdist[old] is None:
                continue
            arc_through = fcost[old] + scalarize(arc.weight, params) + bcost[arc.target]
            if arc_through <= bound + slack:
                out.add_arc(new, Arc(arc.ilabel, arc.olabel, arc.weight, remap[arc.target]))
        fw = fst.final_weight(old)
        if fw is not None:
            out.set_final(new, fw)
    return connect(out.freeze())


def scale_weights(fst: Wfst, feature_id: int, factor: float) -> Wfst:
    """Multiply one feature component by ``factor`` on every weight.

    Exists for exporting to scalar-weight consumers; for search it is
    preferable to leave counts raw and fold scaling into the parameter
    vector (the two are equivalent at argmin level).
    """
    _check_frozen(fst)
    if not (0 <= feature_id < NUM_FEATURES):
        raise ContractError(f"unknown feature id {feature_id}")

    def scaled(w: FeatureWeight) -> FeatureWeight:
        if w.infinite:
            return ZERO
        return FeatureWeight.from_features(
            (fid, v * factor if fid == feature_id else v) for fid, v in w.pairs
        )

    out = Wfst(fst.isyms, fst.osyms)
    for _ in fst.states():
        out.add_state()
    if fst.initial != NO_STATE:
        out.set_initial(fst.initial)
    for s in fst.states():
        for arc in fst.arcs(s):
            out.add_arc(s, Arc(arc.ilabel, arc.olabel, scaled(arc.weight), arc.target))
    for s, fw in fst.finals():
        out.set_final(s, scaled(fw))
    return out.freeze()
