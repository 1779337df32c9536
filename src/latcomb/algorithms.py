"""Generic WFST algorithms: composition, search, pruning.

All functions take frozen machines and return frozen machines (or path
witnesses); nothing here mutates its inputs, so sentence-level work can
run concurrently over shared read-only transducers.

Search order: every search here (shortest path, n-best, pruning), like
``plus`` and the alignment pass of :mod:`latcomb.pipeline`, extends
paths with :func:`latcomb.semiring.dense_times` and compares them by
:func:`latcomb.semiring.search_key`: scalarized cost first, then the
feature vector.  Results are therefore deterministic and
consistent with the weight algebra.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ContractError, NoPathError, check_count
from .fst import (
    EPSILON,
    NO_STATE,
    UNK,
    Arc,
    SymbolTable,
    Wfst,
    accessible_states,
    coaccessible_states,
    dense_arcs,
    has_negative,
    topological_order,
)
from .semiring import (
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
    coacc = coaccessible_states(fst)
    if fst.initial not in coacc:
        return _empty_like(fst.isyms, fst.osyms)
    acc = accessible_states(fst)
    return _submachine(fst, [s for s in fst.states() if s in acc and s in coacc], fst.arcs)


def _submachine(fst: Wfst, keep: list[int], arcs: Callable[[int], Iterable[Arc]]) -> Wfst:
    """The machine on the states ``keep`` (which holds the initial state),
    renumbered in that order, with their final weights and, out of each
    kept state ``s``, the arcs of ``arcs(s)`` whose target is kept."""
    remap = {old: new for new, old in enumerate(keep)}
    out = Wfst(fst.isyms, fst.osyms)
    for _ in keep:
        out.add_state()
    out.set_initial(remap[fst.initial])
    for old in keep:
        new = remap[old]
        for arc in arcs(old):
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
    ids: dict[tuple[int, int, int], int] = {}
    queue: deque[tuple[int, int, int]] = deque()

    def state_of(key: tuple[int, int, int]) -> int:
        """The result state of ``key``; a new one is queued for expansion."""
        sid = ids.get(key)
        if sid is None:
            sid = ids[key] = out.add_state()
            queue.append(key)
        return sid

    out.set_initial(state_of((t1.initial, t2.initial, 0)))

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
                        dst = state_of((a1.target, a2.target, 0))
                        out.add_arc(src, Arc(a1.ilabel, a2.olabel, times(a1.weight, a2.weight), dst))
            else:
                if flt != 2:
                    # t1 advances alone on its eps-output arc.
                    dst = state_of((a1.target, s2, 1))
                    out.add_arc(src, Arc(a1.ilabel, EPSILON, a1.weight, dst))
                if flt == 0:
                    # Both sides advance on paired eps arcs.
                    for a2 in eps2:
                        dst = state_of((a1.target, a2.target, 0))
                        out.add_arc(src, Arc(a1.ilabel, a2.olabel, times(a1.weight, a2.weight), dst))
        if flt != 1:
            # t2 advances alone on its eps-input arcs.
            for a2 in eps2:
                dst = state_of((s1, a2.target, 2))
                out.add_arc(src, Arc(EPSILON, a2.olabel, a2.weight, dst))

    return connect(out.freeze())


def _check_searchable(fst: Wfst, params: ParamVector) -> None:
    """Require an initial and a final state and, for a cyclic machine,
    nonnegative arc scalarizations."""
    if fst.initial == NO_STATE or fst.num_finals == 0:
        raise NoPathError("machine accepts nothing")
    key = search_key(params)
    if topological_order(fst) is None and any(key(w)[0] < 0.0 for row in dense_arcs(fst)
                                              for _, w, _ in row):
        raise ContractError("cyclic machine with a negative-cost arc: shortest path undefined")


def _distances(fst: Wfst, key: Callable[[Dense], Key], backward: bool = False,
               ) -> tuple[list[Key | None], list[tuple[int, Arc] | None]]:
    """Best key from the initial state to every state, with backpointers.

    With ``backward``, the best key from every state to acceptance (final
    weight included) instead, searched on the reversed arcs, and each
    backpointer holds the next state and arc.  An acyclic machine is
    searched in topological order, a cyclic one with Dijkstra.
    """
    order = topological_order(fst)
    signed = has_negative(fst)
    n = fst.num_states
    keys: list[Key | None] = [None] * n
    back: list[tuple[int, Arc] | None] = [None] * n
    if backward:
        rev: list[list[tuple[int, Dense, Arc]]] = [[] for _ in range(n)]
        for s, row in enumerate(dense_arcs(fst)):
            for t, w, arc in row:
                rev[t].append((s, w, arc))
        adj: Sequence[Sequence[tuple[int, Dense, Arc]]] = rev
        sources = [(s, key(fw.values)) for s, fw in fst.finals()]
        if order is not None:
            order = order[::-1]
    else:
        adj = dense_arcs(fst)
        sources = [] if fst.initial == NO_STATE else [(fst.initial, key(ONE.values))]
    for s, k in sources:
        keys[s] = k

    if order is not None:
        for s in order:
            ks = keys[s]
            if ks is None:
                continue
            v = ks[1]
            for t, w, arc in adj[s]:
                cand = key(dense_times(v, w, signed))
                old = keys[t]
                if old is None or cand < old:
                    keys[t] = cand
                    back[t] = (s, arc)
    else:
        counter = count()
        heap = [(k, next(counter), s) for s, k in sources]
        heapq.heapify(heap)
        settled = [False] * n
        while heap:
            ks, _, s = heapq.heappop(heap)
            if settled[s]:
                continue
            settled[s] = True
            v = ks[1]
            for t, w, arc in adj[s]:
                if settled[t]:
                    continue
                cand = key(dense_times(v, w, signed))
                old = keys[t]
                if old is None or cand < old:
                    keys[t] = cand
                    back[t] = (s, arc)
                    heapq.heappush(heap, (cand, next(counter), t))
    return keys, back


def shortest_path(fst: Wfst, params: ParamVector) -> PathWitness:
    """Minimum-scalarized-cost path from the initial state to acceptance.

    Acyclic machines use topological relaxation; cyclic ones require all
    arc scalarizations to be nonnegative and use Dijkstra.  Raises
    :class:`NoPathError` when the machine accepts nothing.
    """
    _check_frozen(fst)
    _check_searchable(fst, params)
    key = search_key(params)
    keys, back = _distances(fst, key)
    return _best_path(fst, key, keys, back)


def _best_path(fst: Wfst, key: Callable[[Dense], Key], keys: list[Key | None],
               back: list[tuple[int, Arc] | None]) -> PathWitness:
    """The best complete path given forward keys and backpointers."""
    best_state = NO_STATE
    best: Key | None = None
    for s, fw in fst.finals():
        ks = keys[s]
        if ks is None:
            continue
        k = key(dense_times(ks[1], fw.values, has_negative(fst)))
        if best is None or k < best:
            best = k
            best_state = s
    if best is None:
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
    return PathWitness(arcs=tuple(arcs), final_weight=final_w,
                       weight=FeatureWeight(best[1]), cost=best[0])


def _nbest_raw(fst: Wfst, n: int, key: Callable[[Dense], Key],
               beta: list[Key | None]) -> list[PathWitness]:
    """Up to n cheapest paths via best-first search with an exact heuristic.

    ``beta`` holds the backward keys of :func:`_distances`.
    """
    if fst.initial == NO_STATE or beta[fst.initial] is None:
        return []
    arcs = dense_arcs(fst)
    signed = has_negative(fst)
    finals = {s: fw.values for s, fw in fst.finals()}

    # Nodes are (state, arc, parent-index); arcs recovered by walking parents.
    nodes: list[tuple[int, Arc | None, int]] = [(fst.initial, None, -1)]
    counter = count()
    # Entries are (key bound, tie counter, node, prefix weight values).
    heap: list[tuple[Key, int, int, Dense]] = [(beta[fst.initial], next(counter), 0, ONE.values)]
    pops = [0] * fst.num_states
    results: list[PathWitness] = []

    while heap and len(results) < n:
        bound, _, node_idx, prefix = heapq.heappop(heap)
        state = nodes[node_idx][0]
        if state == NO_STATE:
            # Completed path: rebuild the arc sequence.
            path: list[Arc] = []
            idx = nodes[node_idx][2]
            while idx != -1:
                s, arc, parent = nodes[idx]
                if arc is not None:
                    path.append(arc)
                idx = parent
            path.reverse()
            fw = fst.final_weight(path[-1].target if path else fst.initial)
            assert fw is not None
            results.append(PathWitness(arcs=tuple(path), final_weight=fw,
                                       weight=FeatureWeight(prefix),
                                       cost=bound[0]))
            continue
        if pops[state] >= n:
            continue
        pops[state] += 1

        fv = finals.get(state)
        if fv is not None:
            total = dense_times(prefix, fv, signed)
            node = len(nodes)
            nodes.append((NO_STATE, None, node_idx))
            heapq.heappush(heap, (key(total), next(counter), node, total))
        for t, w, arc in arcs[state]:
            b = beta[t]
            if b is None:
                continue
            ext = dense_times(prefix, w, signed)
            node = len(nodes)
            nodes.append((t, arc, node_idx))
            heapq.heappush(heap, (key(dense_times(ext, b[1], signed)), next(counter), node, ext))
    return results


def nbest(fst: Wfst, n: int, params: ParamVector, unique: bool = False) -> list[PathWitness]:
    """The n cheapest paths in cost order.

    With ``unique``, paths whose output label strings coincide are
    collapsed keeping the cheapest; that mode requires an acyclic machine
    (otherwise there is no bound on how many raw paths must be drawn).
    """
    _check_frozen(fst)
    check_count("n", n)
    _check_searchable(fst, params)
    if unique and topological_order(fst) is None:
        raise ContractError("unique n-best requires an acyclic machine")
    key = search_key(params)
    beta, _ = _distances(fst, key, backward=True)
    if not unique:
        paths = _nbest_raw(fst, n, key, beta)
        if not paths:
            raise NoPathError("no path from the initial state to a final state")
        return paths

    k = n
    while True:
        raw = _nbest_raw(fst, k, key, beta)
        if not raw:
            raise NoPathError("no path from the initial state to a final state")
        seen: set[tuple[int, ...]] = set()
        out: list[PathWitness] = []
        for p in raw:
            labels = p.output_labels()
            if labels not in seen:
                seen.add(labels)
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
    check_count("budget", budget)
    if topological_order(fst) is None:
        raise ContractError("pruning is defined for acyclic machines only")
    if fst.initial == NO_STATE or not any(fst.is_final(s) for s in accessible_states(fst)):
        raise NoPathError("machine accepts nothing")
    if fst.num_states <= budget:
        return fst
    key = search_key(params)
    fkeys, back = _distances(fst, key)
    best = _best_path(fst, key, fkeys, back)
    sp_states = len(best.arcs) + 1
    if budget < sp_states:
        raise ContractError(f"budget {budget} is below the {sp_states} states on the shortest path")

    bkeys, _ = _distances(fst, key, backward=True)
    inf = float("inf")
    through = [inf] * fst.num_states
    for s in fst.states():
        fk, bk = fkeys[s], bkeys[s]
        if fk is not None and bk is not None:
            through[s] = fk[0] + bk[0]
    best_cost = best.cost
    slack = 1e-9 * max(1.0, abs(best_cost))

    finite = sorted(c for c in through if c < inf)
    # Largest threshold whose state count fits the budget.
    bound = None
    lo, hi = 0, len(finite) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        c = finite[mid]
        if bisect_right(finite, c + slack) <= budget:
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

    limit = bound + slack

    def cheap_arcs(s: int) -> Iterator[Arc]:
        for t, w, arc in dense_arcs(fst)[s]:
            if through[t] <= limit and fkeys[s][0] + key(w)[0] + bkeys[t][0] <= limit:
                yield arc

    keep = [s for s in fst.states() if through[s] <= limit]
    return connect(_submachine(fst, keep, cheap_arcs))
