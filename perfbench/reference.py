"""Reference results for the benchmark's sentences, computed independently.

:func:`reference_optimum` runs a typed edit-distance dynamic program of
each NMT path (with every UNK run expansion) against the hiero lattice.
It works on the generator's plain data and shares no code with the
program's transducer algorithms.  Its answer is the optimal cost and the
set of every ``(t_comb, t_hiero)`` pair that reaches it: a hypothesis
pair can admit several optimal alignments with equal cost but different
``UNK`` fills, and the program may return any one of them.

The hiero lattice is first pruned to the node budget exactly as the
program's ``prune_to_node_budget`` specifies (largest through-cost
threshold that fits the budget), again on plain data.

:func:`check_result` is the per-sentence verdict the benchmark counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import UNK_WORD, Corpus, Lattice, Sentence

COST_TOL = 1e-9


@dataclass(frozen=True)
class Reference:
    cost: float
    pairs: frozenset  # of (t_comb, t_hiero) tuples whose cost is within COST_TOL of ``cost``


def _topological(lattice: Lattice, keep_arc) -> tuple[list[int], list[list[tuple]]]:
    """Topological state order and per-state incoming arcs (src, word, score)."""
    incoming: list[list[tuple]] = [[] for _ in range(lattice.num_states)]
    indegree = [0] * lattice.num_states
    out: list[list[int]] = [[] for _ in range(lattice.num_states)]
    for arc in lattice.arcs:
        if keep_arc(arc):
            src, dst, word, score = arc
            incoming[dst].append((src, word, score))
            indegree[dst] += 1
            out[src].append(dst)
    stack = [s for s in range(lattice.num_states) if indegree[s] == 0]
    order = []
    while stack:
        s = stack.pop()
        order.append(s)
        for t in out[s]:
            indegree[t] -= 1
            if indegree[t] == 0:
                stack.append(t)
    if len(order) != lattice.num_states:
        raise ValueError("lattice has a cycle")
    return order, incoming


def _best_costs(lattice: Lattice) -> tuple[list[float], list[float]]:
    """Cheapest hiero score from the start to each state and from each state to a final."""
    inf = float("inf")
    order, incoming = _topological(lattice, lambda arc: True)
    fwd = [inf] * lattice.num_states
    fwd[0] = 0.0
    for t in order:
        for src, _, score in incoming[t]:
            if fwd[src] + score < fwd[t]:
                fwd[t] = fwd[src] + score
    bwd = [inf] * lattice.num_states
    for f in lattice.finals:
        bwd[f] = 0.0
    outgoing: list[list[tuple]] = [[] for _ in range(lattice.num_states)]
    for src, dst, _, score in lattice.arcs:
        outgoing[src].append((dst, score))
    for s in reversed(order):
        for dst, score in outgoing[s]:
            if score + bwd[dst] < bwd[s]:
                bwd[s] = score + bwd[dst]
    return fwd, bwd


def pruned_arcs(lattice: Lattice, budget: int):
    """Predicate on hiero arcs that survive pruning to ``budget`` states.

    Follows the program's specification: keep the states and arcs whose
    best complete-path cost through them is within the largest
    threshold (taken from the sorted through-costs) that keeps at most
    ``budget`` states.  Lattices within the budget are kept whole.
    """
    if lattice.num_states <= budget:
        return lambda arc: True
    fwd, bwd = _best_costs(lattice)
    inf = float("inf")
    through = [f + b for f, b in zip(fwd, bwd)]
    best = min(fwd[f] for f in lattice.finals)
    slack = 1e-9 * max(1.0, abs(best))
    finite = sorted(c for c in through if c < inf)
    bound = None
    lo, hi = 0, len(finite) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if sum(1 for t in through if t <= finite[mid] + slack) <= budget:
            bound = finite[mid]
            lo = mid + 1
        else:
            hi = mid - 1
    if bound is None or bound < best - slack:
        raise ValueError("budget below the optimal plateau; not modelled by the reference")
    limit = bound + slack
    return lambda arc: (through[arc[0]] <= limit and through[arc[1]] <= limit
                        and fwd[arc[0]] + arc[3] + bwd[arc[1]] <= limit)


def _paths(lattice: Lattice) -> list[tuple[tuple[str, ...], float]]:
    """Every (token sequence, summed score) of an acyclic lattice, in DFS order."""
    outgoing: list[list[tuple]] = [[] for _ in range(lattice.num_states)]
    for src, dst, word, score in lattice.arcs:
        outgoing[src].append((dst, word, score))
    finals = set(lattice.finals)
    paths = []
    stack = [(0, (), 0.0)]
    while stack:
        state, tokens, score = stack.pop()
        if state in finals:
            paths.append((tokens, score))
        for dst, word, arc_score in outgoing[state]:
            stack.append((dst, tokens + (word,), score + arc_score))
    return paths


def _merge(cell: dict, key: tuple, cost: float) -> None:
    old = cell.get(key)
    if old is None or cost < old:
        cell[key] = cost


def _trim(cell: dict) -> dict:
    """Keep only the entries within COST_TOL of the cell's best cost."""
    if not cell:
        return cell
    best = min(cell.values())
    return {k: c for k, c in cell.items() if c <= best + COST_TOL}


def reference_optimum(sentence: Sentence, corpus: Corpus) -> Reference:
    """Optimal combination cost and every cost-optimal (t_comb, t_hiero) pair.

    DP cells are indexed by (NMT token position, hiero state) and map a
    partial (combined string, hiero string) to its cost.  Per NMT token:
    delete it, align it with a hiero arc (match, substitution, or UNK
    fill), or insert hiero arcs before it.  An UNK token is expanded into
    1..max_unk_run copies, each extra copy paying ``lambda_ins``.
    """
    p = corpus.params
    l_nmt, l_hiero = p["lambda_nmt"], p["lambda_hiero"]
    l_sub, l_edit, l_ins = p["lambda_sub"], p["lambda_edit"], p["lambda_ins"]
    vocab = set(corpus.vocab)
    hiero = sentence.hiero
    order, incoming = _topological(hiero, pruned_arcs(hiero, p["hiero_node_budget"]))

    def insertions(column: list[dict]) -> list[dict]:
        for q in order:
            cell = column[q]
            for src, word, score in incoming[q]:
                step = l_edit + l_hiero * score
                for (comb, hyp), cost in column[src].items():
                    _merge(cell, (comb, hyp + (word,)), cost + step)
            column[q] = _trim(cell)
        return column

    def advance(column: list[dict], token: str) -> list[dict]:
        """Consume one NMT token (or one UNK copy)."""
        new: list[dict] = [{} for _ in column]
        unk = token == UNK_WORD
        kept = () if unk else (token,)
        for q in order:
            cell = new[q]
            for (comb, hyp), cost in column[q].items():
                _merge(cell, (comb + kept, hyp), cost + l_edit)
            for src, word, score in incoming[q]:
                if unk:
                    step, out = (l_sub if word in vocab else 0.0), (word,)
                else:
                    step, out = (0.0 if word == token else l_edit), kept
                step += l_hiero * score
                for (comb, hyp), cost in column[src].items():
                    _merge(cell, (comb + out, hyp + (word,)), cost + step)
        return insertions(new)

    start = [{} for _ in range(hiero.num_states)]
    start[0] = {((), ()): 0.0}
    start = insertions(start)
    best: dict = {}
    for tokens, nmt_score in _paths(sentence.nmt):
        column = start
        for token in tokens:
            if token != UNK_WORD:
                column = advance(column, token)
                continue
            run = advance(column, token)
            merged = [dict(cell) for cell in run]
            for _ in range(p["max_unk_run"] - 1):
                run = advance([{k: c + l_ins for k, c in cell.items()} for cell in run], token)
                for q, cell in enumerate(run):
                    for key, cost in cell.items():
                        _merge(merged[q], key, cost)
            column = [_trim(cell) for cell in merged]
        for f in hiero.finals:
            for key, cost in column[f].items():
                _merge(best, key, cost + l_nmt * nmt_score)
    best = _trim(best)
    return Reference(cost=min(best.values()), pairs=frozenset(best))


def check_result(reference: Reference, t_comb: tuple, t_hiero: tuple, cost: float) -> str | None:
    """None when the result is optimal, else the reason it is not."""
    if not abs(cost - reference.cost) <= COST_TOL:
        return f"cost {cost!r} differs from the reference optimum {reference.cost!r}"
    if (tuple(t_comb), tuple(t_hiero)) not in reference.pairs:
        return "t_comb/t_hiero is not among the cost-optimal pairs"
    return None


def hiero_strings_by_cost(lattice: Lattice) -> list[tuple[str, ...]]:
    """Distinct hiero strings, cheapest first (for the corpus report check)."""
    best: dict[tuple[str, ...], float] = {}
    for tokens, score in _paths(lattice):
        if tokens not in best or score < best[tokens]:
            best[tokens] = score
    return sorted(best, key=lambda t: (best[t], t))
