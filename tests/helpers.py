"""Shared test utilities: builders, random lattices, and naive oracles."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from operator import add, mul
from typing import Iterable

from latcomb import (
    EPSILON,
    ONE,
    UNK,
    Arc,
    ContractError,
    FeatureWeight,
    ParamVector,
    SymbolTable,
    Wfst,
    connect,
    count_paths,
    weight,
)


def linear_chain(labels: Iterable[int], syms: SymbolTable,
                 weights: Iterable[FeatureWeight] | None = None,
                 final_weight: FeatureWeight = ONE) -> Wfst:
    """Single-path acceptor for a label sequence."""
    labels = list(labels)
    weight_list = list(weights) if weights is not None else [ONE] * len(labels)
    if len(weight_list) != len(labels):
        raise ContractError("need exactly one weight per label")
    fst = Wfst(syms, syms)
    prev = fst.add_state()
    fst.set_initial(prev)
    for label, w in zip(labels, weight_list):
        nxt = fst.add_state()
        fst.add_arc(prev, Arc(label, label, w, nxt))
        prev = nxt
    fst.set_final(prev, final_weight)
    return fst.freeze()


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a Python child process that a test starts: a
    minimal ``PATH``, ``PYTHONDONTWRITEBYTECODE=1`` so that the child
    leaves no bytecode caches in the checkout, and ``extra``."""
    return {"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1", **extra}


def all_labels(fst: Wfst) -> set[int]:
    """Every input and output label occurring on an arc of ``fst``."""
    return {label for s in fst.states() for row in fst.rows(s) for label in row[1:3]}


def is_one(w: FeatureWeight) -> bool:
    """Whether ``w`` is the weight ONE."""
    return not w.infinite and not any(w.values)


WORD_POOL = ["haus", "fluss", "stadt", "plan", "rot", "gross", "am", "der", "die", "und"]


def acceptor_from_sentences(syms: SymbolTable, sentences, score_feature: int | None = None,
                            scores=None) -> Wfst:
    """Union of chains over word sentences, one shared initial state.

    ``scores``, when given, puts each sentence's score on its first arc.
    """
    fst = Wfst(syms, syms)
    start = fst.add_state()
    fst.set_initial(start)
    for idx, sentence in enumerate(sentences):
        tokens = sentence.split() if isinstance(sentence, str) else list(sentence)
        prev = start
        for pos, tok in enumerate(tokens):
            label = UNK if tok == "UNK" else syms.add(tok)
            w = ONE
            if pos == 0 and scores is not None and score_feature is not None:
                w = weight({score_feature: scores[idx]})
            nxt = fst.add_state()
            fst.add_arc(prev, Arc(label, label, w, nxt))
            prev = nxt
        fst.set_final(prev, ONE)
    return fst.freeze()


def random_dag_lattice(rng: random.Random, syms: SymbolTable, score_feature: int,
                       max_paths: int = 50, allow_unk: bool = False,
                       max_states: int = 9, words=None) -> Wfst:
    """Random trim acyclic acceptor with jittered per-arc scores.

    Scores are continuous uniforms, which makes exact cost ties between
    distinct hypothesis pairs vanishingly unlikely (tests that compare
    selections across implementations rely on that).
    """
    words = words or WORD_POOL
    while True:
        n = rng.randint(3, max_states)
        fst = Wfst(syms, syms)
        for _ in range(n):
            fst.add_state()
        fst.set_initial(0)
        fst.set_final(n - 1, ONE)
        for i in range(n - 1):
            targets = {rng.randint(i + 1, n - 1)}
            for _ in range(rng.randint(0, 2)):
                targets.add(rng.randint(i + 1, n - 1))
            for t in sorted(targets):
                if allow_unk and rng.random() < 0.25:
                    label = UNK
                else:
                    label = syms.add(rng.choice(words))
                w = weight({score_feature: rng.uniform(0.0, 2.0)})
                fst.add_arc(i, Arc(label, label, w, t))
        trimmed = connect(fst.freeze())
        paths = count_paths(trimmed)
        if trimmed.num_states >= 2 and paths is not None and 1 <= paths <= max_paths:
            return trimmed


def branching_lattice(rng: random.Random, syms: SymbolTable, score_feature: int,
                      target_paths: int, allow_unk: bool = False, words=None) -> Wfst:
    """Layered acceptor whose path count is the product of per-layer branches.

    Stays at or below ``target_paths`` exactly; useful for exercising the
    upper end of the size bounds that sparse random DAGs rarely reach.
    """
    words = words or WORD_POOL
    fst = Wfst(syms, syms)
    prev = fst.add_state()
    fst.set_initial(prev)
    paths = 1
    for _ in range(rng.randint(3, 9)):
        branches = rng.randint(1, 3)
        while paths * branches > target_paths and branches > 1:
            branches -= 1
        nxt = fst.add_state()
        for _ in range(branches):
            if allow_unk and rng.random() < 0.2:
                label = UNK
            else:
                label = syms.add(rng.choice(words))
            fst.add_arc(prev, Arc(label, label,
                                  weight({score_feature: rng.uniform(0.0, 2.0)}), nxt))
        paths *= branches
        prev = nxt
    fst.set_final(prev, ONE)
    return fst.freeze()


def contract_test_machine(rng, syms, score_feature):
    """A small machine that may break the lattice contract: non-acceptor
    arcs, UNK labels, foreign features, cycles, unreachable finals."""
    words = [syms.add(w) for w in ("a", "b", "c")]
    m = Wfst(syms, syms)
    n = rng.randint(2, 4)
    for _ in range(n):
        m.add_state()
    m.set_initial(0)

    def features():
        out = {score_feature: rng.uniform(0.0, 2.0)}
        if rng.random() < 0.04:
            out[rng.randrange(5)] = 1.0
        return weight(out)

    for k in range(rng.randint(1, 5)):
        src = 0 if k == 0 else rng.randrange(n - 1)  # write_lattice needs an initial arc
        dst = rng.randrange(n) if rng.random() < 0.05 else rng.randint(src + 1, n - 1)
        il = rng.choice([EPSILON, UNK] + words) if rng.random() < 0.2 else rng.choice(words)
        ol = il if rng.random() < 0.95 else rng.choice(words)
        m.add_arc(src, Arc(il, ol, features(), dst))
    for s in rng.sample(range(n), rng.randint(0, n)):
        m.set_final(s, features() if rng.random() < 0.5 else ONE)
    return m.freeze()


def naive_compose(t1: Wfst, t2: Wfst) -> Wfst:
    """Composition without the epsilon filter: every interleaving survives."""
    from latcomb.semiring import times

    out = Wfst(t1.isyms, t2.osyms)
    start = (t1.initial, t2.initial)
    ids = {start: out.add_state()}
    out.set_initial(0)
    queue = deque([start])

    def state_of(key):
        if key not in ids:
            ids[key] = out.add_state()
            queue.append(key)
        return ids[key]

    while queue:
        key = queue.popleft()
        s1, s2 = key
        src = ids[key]
        f1, f2 = t1.final_weight(s1), t2.final_weight(s2)
        if f1 is not None and f2 is not None:
            out.set_final(src, times(f1, f2))
        for a1 in t1.arcs(s1):
            if a1.olabel == EPSILON:
                out.add_arc(src, Arc(a1.ilabel, EPSILON, a1.weight, state_of((a1.target, s2))))
            for a2 in t2.arcs(s2):
                if a1.olabel == a2.ilabel and a1.olabel != EPSILON:
                    out.add_arc(src, Arc(a1.ilabel, a2.olabel, times(a1.weight, a2.weight),
                                         state_of((a1.target, a2.target))))
                elif a1.olabel == EPSILON and a2.ilabel == EPSILON:
                    out.add_arc(src, Arc(a1.ilabel, a2.olabel, times(a1.weight, a2.weight),
                                         state_of((a1.target, a2.target))))
        for a2 in t2.arcs(s2):
            if a2.ilabel == EPSILON:
                out.add_arc(src, Arc(EPSILON, a2.olabel, a2.weight, state_of((s1, a2.target))))
    return connect(out.freeze())


def flower_machine(nmt: Wfst, hiero: Wfst, params) -> Wfst:
    """The paper's composed machine: prunes and extends exactly as
    ``combine`` does, then composes the extended NMT lattice with the
    modified edit flower over the labels present and with the pruned
    hiero lattice."""
    from latcomb import build_modified_edit_fst, compose, expand_unk_runs, prune_to_node_budget
    from latcomb.pipeline import HIERO_ONLY

    pruned = prune_to_node_budget(hiero, params.hiero_node_budget, HIERO_ONLY)
    extended = expand_unk_runs(nmt, params.max_unk_run)
    flower = build_modified_edit_fst(all_labels(nmt) | all_labels(pruned), params.nmt_vocab,
                                     nmt.isyms)
    return compose(compose(extended, flower), pruned)


def flower_combine(nmt: Wfst, hiero: Wfst, params):
    """The paper's construction, kept as the reference for ``combine``:
    the shortest path of :func:`flower_machine`."""
    from latcomb import CombinationResult, EditStats, shortest_path
    from latcomb.semiring import EDIT_COUNT, SUB_COUNT, UNK_EXT_COUNT

    path = shortest_path(flower_machine(nmt, hiero, params), params.as_param_vector())
    counts = path.weight.values
    syms = nmt.isyms
    return CombinationResult(
        t_comb=tuple(syms.word(l) for l in path.unk_filled_labels()),
        t_nmt=tuple(syms.word(l) for l in path.input_labels()),
        t_hiero=tuple(syms.word(l) for l in path.output_labels()),
        total_cost=path.cost,
        feature_vector=path.weight,
        stats=EditStats(unk_extensions=int(counts[UNK_EXT_COUNT]),
                        type2_subs=int(counts[SUB_COUNT]), type3_edits=int(counts[EDIT_COUNT])),
        path=path,
    )


def assert_matches_flower_combine(result, reference, syms):
    """``combine`` agrees bit for bit with the flower chain on cost and features.

    The hiero hypothesis must be the same; the NMT hypothesis may differ
    only in how long its UNK runs are, and only on exact ties can the
    combined string differ, so that is checked through the substitution
    property.
    """
    assert result.total_cost == reference.total_cost, (result, reference)
    assert result.feature_vector == reference.feature_vector, (result, reference)
    assert result.t_hiero == reference.t_hiero
    assert collapse_unk_runs(result.t_nmt) == collapse_unk_runs(reference.t_nmt)
    assert_substitution_property(result, syms)


def exact_key(values, params) -> tuple:
    """The exact key of a path whose values sum to ``values`` (Fractions):
    (sum_k p_k * v_k, values), compared as a tuple."""
    return sum(Fraction(p) * v for p, v in zip(params, values)), tuple(values)


def path_key(rows, final_weight, params) -> tuple:
    """The exact key of a path given as rows and its final weight."""
    vectors = [r[3] for r in rows] + [final_weight.values]
    return exact_key([sum(map(Fraction, column)) for column in zip(*vectors)], params)


def numerators(vectors, params):
    """Every value of ``vectors``, and every parameter, as a Fraction over
    one common denominator per set: (the numerators of each vector, the
    values' denominator, key), where key(sums) = (sum_k p_k * v_k, sums)
    on summed numerators orders paths as their exact keys do."""
    scale = max((Fraction(x).denominator for v in vectors for x in v), default=1)
    nums = {v: tuple(int(Fraction(x) * scale) for x in v) for v in vectors}
    p_scale = max(Fraction(p).denominator for p in params)
    p_nums = [int(Fraction(p) * p_scale) for p in params]
    return nums, scale, lambda sums: (sum(map(mul, p_nums, sums)), sums)


def least_exact_key(fst: Wfst, params) -> tuple | None:
    """Brute force: walk every path of the acyclic ``fst`` from its initial
    state to acceptance and return the least exact key, None when it
    accepts nothing (see :func:`numerators`)."""
    vectors = [r[3] for s in fst.states() for r in fst.rows(s) if r[3] is not None]
    nums, scale, key = numerators(vectors + [w.values for _, w in fst.finals()], params)
    least = None
    stack = [(fst.initial, (0,) * 5)] if fst.initial >= 0 else []
    while stack:
        s, sums = stack.pop()
        fw = fst.final_weight(s)
        if fw is not None:
            k = key(tuple(map(add, sums, nums[fw.values])))
            if least is None or k < least:
                least = k
        for t, _, _, v in fst.rows(s):
            if v is not None:
                stack.append((t, tuple(map(add, sums, nums[v]))))
    return None if least is None else exact_key([Fraction(x, scale) for x in least[1]], params)


def tie_rule_alignment(nmt: Wfst, hiero: Wfst, params, column_major: bool = False):
    """The winning path of ``combine``, spelled out plainly.

    No heap, no heuristic, no groups: every move's exact key, summed in
    Fractions.  The hiero side is what ``_prune_mask`` keeps of
    ``hiero``.  The replay visits every cell in one topological order,
    by NMT position and then hiero position in ``topological_order`` (of
    the extended NMT machine, and of ``hiero`` restricted to its kept
    states), or hiero position first with ``column_major``.  It tries
    every move of a cell and takes a cell on a strictly smaller (key,
    source cell's positions, NMT arc index, hiero arc index), an index
    counting among its state's arcs that are not ZERO (kept arcs on the
    hiero side) and 0 for a move without an arc on that side; it takes
    the least (key, cell's positions) among final cells.  That is
    ``combine``'s order on moves, stated outright, so the replay's order
    of visits does not matter.  Returns the path as (input label, output
    label, weight values) per arc, then the cost and value vector, as
    ``combine``'s ``path`` writes them: summed in floats with ``times``.
    """
    from latcomb import edit_weight, expand_unk_runs, scalarize, times
    from latcomb.algorithms import _prune_mask
    from latcomb.fst import topological_order
    from latcomb.pipeline import HIERO_ONLY

    ext = expand_unk_runs(nmt, params.max_unk_run)
    keep, kept_rows, hiero_finals = _prune_mask(hiero, params.hiero_node_budget, HIERO_ONLY)
    lambdas = params.as_param_vector()
    vocab = params.nmt_vocab
    order_n = topological_order(ext)
    kept = set(keep)
    order_h = [q for q in topological_order(hiero) if q in kept]
    pos_n = {s: i for i, s in enumerate(order_n)}
    pos_h = {q: j for j, q in enumerate(order_h)}
    nmt_arcs = {s: [a for a in ext.arcs(s) if not a.weight.infinite] for s in order_n}
    hiero_arcs = {q: [Arc(r[1], r[2], FeatureWeight(r[3]), r[0]) for r in kept_rows[q]]
                  for q in order_h}
    cells = [(s, q) for s in order_n for q in order_h]
    if column_major:
        cells.sort(key=lambda cell: (pos_h[cell[1]], pos_n[cell[0]]))
    vectors = [a.weight.values for arcs in (nmt_arcs, hiero_arcs) for rows in arcs.values()
               for a in rows]
    vectors += [w.values for _, w in ext.finals()] + [w.values for w in hiero_finals.values()]
    edits = [w.values for w in (ONE, weight({2: 1.0}), weight({3: 1.0}))]  # edit_weight's
    nums, _, key = numerators(vectors + edits, lambdas)
    value = {(ext.initial, hiero.initial): (ONE, (0,) * 5)}
    back = {}

    def relax(target, d, weights, move, k, rank):
        # d is the source's float weight and its exact values' numerators.
        w, exact = d
        for x in weights:
            w = times(w, x)
            exact = tuple(map(add, exact, nums[x.values]))
        tie = (pos_n[move[0]], pos_h[move[1]], k, rank)
        if target not in value or (key(exact), tie) < (key(value[target][1]), back[target][4]):
            value[target], back[target] = (w, exact), (*move, tie)

    for s, q in cells:
        d = value.get((s, q))
        if d is None:
            continue
        for k, a in enumerate(nmt_arcs[s]):
            x = a.olabel
            relax((a.target, q), d, (a.weight, edit_weight(vocab, x, EPSILON)), (s, q, a, None),
                  k, 0)
            if x == EPSILON:
                continue
            for rank, h in enumerate(hiero_arcs[q]):
                if h.ilabel != EPSILON:
                    relax((a.target, h.target), d,
                          (a.weight, edit_weight(vocab, x, h.ilabel), h.weight), (s, q, a, h),
                          k, rank)
        for rank, h in enumerate(hiero_arcs[q]):
            relax((s, h.target), d, (edit_weight(vocab, EPSILON, h.ilabel), h.weight),
                  (s, q, None, h), 0, rank)

    best = None
    for cell in cells:
        fw_n, fw_h = ext.final_weight(cell[0]), hiero_finals.get(cell[1])
        if cell in value and fw_n is not None and fw_h is not None:
            w, exact = value[cell]
            k = (key(tuple(map(add, exact, map(add, nums[fw_n.values], nums[fw_h.values])))),
                 pos_n[cell[0]], pos_h[cell[1]])
            if best is None or k < best[0]:
                best = (k, cell, times(times(w, fw_n), fw_h))
    assert best is not None
    path = []
    cell = best[1]
    while cell in back:
        s, q, a, h, _ = back[cell]
        x, y = EPSILON if a is None else a.olabel, EPSILON if h is None else h.ilabel
        w = edit_weight(vocab, x, y)
        if a is not None:
            w = times(a.weight, w)
        if h is not None:
            w = times(w, h.weight)
        path.append((EPSILON if a is None else a.ilabel, EPSILON if h is None else h.olabel,
                     w.values))
        cell = (s, q)
    return path[::-1], scalarize(best[2], lambdas), best[2].values


def classic_levenshtein(x, y) -> int:
    m, n = len(x), len(y)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x[i - 1] != y[j - 1]))
        prev = cur
    return prev[n]


def collapse_unk_runs(tokens, unk: str = "UNK"):
    """Merge consecutive UNK tokens into one (for comparing against plain N paths)."""
    out = []
    for tok in tokens:
        if tok == unk and out and out[-1] == unk:
            continue
        out.append(tok)
    return tuple(out)


def dyadic(rng: random.Random, lo: float, hi: float) -> float:
    """Random multiple of 1/16 in [lo, hi]; keeps float arithmetic exact."""
    steps = int((hi - lo) * 16)
    return lo + rng.randint(0, steps) / 16.0


def grid_weight(rng: random.Random, max_entries: int = 4) -> FeatureWeight:
    if rng.random() < 0.05:
        from latcomb import ZERO
        return ZERO
    n = rng.randint(0, max_entries)
    return weight({rng.randint(0, 4): dyadic(rng, -4.0, 4.0) for _ in range(n)})


def grid_params(rng: random.Random) -> ParamVector:
    return ParamVector(*(dyadic(rng, 0.0, 4.0) for _ in range(5)))


def random_combination_instance(rng: random.Random, n_max_paths: int = 8,
                                h_max_paths: int = 40, max_states: int = 9,
                                sized: bool = False):
    """Random (symbols, nmt, hiero, params, vocab words) combination instance.

    Scores and lambdas are continuous uniforms so distinct hypothesis
    pairs essentially never tie exactly.  With ``sized``, lattices mix
    sparse DAGs with branching machines whose path counts range up to the
    given bounds.
    """
    from latcomb import CombinationParams

    syms = SymbolTable()
    # Registered in sample order, so one seed numbers the words alike in
    # every process, whatever its hash seed.
    vocab_sample = rng.sample(WORD_POOL, rng.randint(0, 6))
    vocab_labels = frozenset(syms.add(w) for w in vocab_sample)
    vocab_words = set(vocab_sample)
    if sized and rng.random() < 0.5:
        nmt = branching_lattice(rng, syms, 0, target_paths=rng.randint(1, n_max_paths),
                                allow_unk=True)
    else:
        nmt = random_dag_lattice(rng, syms, score_feature=0, max_paths=n_max_paths,
                                 allow_unk=True, max_states=max_states)
    if sized and rng.random() < 0.5:
        hiero = branching_lattice(rng, syms, 1, target_paths=rng.randint(1, h_max_paths))
    else:
        hiero = random_dag_lattice(rng, syms, score_feature=1, max_paths=h_max_paths,
                                   max_states=max_states)
    sub = rng.uniform(0.0, 2.5)
    params = CombinationParams(
        lambda_nmt=rng.uniform(0.05, 2.0),
        lambda_hiero=rng.uniform(0.05, 2.0),
        lambda_sub=sub,
        lambda_edit=sub + rng.uniform(0.25, 3.0),
        lambda_ins=rng.uniform(0.0, 1.5),
        max_unk_run=rng.choice([1, 2, 3, 3]),
        nmt_vocab=vocab_labels,
    )
    return syms, nmt, hiero, params, vocab_words


def run_combine_and_oracle(syms, nmt, hiero, params, vocab_words, max_paths=10000):
    from latcomb import combine
    from latcomb.oracle import brute_force_combine

    result = combine(nmt, hiero, params)
    expected = brute_force_combine(
        nmt, hiero, vocab=vocab_words,
        nmt_scale=params.lambda_nmt, hiero_scale=params.lambda_hiero,
        sub_cost=params.lambda_sub, edit_cost=params.lambda_edit,
        ins_cost=params.lambda_ins, max_unk_run=params.max_unk_run,
        max_paths=max_paths)
    return result, expected


def unk_substitution_spans(result):
    """Per-UNK aligned output spans, in order, read off the winning path."""
    spans = []
    for arc in result.path.arcs:
        if arc.ilabel == UNK:
            spans.append(() if arc.olabel == EPSILON else (arc.olabel,))
    return spans


def assert_substitution_property(result, syms):
    """t_comb must equal t_nmt with each UNK textually replaced by its span."""
    spans = iter(unk_substitution_spans(result))
    rebuilt = []
    for token in result.t_nmt:
        if token == "UNK":
            rebuilt.extend(syms.word(l) for l in next(spans))
        else:
            rebuilt.append(token)
    assert tuple(rebuilt) == result.t_comb, (result.t_nmt, result.t_comb)


def assert_combination_matches_oracle(result, expected, syms=None, tol=1e-9):
    """Pair-level agreement between the pipeline and the brute-force oracle.

    The selected pair, its cost, and its feature vector must agree.  The
    combined string is checked through the substitution property rather
    than against the oracle's string: a pair can admit several optimal
    alignments with identical feature vectors but different combined
    strings, and no tie rule shared between a DP backtrace and an FST
    relaxation pins that choice down.
    """
    assert abs(result.total_cost - expected.cost) <= tol, (result, expected)
    got_features = {fid: v for fid, v in result.feature_vector.pairs}
    want_features = dict(expected.features)
    for fid in set(got_features) | set(want_features):
        assert abs(got_features.get(fid, 0.0) - want_features.get(fid, 0.0)) <= tol, \
            (got_features, want_features)
    assert result.t_hiero == expected.hiero_tokens
    assert collapse_unk_runs(result.t_nmt) == collapse_unk_runs(expected.nmt_tokens)
    if syms is not None:
        assert_substitution_property(result, syms)


def path_signature(fst: Wfst, params: ParamVector, limit: int = 10000):
    """Multiset of (input string, output string, rounded cost) over all paths."""
    from latcomb.oracle import enumerate_paths

    sig = {}
    for p in enumerate_paths(fst, params, limit):
        key = (p.tokens, p.output_tokens, round(p.score, 9))
        sig[key] = sig.get(key, 0) + 1
    return sig
