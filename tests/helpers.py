"""Shared test utilities: builders, random lattices, and naive oracles."""

from __future__ import annotations

import random
from collections import deque

from latcomb import (
    EPSILON,
    ONE,
    UNK,
    Arc,
    FeatureWeight,
    ParamVector,
    SymbolTable,
    Wfst,
    connect,
    count_paths,
    weight,
)
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


def flower_combine(nmt: Wfst, hiero: Wfst, params):
    """The paper's construction, kept as the reference for ``combine``.

    Prunes and extends exactly as ``combine`` does, then composes the
    extended NMT lattice with the modified edit flower over the labels
    present and with the pruned hiero lattice, and takes the shortest
    path of the composed machine.
    """
    from latcomb import (
        CombinationResult,
        EditStats,
        build_modified_edit_fst,
        build_unk_insertion_fst,
        compose,
        prune_to_node_budget,
        replace,
        shortest_path,
    )
    from latcomb.pipeline import HIERO_ONLY
    from latcomb.semiring import EDIT_COUNT, SUB_COUNT, UNK_EXT_COUNT

    pruned = prune_to_node_budget(hiero, params.hiero_node_budget, HIERO_ONLY)
    extended = replace(nmt, UNK, build_unk_insertion_fst(params.max_unk_run, nmt.isyms))
    flower = build_modified_edit_fst(nmt.all_labels() | pruned.all_labels(), params.nmt_vocab,
                                     nmt.isyms)
    path = shortest_path(compose(compose(extended, flower), pruned), params.as_param_vector())
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
    vocab_words = set(rng.sample(WORD_POOL, rng.randint(0, 6)))
    vocab_labels = frozenset(syms.add(w) for w in vocab_words)
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
