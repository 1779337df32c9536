"""Brute-force reference implementations used for verification.

Everything here recomputes results from first principles: exhaustive
path enumeration, a token-level dynamic program for the typed edit
distance with UNK runs, and exhaustive minimization over hypothesis
pairs.  Deliberately shares no code with the transducer algorithms or
the flower builders so that a bug cannot hide on both sides of a check;
only the plain machine structure and the parameter vector type are
reused.  Correctness reference only, not optimized.
"""

from __future__ import annotations

from itertools import product
from typing import Collection, NamedTuple, Sequence

from .errors import ContractError
from .fst import EPSILON, NO_STATE, UNK_SYMBOL, Wfst
from .semiring import ParamVector

DEFAULT_PATH_LIMIT = 10_000


class ScoredHypothesis(NamedTuple):
    """One complete path: its token strings, raw features, and cost."""

    tokens: tuple[str, ...]
    output_tokens: tuple[str, ...]
    features: tuple[tuple[int, float], ...]
    score: float

    def feature(self, fid: int) -> float:
        for f, v in self.features:
            if f == fid:
                return v
        return 0.0


def _dot(features: dict[int, float], params: ParamVector) -> float:
    total = 0.0
    for fid in sorted(features):
        total += params.coefficient(fid) * features[fid]
    return total


def enumerate_paths(fst: Wfst, params: ParamVector, limit: int = DEFAULT_PATH_LIMIT) -> list[ScoredHypothesis]:
    """Every complete path of an acyclic machine, in depth-first arc order.

    Raises on cycles (a path longer than the state count) and when the
    number of complete paths exceeds ``limit``.
    """
    if fst.initial == NO_STATE:
        return []
    max_len = fst.num_states  # any longer simple path would repeat a state
    results: list[ScoredHypothesis] = []

    # Stack frames carry the whole accumulated prefix; fine at oracle scale.
    stack: list[tuple[int, int, tuple[str, ...], tuple[str, ...], dict[int, float]]] = [
        (fst.initial, 0, (), (), {})
    ]
    while stack:
        state, depth, itoks, otoks, feats = stack.pop()
        if depth > max_len:
            raise ContractError("cycle detected while enumerating paths")
        fw = fst.final_weight(state)
        if fw is not None:
            total = dict(feats)
            for fid, v in fw.pairs:
                total[fid] = total.get(fid, 0.0) + v
            results.append(ScoredHypothesis(
                tokens=itoks,
                output_tokens=otoks,
                features=tuple(sorted(total.items())),
                score=_dot(total, params),
            ))
            if len(results) > limit:
                raise ContractError(f"more than {limit} paths; raise the limit or shrink the machine")
        for arc in reversed(fst.arcs(state)):
            nf = dict(feats)
            for fid, v in arc.weight.pairs:
                nf[fid] = nf.get(fid, 0.0) + v
            ni = itoks if arc.ilabel == EPSILON else itoks + (fst.isyms.word(arc.ilabel),)
            no = otoks if arc.olabel == EPSILON else otoks + (fst.osyms.word(arc.olabel),)
            stack.append((arc.target, depth + 1, ni, no, nf))
    return results


# Edit-operation tags used in alignment backtraces.
_MATCH = "match"
_SUB = "sub"       # non-UNK substitution (Type III)
_DEL = "del"       # deletion of x_i (Type III, also for UNK)
_INS = "ins"       # insertion of y_j (Type III)
_FILL = "fill"     # a single UNK copy consuming one y token (Type I or II)


def _plain_typed_dp(x: Sequence[str], y: Sequence[str], vocab: Collection[str],
                    sub_cost: float, edit_cost: float, unk_token: str):
    """Typed edit DP without runs: every UNK copy is an ordinary token.

    Cells hold (cost, edit count, sub count, op); comparison uses
    (cost, edits, subs), matching the dense-vector order of the weight
    algebra on these components.
    """
    m, n = len(x), len(y)
    INF = float("inf")
    table: list[list[tuple]] = [[(INF, 0, 0, None)] * (n + 1) for _ in range(m + 1)]
    table[0][0] = (0.0, 0, 0, None)

    def consider(i: int, j: int, prev: tuple, de: int, ds: int, op: str) -> None:
        if prev[0] == INF:
            return
        e, s = prev[1] + de, prev[2] + ds
        cand = (edit_cost * e + sub_cost * s, e, s, op)
        if cand[:3] < table[i][j][:3]:
            table[i][j] = cand

    for i in range(m + 1):
        for j in range(n + 1):
            if i == 0 and j == 0:
                continue
            if i > 0:
                consider(i, j, table[i - 1][j], 1, 0, _DEL)
            if j > 0:
                consider(i, j, table[i][j - 1], 1, 0, _INS)
            if i > 0 and j > 0:
                xi = x[i - 1]
                if xi == unk_token:
                    in_vocab = y[j - 1] in vocab
                    consider(i, j, table[i - 1][j - 1], 0, 1 if in_vocab else 0, _FILL)
                elif xi == y[j - 1]:
                    consider(i, j, table[i - 1][j - 1], 0, 0, _MATCH)
                else:
                    consider(i, j, table[i - 1][j - 1], 1, 0, _SUB)
    return table


def _expansions(x: Sequence[str], max_unk_run: int, unk_token: str):
    """Every run-length expansion of x's UNK tokens, with its extra-copy count.

    Mirrors :func:`latcomb.editfst.expand_unk_runs`: each UNK becomes
    1..max_unk_run copies, each extra copy costing one extension.
    """
    unk_positions = [i for i, tok in enumerate(x) if tok == unk_token]
    if not unk_positions:
        yield tuple(x), 0
        return
    if max_unk_run ** len(unk_positions) > 1_000_000:
        raise ContractError("too many UNK run expansions to enumerate")
    for runs in product(range(1, max_unk_run + 1), repeat=len(unk_positions)):
        expanded: list[str] = []
        it = iter(runs)
        for tok in x:
            if tok == unk_token:
                expanded.extend([unk_token] * next(it))
            else:
                expanded.append(tok)
        yield tuple(expanded), sum(runs) - len(runs)


def _counts_to_features(e: int, s: int, ext: int) -> dict[int, float]:
    out: dict[int, float] = {}
    if e:
        out[2] = float(e)
    if s:
        out[3] = float(s)
    if ext:
        out[4] = float(ext)
    return out


def _best_expansion(x, y, vocab, sub_cost, edit_cost, ins_cost, max_unk_run, unk_token):
    """Minimize over run expansions; returns (counts key, expanded x, table)."""
    if max_unk_run < 1:
        raise ContractError(f"max_unk_run must be at least 1, got {max_unk_run}")
    if unk_token in y:
        raise ContractError("the second sequence must not contain the UNK token")
    best_key: tuple | None = None
    best: tuple | None = None
    for expanded, extra in _expansions(x, max_unk_run, unk_token):
        table = _plain_typed_dp(expanded, y, vocab, sub_cost, edit_cost, unk_token)
        cost0, e, s, _ = table[len(expanded)][len(y)]
        cost = edit_cost * e + sub_cost * s + ins_cost * extra
        key = (cost, e, s, extra)
        if cost0 < float("inf") and (best_key is None or key < best_key):
            best_key = key
            best = (expanded, extra, table)
    assert best is not None and best_key is not None
    return best_key, best


def dp_edit_distance(x: Sequence[str], y: Sequence[str], vocab: Collection[str],
                     sub_cost: float, edit_cost: float, ins_cost: float = 0.0,
                     max_unk_run: int = 3, unk_token: str = UNK_SYMBOL) -> dict[int, float]:
    """Typed edit distance between token sequences, as a feature dict.

    Per token: match free; an UNK copy onto an out-of-vocabulary word
    free; onto an in-vocabulary word one sub count; any other
    substitution, insertion, or deletion one edit count.  Each UNK may
    first expand into up to ``max_unk_run`` copies at one extension count
    per extra copy; copies align independently, so other edits may fall
    between the words a run picks up.  Returns the cost-minimal counts
    (ties resolved by the same dense-vector order the weight algebra
    uses).
    """
    key, _ = _best_expansion(x, y, vocab, sub_cost, edit_cost, ins_cost, max_unk_run, unk_token)
    _, e, s, ext = key
    return _counts_to_features(e, s, ext)


def dp_edit_alignment(x: Sequence[str], y: Sequence[str], vocab: Collection[str],
                      sub_cost: float, edit_cost: float, ins_cost: float = 0.0,
                      max_unk_run: int = 3, unk_token: str = UNK_SYMBOL,
                      ) -> tuple[dict[int, float], tuple[str, ...]]:
    """Like :func:`dp_edit_distance` but also returns the combined string.

    The combined string keeps every non-UNK ``x`` token, replaces each
    UNK copy by the ``y`` token it picked up (nothing when deleted), and
    skips inserted ``y`` tokens.
    """
    key, (expanded, _, table) = _best_expansion(
        x, y, vocab, sub_cost, edit_cost, ins_cost, max_unk_run, unk_token)
    i, j = len(expanded), len(y)
    combined: list[str] = []
    while i > 0 or j > 0:
        _, _, _, op = table[i][j]
        if op == _DEL:
            if expanded[i - 1] != unk_token:
                combined.append(expanded[i - 1])
            i -= 1
        elif op == _INS:
            j -= 1
        elif op == _FILL:
            combined.append(y[j - 1])
            i -= 1
            j -= 1
        else:  # match or substitution: the x token survives
            combined.append(expanded[i - 1])
            i -= 1
            j -= 1
    combined.reverse()
    _, e, s, ext = key
    return _counts_to_features(e, s, ext), tuple(combined)


class OracleCombination(NamedTuple):
    nmt_tokens: tuple[str, ...]
    hiero_tokens: tuple[str, ...]
    combined_tokens: tuple[str, ...]
    cost: float
    features: tuple[tuple[int, float], ...]


def brute_force_combine(nmt_lattice: Wfst, hiero_lattice: Wfst, *,
                        vocab: Collection[str],
                        nmt_scale: float, hiero_scale: float,
                        sub_cost: float, edit_cost: float, ins_cost: float,
                        max_unk_run: int = 3,
                        max_paths: int = DEFAULT_PATH_LIMIT) -> OracleCombination:
    """Exhaustive argmin over all hypothesis pairs of the two lattices.

    Minimizes typed edit distance plus the scaled model scores over every
    (NMT path, hiero path) pair, with the dense-vector tie rule.  Pairs
    are scanned NMT-major in enumeration order; a full tie keeps the
    first pair seen.
    """
    params = ParamVector(nmt=nmt_scale, hiero=hiero_scale,
                         edit=edit_cost, sub=sub_cost, ins=ins_cost)
    nmt_paths = enumerate_paths(nmt_lattice, params, max_paths)
    hiero_paths = enumerate_paths(hiero_lattice, params, max_paths)
    if not nmt_paths or not hiero_paths:
        raise ContractError("both lattices must accept at least one path")

    best_key: tuple | None = None
    best: tuple[ScoredHypothesis, ScoredHypothesis, dict[int, float]] | None = None
    for np in nmt_paths:
        s_n = np.feature(0)
        for hp in hiero_paths:
            s_h = hp.feature(1)
            edits = dp_edit_distance(np.tokens, hp.tokens, vocab,
                                     sub_cost, edit_cost, ins_cost, max_unk_run)
            total = dict(edits)
            if s_n:
                total[0] = s_n
            if s_h:
                total[1] = s_h
            cost = _dot(total, params)
            dense = tuple(total.get(fid, 0.0) for fid in range(5))
            key = (cost, dense)
            if best_key is None or key < best_key:
                best_key = key
                best = (np, hp, total)

    assert best is not None and best_key is not None
    np, hp, total = best
    _, combined = dp_edit_alignment(np.tokens, hp.tokens, vocab,
                                    sub_cost, edit_cost, ins_cost, max_unk_run)
    return OracleCombination(
        nmt_tokens=np.tokens,
        hiero_tokens=hp.tokens,
        combined_tokens=combined,
        cost=best_key[0],
        features=tuple(sorted(total.items())),
    )
