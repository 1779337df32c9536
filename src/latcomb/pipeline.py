"""End-to-end combination of an NMT lattice with a hiero lattice.

The steps: prune the hiero lattice to a node budget, splice the UNK run
expander over the NMT lattice's UNK arcs, find the cheapest typed-edit
alignment of an NMT path with a hiero path, and read the combined
translation off that alignment (NMT words, with each UNK replaced by its
aligned hiero words).  The edit statistics are the count features of the
alignment's weight.  The selected pair of hypotheses minimizes typed
edit distance plus the scaled model scores over all pairs the two
lattices offer.

The alignment is one shortest-distance pass over pairs of lattice
states (Mohri, "Edit-Distance of Weighted Automata", 2003).  It finds
the same optimum, at the same cost and feature vector, as composing the
extended NMT lattice with the modified edit flower and the hiero lattice
and taking the shortest path, which is the paper's construction; but it
builds no flower and no composed machine, so its work does not depend on
the alphabet size.  Per-sentence combinations are independent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace as dc_replace
from typing import FrozenSet, Iterable, Sequence

from .algorithms import PathWitness, nbest, prune_to_node_budget, replace
from .editfst import build_unk_insertion_fst, edit_weight
from .errors import ContractError, NoPathError
from .fst import (EPSILON, UNK, Arc, Wfst, count_paths, dense_arcs, has_negative,
                  lattice_violations, topological_order)
from .semiring import (
    EDIT_COUNT,
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
        if self.max_unk_run < 1:
            raise ContractError(f"max_unk_run must be at least 1, got {self.max_unk_run}")
        if self.hiero_node_budget < 1:
            raise ContractError(f"hiero_node_budget must be at least 1, got {self.hiero_node_budget}")
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
    if lattice.num_states == 0 or lattice.initial < 0 or lattice.num_finals == 0:
        raise ContractError(f"{name} lattice is empty")
    if topological_order(lattice) is None:
        raise ContractError(f"{name} lattice must be acyclic")
    problem = next(lattice_violations(lattice, kind), None)
    if problem is not None:
        raise ContractError(f"{name} lattice: {problem}")


def combine(nmt_lattice: Wfst, hiero_lattice: Wfst, params: CombinationParams,
            source_id: str = "") -> CombinationResult:
    """Run the full combination for one sentence pair.

    Both lattices must be frozen, nonempty and acyclic, share a symbol
    table, and follow the rule of :func:`~latcomb.fst.lattice_violations`
    for their kind; anything else raises :class:`ContractError` before
    the search.

    Reading lattice scores as negative log-likelihoods gives the
    probabilistic view: exp(-total_cost) is the edit-similarity factor
    times the lambda-weighted likelihoods of the selected pair.  That is
    an identity on the returned cost, not a separate runtime semiring.

    Tie rule.  Alignments compare on (cost, feature vector in id order).
    Among exactly tied alignments the first one found wins: cells (NMT
    state, hiero state) are visited in lexicographic order of their
    (NMT, hiero) topological positions; from each cell, each outgoing
    arc of the extended NMT state is tried in arc order (an epsilon arc
    advances alone; any other arc is deleted, then paired with each
    non-epsilon hiero arc in arc order), then each outgoing hiero arc in
    arc order (an epsilon arc advances alone; any other arc is
    inserted); a cell takes a new value only on a strictly smaller key,
    and among final cells the first in visiting order with the smallest
    key wins.  For example, NMT ``UNK die`` against hiero ``die`` (``die``
    out of vocabulary) ties deleting the UNK with filling it and deleting
    ``die``; the deletion of the UNK is found first, so ``t_comb`` is
    ``die``.
    """
    _check_lattice(nmt_lattice, "nmt")
    _check_lattice(hiero_lattice, "hiero")
    if not nmt_lattice.isyms.same_mapping(hiero_lattice.isyms):
        raise ContractError("the two lattices must share a symbol table")

    n_paths = count_paths(nmt_lattice)
    if n_paths is not None and n_paths > NMT_PATHS_SOFT_LIMIT:
        warnings.warn(f"NMT lattice holds {n_paths} hypotheses; the combination is tuned "
                      f"for small sets (<= {NMT_PATHS_SOFT_LIMIT})", stacklevel=2)

    pruned_hiero = prune_to_node_budget(hiero_lattice, params.hiero_node_budget, HIERO_ONLY)
    run_fst = build_unk_insertion_fst(params.max_unk_run, nmt_lattice.isyms)
    extended_nmt = replace(nmt_lattice, UNK, run_fst)

    path = _best_alignment(extended_nmt, pruned_hiero, params.nmt_vocab,
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


def _best_alignment(nmt: Wfst, hiero: Wfst, nmt_vocab: FrozenSet[int],
                    params: ParamVector) -> PathWitness:
    """Cheapest typed-edit alignment of an NMT path with a hiero path.

    A forward shortest-distance pass over the cells (NMT state, hiero
    state) of two acyclic machines that have initial states (``combine``
    checks both), in the order and with the moves that
    :func:`combine` documents.  NMT output labels are matched against
    hiero input labels; the returned path writes (NMT input label, hiero
    output label) on each arc and carries the same per-arc weights as
    the composition with the modified flower would.

    Weight values are accumulated with
    :func:`~latcomb.semiring.dense_times` and compared by
    :func:`~latcomb.semiring.search_key`, the order every search uses.
    Every feature of an aligned pair comes from one side, because
    ``combine`` holds both lattices to the rule of
    :func:`~latcomb.fst.lattice_violations`; so the cost and feature
    vector are bit-identical to the shortest path of the composed
    machine.  Raises :class:`NoPathError` when either machine accepts
    nothing.
    """
    order_n = topological_order(nmt)
    order_h = topological_order(hiero)
    assert order_n is not None and order_h is not None
    pos_n = [0] * nmt.num_states
    for i, s in enumerate(order_n):
        pos_n[s] = i
    pos_h = [0] * hiero.num_states
    for j, s in enumerate(order_h):
        pos_h[s] = j
    width = len(order_h)

    # Edit weight values by NMT label, then hiero label, filled on demand.
    typed: dict[int, dict[int, tuple[float, ...]]] = {}

    def edit_dense(x: int, y: int) -> tuple[float, ...]:
        row = typed.setdefault(x, {})
        e = row.get(y)
        if e is None:
            e = row[y] = edit_weight(nmt_vocab, x, y).values
        return e

    # Moves per topological position: (arc, label matched, target, arc
    # weight values, values of deleting / inserting the label), and
    # for NMT moves the label's row of ``typed``.
    nmt_moves = [[(arc, arc.olabel, pos_n[t] * width, w,
                   None if arc.olabel == EPSILON else edit_dense(arc.olabel, EPSILON),
                   typed.setdefault(arc.olabel, {}))
                  for t, w, arc in dense_arcs(nmt)[s]] for s in order_n]
    hiero_moves = [[(arc, arc.ilabel, pos_h[t], w,
                     None if arc.ilabel == EPSILON else edit_dense(EPSILON, arc.ilabel))
                    for t, w, arc in dense_arcs(hiero)[s]] for s in order_h]
    hiero_pairs = [[move for move in moves if move[1] != EPSILON] for moves in hiero_moves]

    signed = has_negative(nmt) or has_negative(hiero)
    key = search_key(params)
    size = len(order_n) * width
    keys: list[Key | None] = [None] * (size + 1)
    back: list[tuple[int, Arc | None, Arc | None] | None] = [None] * (size + 1)

    def relax(t: int, cand: Dense, src: int, a: Arc | None, h: Arc | None) -> None:
        k = key(cand)
        old = keys[t]
        if old is None or k < old:
            keys[t] = k
            back[t] = (src, a, h)

    # Three-term sums zero entries once, at the end (inner signed=False):
    # with each feature coming from one side, that equals zeroing after
    # each addition.
    start = pos_n[nmt.initial] * width + pos_h[hiero.initial]
    keys[start] = key(ONE.values)
    for i in range(pos_n[nmt.initial], len(order_n)):
        moves_n = nmt_moves[i]
        base = i * width
        for j in range(width):
            c = base + j
            kc = keys[c]
            if kc is None:
                continue
            d = kc[1]
            for a, x, t_base, w_a, w_del, row in moves_n:
                if x == EPSILON:
                    relax(t_base + j, dense_times(d, w_a, signed), c, a, None)
                    continue
                dn = dense_times(d, w_a, False)
                relax(t_base + j, dense_times(dn, w_del, signed), c, a, None)
                for h, y, t_j, w_h, _ in hiero_pairs[j]:
                    e = row.get(y)
                    if e is None:
                        e = edit_dense(x, y)
                    relax(t_base + t_j, dense_times(dense_times(dn, e, False), w_h, signed), c, a, h)
            for h, y, t_j, w_h, w_ins in hiero_moves[j]:
                if y != EPSILON:
                    cand = dense_times(dense_times(d, w_ins, False), w_h, signed)
                else:
                    cand = dense_times(d, w_h, signed)
                relax(base + t_j, cand, c, None, h)

    # Acceptance is one more cell, relaxed from the final cells in order.
    accept = size
    for i in sorted(pos_n[s] for s, _ in nmt.finals()):
        fw_n = nmt.final_weight(order_n[i]).values
        for j in sorted(pos_h[s] for s, _ in hiero.finals()):
            c = i * width + j
            kc = keys[c]
            if kc is not None:
                fw_h = hiero.final_weight(order_h[j]).values
                relax(accept, dense_times(dense_times(kc[1], fw_n, False), fw_h, signed), c, None, None)
    best = keys[accept]
    if best is None:
        raise NoPathError("no path from the initial state to a final state")

    # Rebuild the path with the weights the composed machine's arcs carry.
    c = back[accept][0]
    final_weight = times(nmt.final_weight(order_n[c // width]),
                         hiero.final_weight(order_h[c % width]))
    arcs: list[Arc] = []
    while c != start:
        src, a, h = back[c]
        x = EPSILON if a is None else a.olabel
        y = EPSILON if h is None else h.ilabel
        w = edit_weight(nmt_vocab, x, y)
        if a is not None:
            w = times(a.weight, w)
        if h is not None:
            w = times(w, h.weight)
        arcs.append(Arc(EPSILON if a is None else a.ilabel, EPSILON if h is None else h.olabel,
                        w, c))
        c = src
    arcs.reverse()
    return PathWitness(arcs=tuple(arcs), final_weight=final_weight,
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

    def to_key_value_lines(self) -> list[str]:
        lines = [
            f"num_sentences={self.num_sentences}",
            f"avg_unk_extensions={_fmt(self.avg_unk_extensions)}",
            f"pct_unk_extensions={_fmt(self.pct_unk_extensions)}",
            f"avg_type2_subs={_fmt(self.avg_type2_subs)}",
            f"pct_type2_subs={_fmt(self.pct_type2_subs)}",
            f"avg_type3_edits={_fmt(self.avg_type3_edits)}",
            f"pct_type3_edits={_fmt(self.pct_type3_edits)}",
            f"pct_exact_match={_fmt(self.pct_exact_match)}",
            f"pct_hiero_unchanged={_fmt(self.pct_hiero_unchanged)}",
        ]
        lines.extend(f"pct_hiero_in_{n}best={_fmt(pct)}" for n, pct in self.nbest_membership)
        return lines

    def to_tsv_lines(self) -> list[str]:
        lines = ["measure\tavg_per_sentence\tpct_affected"]
        lines.append(f"unk_extensions\t{_fmt(self.avg_unk_extensions)}\t{_fmt(self.pct_unk_extensions)}")
        lines.append(f"type2_subs\t{_fmt(self.avg_type2_subs)}\t{_fmt(self.pct_type2_subs)}")
        lines.append(f"type3_edits\t{_fmt(self.avg_type3_edits)}\t{_fmt(self.pct_type3_edits)}")
        lines.append(f"exact_match\t-\t{_fmt(self.pct_exact_match)}")
        lines.append(f"hiero_unchanged\t-\t{_fmt(self.pct_hiero_unchanged)}")
        for n, pct in self.nbest_membership:
            lines.append(f"hiero_in_{n}best\t-\t{_fmt(pct)}")
        return lines


def corpus_report(results: Sequence[CombinationResult], hiero_lattices: Sequence[Wfst],
                  n_values: Sequence[int] = (1, 10, 100)) -> CorpusReport:
    """Aggregate edit statistics and hiero-side selection behavior.

    Reports, per edit class, the average count per sentence and the
    percentage of sentences with a nonzero count; the percentage of
    sentences whose selected hiero hypothesis is the hiero 1-best; and,
    for each n, the percentage of sentences whose selected hiero
    hypothesis appears among the n cheapest unique hiero strings.
    """
    if not results:
        raise ContractError("corpus report needs at least one result")
    if len(results) != len(hiero_lattices):
        raise ContractError("need exactly one hiero lattice per result")
    total = len(results)

    def avg(getter) -> float:
        return sum(getter(r) for r in results) / total

    def pct(predicate) -> float:
        return 100.0 * sum(1 for r in results if predicate(r)) / total

    # One unique n-best search per lattice at the largest n; the list for
    # a smaller n is its prefix, and its first entry is the 1-best.
    deepest = max(n_values, default=1)
    unchanged = 0
    hits = {n: 0 for n in n_values}
    for result, lattice in zip(results, hiero_lattices):
        ranked = [tuple(lattice.osyms.word(l) for l in p.output_labels())
                  for p in nbest(lattice, deepest, HIERO_ONLY, unique=True)]
        rank = ranked.index(result.t_hiero) if result.t_hiero in ranked else deepest
        if rank == 0:
            unchanged += 1
        for n in n_values:
            if rank < n:
                hits[n] += 1

    return CorpusReport(
        num_sentences=total,
        avg_unk_extensions=avg(lambda r: r.stats.unk_extensions),
        avg_type2_subs=avg(lambda r: r.stats.type2_subs),
        avg_type3_edits=avg(lambda r: r.stats.type3_edits),
        pct_unk_extensions=pct(lambda r: r.stats.unk_extensions > 0),
        pct_type2_subs=pct(lambda r: r.stats.type2_subs > 0),
        pct_type3_edits=pct(lambda r: r.stats.type3_edits > 0),
        pct_exact_match=pct(lambda r: r.stats.exact_match),
        pct_hiero_unchanged=100.0 * unchanged / total,
        nbest_membership=tuple((n, 100.0 * hits[n] / total) for n in n_values),
    )
