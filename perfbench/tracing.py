"""Spans around the program's layer boundaries, kept in memory during a traced run.

The tracer wraps, by name in ``latcomb.pipeline``'s namespace, every
function the pipeline calls for one combination or one corpus report,
plus the benchmark's own ``read_lattice`` / ``combine`` /
``corpus_report`` calls.  A span is ``[name, start, end, parent index,
sentence id, size attributes]``.  A function the pipeline no longer
imports is simply not wrapped, so its metrics read zero.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Pipeline-level functions to wrap, with the machine sizes recorded per call.
PIPELINE_LAYERS = {
    "prune_to_node_budget": lambda args, out: {"states_in": args[0].num_states,
                                               "states_out": out.num_states},
    "build_unk_insertion_fst": None,
    "replace": None,
    "build_modified_edit_fst": lambda args, out: {"alphabet": len(args[0].alphabet),
                                                  "arcs": out.num_arcs},
    "compose": lambda args, out: {"states": out.num_states, "arcs": out.num_arcs},
    "shortest_path": None,
    "decompose_alignment": None,
    "count_paths": lambda args, out: {"paths": out},
    "nbest": None,
}

# Span name (and ordinal among its siblings, for compose) -> metric prefix.
_LAYER_NAMES = {
    "read_lattice": "lattice_io.read",
    "combine": "pipeline.combine_self",
    "corpus_report": "pipeline.corpus_report",
    "prune_to_node_budget": "algorithms.prune",
    "build_unk_insertion_fst": "editfst.unk_insertion",
    "replace": "algorithms.replace",
    "build_modified_edit_fst": "editfst.flower",
    "shortest_path": "algorithms.shortest_path",
    "decompose_alignment": "pipeline.decompose_alignment",
    "count_paths": "fst.count_paths",
    "nbest": "algorithms.nbest",
}

TIME_METRICS = sorted(set(_LAYER_NAMES.values()) | {
    "algorithms.compose_edit", "algorithms.compose_hiero", "pipeline.report_1best"})

COUNT_METRICS = (
    "lattice_io.arcs_read", "fst.nmt_paths", "editfst.alphabet_size", "editfst.flower_arcs",
    "algorithms.compose_edit_states", "algorithms.compose_edit_arcs",
    "algorithms.compose_hiero_states", "algorithms.compose_hiero_arcs",
    "algorithms.prune_states_in", "algorithms.prune_states_out", "algorithms.nbest_calls",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sentence: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.sentence, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                record[5] = attrs(args, out)
            return out

        return traced

    def install(self, module):
        """Wrap ``module``'s layer functions in place; returns the undo callable."""
        saved = {name: getattr(module, name) for name in PIPELINE_LAYERS if hasattr(module, name)}
        for name, fn in saved.items():
            setattr(module, name, self.wrap(name, fn, PIPELINE_LAYERS[name]))

        def undo() -> None:
            for name, fn in saved.items():
                setattr(module, name, fn)

        return undo


def layer_metrics(spans: list[list], sentences: int) -> dict[str, float]:
    """Per-sentence self time and machine sizes of every layer.

    Self time is a span's duration minus its children's.  Raises
    ValueError when a child is not nested inside its parent or children
    overlap, since then self times would not add up to the parent.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        kids = children.get(i, [])
        covered = 0.0
        cursor = start
        for k in kids:
            k_start, k_end = spans[k][1], spans[k][2]
            if k_start < cursor or k_end > end:
                raise ValueError(f"span {spans[k][0]} is not nested in {name} or overlaps a sibling")
            covered += k_end - k_start
            cursor = k_end
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "compose":
            ordinal = sum(1 for k in children[parent] if k < i and spans[k][0] == "compose")
            key = ("algorithms.compose_edit", "algorithms.compose_hiero")[min(ordinal, 1)]
            counts[key + "_states"] += attrs["states"]
            counts[key + "_arcs"] += attrs["arcs"]
        elif name == "shortest_path" and parent_name == "corpus_report":
            key = "pipeline.report_1best"
        else:
            key = _LAYER_NAMES[name]
        totals[key] += end - start - covered
        if name == "combine":
            totals["pipeline.combine"] += end - start
        elif name == "read_lattice":
            counts["lattice_io.arcs_read"] += attrs["arcs"]
        elif name == "count_paths":
            counts["fst.nmt_paths"] += attrs["paths"] or 0
        elif name == "build_modified_edit_fst":
            counts["editfst.alphabet_size"] += attrs["alphabet"]
            counts["editfst.flower_arcs"] += attrs["arcs"]
        elif name == "prune_to_node_budget":
            counts["algorithms.prune_states_in"] += attrs["states_in"]
            counts["algorithms.prune_states_out"] += attrs["states_out"]
        elif name == "nbest":
            counts["algorithms.nbest_calls"] += 1
    n = max(sentences, 1)
    out = {f"{key}_s": totals[key] / n for key in TIME_METRICS + ["pipeline.combine"]}
    out.update({key: counts[key] / n for key in COUNT_METRICS})
    return out
