"""One benchmark process: times set-up, or runs the corpus loop for a while.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the program's
``src/`` directory:

    worker.py setup CORPUS_DIR
    worker.py measure CORPUS_DIR SECONDS plain|traced OUT_JSON SPANS_JSONL

``setup`` prints the seconds taken to import ``latcomb`` and load the
symbol table, vocabulary and parameters.  ``measure`` repeats the
``latcomb stats`` corpus loop (two ``read_lattice`` calls and one
``combine`` per sentence, then ``corpus_report`` when the corpus has
``report_ns.txt``) until SECONDS have passed, finishing the sentence in
progress and the report of the pass in progress.  It writes the
latencies and outputs of each sentence, the report times and its own
peak RSS to OUT_JSON.  The traced mode also wraps the program's layers,
writes the spans to SPANS_JSONL, and then counts ``times`` calls in a
separate short pass.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import sys
import warnings
from time import perf_counter

# Sentences in the separate pass that counts semiring ``times`` calls.
COUNT_SENTENCES = 10


def load(corpus_dir: str):
    """Import the program and load the shared inputs; returns (seconds, symtab, params)."""
    start = perf_counter()
    from latcomb import lattice_io

    syms = lattice_io.read_symtab(os.path.join(corpus_dir, "words.sym"))
    vocab = lattice_io.read_vocab(os.path.join(corpus_dir, "vocab.txt"), syms)
    params = lattice_io.read_params(os.path.join(corpus_dir, "params.cfg")).with_vocab(vocab)
    return perf_counter() - start, syms, params


def corpus_loop(corpus_dir, stems, syms, params, report_ns, read, combine, report,
                seconds, tracer=None, max_passes=sys.maxsize) -> dict:
    latencies: dict[str, list[float]] = {}
    outputs: dict[str, list] = {}
    failures: list[list[str]] = []
    reports: list[dict] = []
    # Each vCPU of a shared machine slows down on its own, so successive
    # sentences alternate between the CPUs this process may use; a
    # sentence's fastest run then rarely comes from a stalled one.
    cpus = None
    if hasattr(os, "sched_setaffinity"):
        cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    start = perf_counter()
    deadline = start + seconds
    done = False
    passes = 0
    while not done and passes < max_passes:
        passes += 1
        results, hieros = [], []
        for stem in stems:
            if tracer is not None:
                tracer.sentence = stem
            if cpus is not None:
                os.sched_setaffinity(0, {next(cpus)})
            t0 = perf_counter()
            try:
                nmt = read(os.path.join(corpus_dir, "nmt", f"{stem}.nmt.fst"), syms, kind="nmt")
                hiero = read(os.path.join(corpus_dir, "hiero", f"{stem}.hiero.fst"), syms,
                             kind="hiero")
                result = combine(nmt, hiero, params, source_id=stem)
            except Exception as exc:  # also warnings, which are errors here; counted as failed
                result = None
                failures.append([stem, f"{type(exc).__name__}: {exc}"])
            t1 = perf_counter()
            latencies.setdefault(stem, []).append(t1 - t0)
            if result is not None:
                line = [list(result.t_comb), list(result.t_hiero), result.total_cost]
                if outputs.setdefault(stem, line) != line:
                    failures.append([stem, "output differs from this sentence's first pass"])
                if report_ns:
                    results.append(result)
                    hieros.append(hiero)
            if t1 >= deadline:
                done = True
                break
        if results:
            if tracer is not None:
                tracer.sentence = None
            t0 = perf_counter()
            try:
                rep = report(results, hieros, report_ns)
            except Exception as exc:
                failures.append(["report", f"{type(exc).__name__}: {exc}"])
            else:
                reports.append({"seconds": perf_counter() - t0,
                                "stems": [r.source_id for r in results],
                                "hiero_unchanged": rep.pct_hiero_unchanged,
                                "membership": [list(m) for m in rep.nbest_membership]})
    return {"wall_s": perf_counter() - start, "latencies": latencies, "outputs": outputs,
            "failures": failures, "reports": reports}


def count_times_calls(corpus_dir, stems, syms, params, report_ns) -> float:
    """Semiring ``times`` calls made from ``latcomb.algorithms``, per sentence."""
    from latcomb import algorithms, lattice_io, pipeline

    original = algorithms.times
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return original(a, b)

    algorithms.times = counting
    try:
        loop = corpus_loop(corpus_dir, stems[:COUNT_SENTENCES], syms, params, report_ns,
                           lattice_io.read_lattice, pipeline.combine, pipeline.corpus_report,
                           seconds=float("inf"), max_passes=1)
    finally:
        algorithms.times = original
    return calls / max(len(loop["latencies"]), 1)  # one pass: one run per sentence


def measure(corpus_dir: str, seconds: float, traced: bool, out_path: str, spans_path: str) -> None:
    _, syms, params = load(corpus_dir)
    from latcomb import lattice_io, pipeline

    warnings.simplefilter("error")
    ns_path = os.path.join(corpus_dir, "report_ns.txt")
    report_ns = []
    if os.path.exists(ns_path):
        with open(ns_path, encoding="utf-8") as f:
            report_ns = [int(n) for n in f.read().split()]
    stems = sorted(name[: -len(".nmt.fst")] for name in os.listdir(os.path.join(corpus_dir, "nmt")))

    read, combine, report = lattice_io.read_lattice, pipeline.combine, pipeline.corpus_report
    tracer = None
    if traced:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        undo = tracer.install(pipeline)
        read = tracer.wrap("read_lattice", read, lambda args, out: {"arcs": out.num_arcs})
        combine = tracer.wrap("combine", combine)
        report = tracer.wrap("corpus_report", report)
    loop = corpus_loop(corpus_dir, stems, syms, params, report_ns, read, combine, report,
                       seconds, tracer)
    loop["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        undo()
        with open(spans_path, "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        try:
            runs = sum(len(times) for times in loop["latencies"].values())
            loop["layers"] = layer_metrics(tracer.spans, runs)
        except ValueError as exc:
            loop["failures"].append(["trace", str(exc)])
            loop["layers"] = {}
        loop["layers"]["semiring.times_calls"] = count_times_calls(
            corpus_dir, stems, syms, params, report_ns)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(loop, f)


def main(argv: list[str]) -> int:
    if argv[1] == "setup":
        print(repr(load(argv[2])[0]))
    else:
        measure(argv[2], float(argv[3]), argv[4] == "traced", argv[5], argv[6])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
