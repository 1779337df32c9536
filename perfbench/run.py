#!/usr/bin/env python3
"""Seeded corpus benchmark for latcomb.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates the workload's corpus from the seed, then runs
the corpus loop in two worker processes one after the other, each for
S/2 seconds and each a single-threaded closed loop: the first with
PYTHONHASHSEED=0, the second with PYTHONHASHSEED=1.  Their outputs must
be identical (their SHA-256 digests are compared).  Set-up is timed in
fresh interpreters before, between and after the workers.  After the
timed work, every sentence is checked against the independent reference
in ``reference.py`` (and the brute-force oracle on ``stats-corpus``).

The workers pass over the corpus repeatedly, so each sentence runs
several times; its latency is its fastest run.  On a shared machine the
speed of identical work drifts by tens of percent over stretches of
seconds to minutes, and the fastest of several spaced runs is what stays
repeatable from one benchmark run to the next.

With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` the second worker wraps the
program's layers and the last line holds the per-layer metrics.  The
line before it records the run's settings and bookkeeping, which are
also written to ``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import reference
import workloads

WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 5  # per sampling point; three points per run
WORKER_TIMEOUT_S = 75


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "latcomb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def _commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except FileNotFoundError:  # no git on this machine
        return None
    return out.stdout.strip() or None


def _worker(root: str, args: list[str], hash_seed: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    done = subprocess.run([sys.executable, script, *args], env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{done.stderr}")
    return done


def _digest(outputs: dict, stems: list[str]) -> str:
    lines = "".join(f"{s}\t{' '.join(outputs[s][0])}\t{outputs[s][2]!r}\n" for s in stems)
    return hashlib.sha256(lines.encode()).hexdigest()


def _oracle_check(sentence, corpus, ref) -> str | None:
    """Cross-check the reference DP against the program's brute-force oracle."""
    from latcomb import Arc, SymbolTable, Wfst, weight
    from latcomb.oracle import brute_force_combine

    syms = SymbolTable()

    def build(lattice, feature):
        fst = Wfst(syms, syms)
        for _ in range(lattice.num_states):
            fst.add_state()
        fst.set_initial(0)
        for src, dst, word, score in lattice.arcs:
            label = syms.add(word)
            fst.add_arc(src, Arc(label, label, weight({feature: score}), dst))
        for f in lattice.finals:
            fst.set_final(f)
        return fst.freeze()

    p = corpus.params
    oracle = brute_force_combine(
        build(sentence.nmt, 0), build(sentence.hiero, 1), vocab=set(corpus.vocab),
        nmt_scale=p["lambda_nmt"], hiero_scale=p["lambda_hiero"], sub_cost=p["lambda_sub"],
        edit_cost=p["lambda_edit"], ins_cost=p["lambda_ins"], max_unk_run=p["max_unk_run"])
    why = reference.check_result(ref, oracle.combined_tokens, oracle.hiero_tokens, oracle.cost)
    return None if why is None else f"reference DP disagrees with the brute-force oracle: {why}"


def _checker_self_test(ref, output) -> bool:
    """The checker must reject a perturbed cost and a t_comb with one token replaced."""
    t_comb, t_hiero, cost = output
    if reference.check_result(ref, t_comb, t_hiero, cost) is not None:
        return True  # a real mismatch is already counted
    replaced = ["<not-a-word>"] + list(t_comb[1:])
    return (reference.check_result(ref, t_comb, t_hiero, cost + 1e-6) is not None
            and reference.check_result(ref, replaced, t_hiero, cost) is not None)


def _best_latencies(runs: list[dict]) -> dict[str, float]:
    """Each sentence's fastest read + combine over every run of it in both workers."""
    best: dict[str, float] = {}
    for run in runs:
        for stem, times in run["latencies"].items():
            best[stem] = min(times + [best.get(stem, float("inf"))])
    return best


def _setup_times(root: str, corpus_dir: str) -> list[float]:
    return [float(_worker(root, ["setup", corpus_dir], 0).stdout) for _ in range(SETUP_REPEATS)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "latcomb", "__init__.py")):
        return _fail("src/latcomb not found; run from the root of a latcomb checkout")
    sys.path.insert(0, src)

    work = os.path.join(root, WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    corpus_dir = os.path.join(work, "corpus")
    corpus = workloads.generate(args.workload, args.seed)
    workloads.write_corpus(corpus, corpus_dir)

    # Set-up is sampled before, between and after the two workers, so that
    # its median does not hinge on one stretch of machine load.
    _worker(root, ["setup", corpus_dir], 0)  # fills the bytecode caches; not counted
    setup_times = _setup_times(root, corpus_dir)
    runs = []
    for hash_seed, mode in ((0, "plain"), (1, "traced" if args.trace else "plain")):
        out = os.path.join(work, f"worker{hash_seed}.json")
        _worker(root, ["measure", corpus_dir, repr(args.seconds / 2), mode, out,
                       os.path.join(work, "spans.jsonl")], hash_seed)
        with open(out, encoding="utf-8") as f:
            runs.append(json.load(f))
        setup_times += _setup_times(root, corpus_dir)

    # Everything below is outside the timed region.
    by_sid = {s.sid: s for s in corpus.sentences}
    failed_stems: dict[str, str] = {}
    other_failures: list[list[str]] = []
    for run in runs:
        for stem, reason in run["failures"]:
            if stem in by_sid:
                failed_stems.setdefault(stem, reason)
            else:
                other_failures.append([stem, reason])
    best = _best_latencies(runs)
    ties = 0
    self_test_ok = True
    for stem in sorted(best):
        sentence = by_sid[stem]
        ref = reference.reference_optimum(sentence, corpus)
        outputs = [run["outputs"][stem] for run in runs if stem in run["outputs"]]
        for t_comb, t_hiero, cost in outputs:
            why = reference.check_result(ref, t_comb, t_hiero, cost)
            if why:
                failed_stems.setdefault(stem, why)
        if outputs and stem == min(best):
            self_test_ok = _checker_self_test(ref, outputs[0])
        if corpus.report_ns:
            why = _oracle_check(sentence, corpus, ref)
            if why:
                failed_stems.setdefault(stem, why)
        ties += len(ref.pairs) > 1

    for run in runs:
        for rep in run["reports"]:
            hiero_t = [tuple(run["outputs"][s][1]) for s in rep["stems"]]
            ranked = [reference.hiero_strings_by_cost(by_sid[s].hiero) for s in rep["stems"]]
            expect = [100.0 * sum(h in r[:n] for h, r in zip(hiero_t, ranked)) / len(hiero_t)
                      for n in [1] + [n for n, _ in rep["membership"]]]
            got = [rep["hiero_unchanged"]] + [pct for _, pct in rep["membership"]]
            if any(abs(a - b) > 1e-9 for a, b in zip(expect, got)):
                other_failures.append(["report", f"report {got} differs from the reference {expect}"])

    common = [s.sid for s in corpus.sentences
              if s.sid in runs[0]["outputs"] and s.sid in runs[1]["outputs"]]
    digests = [_digest(run["outputs"], common) for run in runs]
    runs_of = [{stem: len(times) for stem, times in run["latencies"].items()} for run in runs]
    attempted = sum(sum(r.values()) for r in runs_of)
    failed = sum(r.get(stem, 0) for stem in failed_stems for r in runs_of) + len(other_failures)
    correct = failed == 0 and self_test_ok and digests[0] == digests[1]

    if args.trace:
        traced = runs[1]
        both = [stem for stem in runs[0]["latencies"] if stem in traced["latencies"]]
        plain_s = sum(min(runs[0]["latencies"][stem]) for stem in both)
        traced_s = sum(min(traced["latencies"][stem]) for stem in both)
        unk_arcs = sum(count * sum(arc[2] == workloads.UNK_WORD for arc in by_sid[stem].nmt.arcs)
                       for stem, count in runs_of[1].items())
        metrics = {name: (value, "s" if name.endswith("_s") else "count")
                   for name, value in traced.get("layers", {}).items()}
        metrics["unk_count"] = (unk_arcs / max(sum(runs_of[1].values()), 1), "count")
        metrics["trace.sentences_per_s"] = (len(both) / traced_s, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    else:
        fastest = sorted(best.values())
        report_share = min((rep["seconds"] / len(rep["stems"])
                            for run in runs for rep in run["reports"]), default=0.0)
        metrics = {
            "sentences_per_s": (len(fastest) / (sum(fastest) + len(fastest) * report_share), "1/s"),
            "sentence_p50_ms": (1000.0 * statistics.median(fastest), "ms"),
            "sentence_p90_ms": (1000.0 * statistics.quantiles(fastest, n=10)[8], "ms"),
            "peak_rss_mb": (max(run["peak_rss_mb"] for run in runs), "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }

    run_counts = sorted(sum(r.get(stem, 0) for r in runs_of) for stem in best)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _commit(root), "src_sha256": _source_digest(src),
        "shape": corpus.shape, "params": corpus.params, "corpus_sentences": len(corpus.sentences),
        "sentences_measured": len(best), "sentence_runs": attempted,
        "sentence_runs_per_worker": [sum(r.values()) for r in runs_of],
        "runs_per_sentence_min_median": [run_counts[0], statistics.median(run_counts)],
        "wall_sentences_per_s": [sum(r.values()) / run["wall_s"] for r, run in zip(runs_of, runs)],
        "reports": sum(len(run["reports"]) for run in runs), "setup_samples": len(setup_times),
        "digest_sentences": len(common),
        "digest_hashseed0": digests[0], "digest_hashseed1": digests[1],
        "tied_optima": ties, "checker_self_test": self_test_ok,
        "failures": sorted(failed_stems.items())[:20] + other_failures[:20],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    shutil.rmtree(corpus_dir)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
