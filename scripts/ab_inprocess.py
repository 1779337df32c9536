#!/usr/bin/env python3
"""Time two checkouts of latcomb against each other in one process.

Usage: python scripts/ab_inprocess.py PARENT_TREE CHANGE_TREE
           [--workload NAME ...] [--rounds 20] [--sentences N]

Each tree's ``src/latcomb`` is copied into a temporary directory under a
package name of its own (the package imports its modules relatively), so
both trees run in this one interpreter.  The seed-1 corpora come from
this checkout's ``perfbench/workloads.py``, written to the same
temporary directory.

First every sentence is combined once on each tree: its (t_comb,
t_hiero, repr(total_cost), feature vector), and the corpus report's
lines where the workload has a report (``report_ns.txt``), must be the
same on both, or the script exits with status 1.  Then each round times both
trees, the order alternating from round to round: per sentence, two
``read_lattice`` calls and one ``combine``, the best of three passes;
per pass, ``corpus_report`` over the pass's results where the
workload has a report, again the best.  A shared machine's speed drifts
over seconds to minutes, so the comparison that counts is the ratio
within one round.  Per workload and timed stage the script prints each
tree's min and median ms per sentence over the rounds, the median
change/parent ratio, and in how many rounds the change was faster.
"""

import argparse
import dataclasses
import gc
import importlib
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no caches in perfbench/ or the copies
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

TREES = ("parent", "change")
SEED = 1  # the benchmark's seed
PASSES = 3  # per round; each sentence counts its fastest pass


def load_tree(tree: str, package: str, tmp: Path):
    """Copy ``tree``'s package to ``tmp/package``; returns its
    (lattice_io, pipeline) modules."""
    shutil.copytree(Path(tree) / "src" / "latcomb", tmp / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return (importlib.import_module(f"{package}.lattice_io"),
            importlib.import_module(f"{package}.pipeline"))


class Side:
    """One tree's view of one corpus directory."""

    def __init__(self, modules, corpus: Path) -> None:
        self.io, self.pipeline = modules
        self.corpus = corpus
        self.syms = self.io.read_symtab(str(corpus / "words.sym"))
        vocab = self.io.read_vocab(str(corpus / "vocab.txt"), self.syms)
        self.params = self.io.read_params(str(corpus / "params.cfg")).with_vocab(vocab)

    def sentence(self, stem: str):
        """Read and combine one sentence; returns (result, hiero lattice)."""
        read, syms = self.io.read_lattice, self.syms
        nmt = read(str(self.corpus / "nmt" / f"{stem}.nmt.fst"), syms, kind="nmt")
        hiero = read(str(self.corpus / "hiero" / f"{stem}.hiero.fst"), syms, kind="hiero")
        return self.pipeline.combine(nmt, hiero, self.params, source_id=stem), hiero

    def outputs(self, stems: list[str], report_ns: tuple[int, ...]) -> list:
        """What both trees must agree on: per sentence, then the report's lines."""
        runs = [self.sentence(stem) for stem in stems]
        out = [(r.t_comb, r.t_hiero, repr(r.total_cost), r.feature_vector.values)
               for r, _ in runs]
        if report_ns:
            out.append(self.pipeline.corpus_report(
                [r for r, _ in runs], [h for _, h in runs], report_ns).to_key_value_lines())
        return out

    def timed(self, stems: list[str], report_ns: tuple[int, ...]) -> dict:
        """ms per sentence of read + combine, and of the report, each the best of PASSES."""
        best = dict.fromkeys(stems, math.inf)
        report = math.inf
        for _ in range(PASSES):
            runs = []
            for stem in stems:
                t0 = perf_counter()
                runs.append(self.sentence(stem))
                best[stem] = min(best[stem], perf_counter() - t0)
            if report_ns:
                t0 = perf_counter()
                self.pipeline.corpus_report([r for r, _ in runs], [h for _, h in runs], report_ns)
                report = min(report, perf_counter() - t0)
        times = {"read+combine": 1e3 * sum(best.values()) / len(stems)}
        if report_ns:
            times["corpus_report"] = 1e3 * report / len(stems)
        return times


def compare(workload: str, sides: dict, stems: list[str], report_ns: tuple[int, ...],
            rounds: int) -> bool:
    outputs = {tree: side.outputs(stems, report_ns) for tree, side in sides.items()}
    for stem, a, b in zip(stems + ["corpus_report"], outputs["parent"], outputs["change"]):
        if a != b:
            print(f"{workload}: {stem} differs\n  parent {a}\n  change {b}")
            return False
    samples: dict[str, dict[str, list[float]]] = {}
    for r in range(rounds):
        for tree in TREES if r % 2 == 0 else TREES[::-1]:
            gc.collect()
            for stage, ms in sides[tree].timed(stems, report_ns).items():
                samples.setdefault(stage, {t: [] for t in TREES})[tree].append(ms)
    print(f"{workload}: {len(stems)} sentences, {rounds} rounds, best of {PASSES} passes; "
          f"ms per sentence")
    for stage, by_tree in samples.items():
        ratios = [c / p for p, c in zip(by_tree["parent"], by_tree["change"])]
        cells = "  ".join(f"{tree} min {min(ms):.4f} median {statistics.median(ms):.4f}"
                          for tree, ms in by_tree.items())
        print(f"  {stage:<13} {cells}  ratio {statistics.median(ratios):.3f}, "
              f"change faster in {sum(x < 1.0 for x in ratios)}/{rounds}")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.GENERATORS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--sentences", type=int, default=None,
                        help="only the first N sentences of each corpus")
    args = parser.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as name:
        tmp = Path(name)
        sys.path.insert(0, name)
        modules = {tree: load_tree(getattr(args, tree), f"latcomb_{tree}", tmp)
                   for tree in TREES}
        for workload in args.workload or sorted(workloads.GENERATORS):
            corpus = workloads.generate(workload, SEED)
            corpus = dataclasses.replace(corpus, sentences=corpus.sentences[:args.sentences])
            root = tmp / "corpora" / workload
            workloads.write_corpus(corpus, str(root))
            sides = {tree: Side(modules[tree], root) for tree in TREES}
            stems = [s.sid for s in corpus.sentences]
            ok &= compare(workload, sides, stems, corpus.report_ns, args.rounds)
        sys.path.remove(name)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
