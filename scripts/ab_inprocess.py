#!/usr/bin/env python3
"""Time two checkouts of latcomb against each other in one process.

Usage: python scripts/ab_inprocess.py PARENT_TREE CHANGE_TREE
           [--workload NAME ...] [--rounds 20] [--sentences N] [--setup N]

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

With ``--setup N``, each round also times set-up as perfbench's
``setup_s`` does: after a tree's in-process timing, N runs of this
checkout's ``perfbench/worker.py setup`` on the corpus, each in a fresh
interpreter that imports a copy of that tree's ``src/latcomb`` in a
temporary directory of its own, with ``PYTHONDONTWRITEBYTECODE=1``, so
no bytecode cache takes part.  Per workload the script prints each
tree's median and quartiles over all its runs, the median over the
rounds of the ratio of the two trees' medians in a round, and in how
many rounds the change's median was lower.
"""

import argparse
import dataclasses
import gc
import importlib
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no caches in perfbench/ or the copies
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

TREES = ("parent", "change")
WORKER = ROOT / "perfbench" / "worker.py"
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

    def __init__(self, modules, corpus: Path, package_dir: Path) -> None:
        self.io, self.pipeline = modules
        self.corpus = corpus
        self.package_dir = package_dir  # holds a copy of the tree's package as ``latcomb``
        self.syms = self.io.read_symtab(str(corpus / "words.sym"))
        vocab = self.io.read_vocab(str(corpus / "vocab.txt"), self.syms)
        self.params = self.io.read_params(str(corpus / "params.cfg")).with_vocab(vocab)

    def sentence(self, stem: str):
        """Read and combine one sentence; returns (result, hiero lattice)."""
        read, syms = self.io.read_lattice, self.syms
        nmt = read(str(self.corpus / "nmt" / f"{stem}.nmt.fst"), syms, kind="nmt")
        hiero = read(str(self.corpus / "hiero" / f"{stem}.hiero.fst"), syms, kind="hiero")
        return self.pipeline.combine(nmt, hiero, self.params, source_id=stem), hiero

    def setup_ms(self) -> float:
        """ms of one ``worker.py setup`` run, in a fresh interpreter that
        imports ``package_dir``'s copy of the package and writes no bytecode."""
        env = dict(os.environ, PYTHONPATH=str(self.package_dir), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONHASHSEED="0")
        done = subprocess.run([sys.executable, str(WORKER), "setup", str(self.corpus)], env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"worker setup failed:\n{done.stderr}")
        return 1e3 * float(done.stdout)

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
            rounds: int, setup: int) -> bool:
    outputs = {tree: side.outputs(stems, report_ns) for tree, side in sides.items()}
    for stem, a, b in zip(stems + ["corpus_report"], outputs["parent"], outputs["change"]):
        if a != b:
            print(f"{workload}: {stem} differs\n  parent {a}\n  change {b}")
            return False
    samples: dict[str, dict[str, list[float]]] = {}
    setups: dict[str, list[list[float]]] = {t: [] for t in TREES}  # per tree, per round
    for r in range(rounds):
        for tree in TREES if r % 2 == 0 else TREES[::-1]:
            gc.collect()
            for stage, ms in sides[tree].timed(stems, report_ns).items():
                samples.setdefault(stage, {t: [] for t in TREES})[tree].append(ms)
            if setup:
                setups[tree].append([sides[tree].setup_ms() for _ in range(setup)])
    print(f"{workload}: {len(stems)} sentences, {rounds} rounds, best of {PASSES} passes; "
          f"ms per sentence")
    for stage, by_tree in samples.items():
        ratios = [c / p for p, c in zip(by_tree["parent"], by_tree["change"])]
        cells = "  ".join(f"{tree} min {min(ms):.4f} median {statistics.median(ms):.4f}"
                          for tree, ms in by_tree.items())
        print(f"  {stage:<13} {cells}  ratio {statistics.median(ratios):.3f}, "
              f"change faster in {sum(x < 1.0 for x in ratios)}/{rounds}")
    if setup:
        ratios = [statistics.median(c) / statistics.median(p)
                  for p, c in zip(setups["parent"], setups["change"])]
        cells = []
        for tree, per_round in setups.items():
            ms = [x for runs in per_round for x in runs]
            q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
            cells.append(f"{tree} median {statistics.median(ms):.2f} [{q1:.2f}, {q3:.2f}]")
        print(f"  setup ({setup} x {rounds} runs per tree; ms per run, median [quartiles])  "
              f"{'  '.join(cells)}  ratio {statistics.median(ratios):.3f}, "
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
    parser.add_argument("--setup", type=int, default=0, metavar="N",
                        help="also time N set-ups per tree and round, each in a fresh process")
    args = parser.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as name:
        tmp = Path(name)
        sys.path.insert(0, name)
        modules = {tree: load_tree(getattr(args, tree), f"latcomb_{tree}", tmp)
                   for tree in TREES}
        package_dirs = {tree: tmp / f"setup_{tree}" for tree in TREES}
        for tree, package_dir in package_dirs.items():
            shutil.copytree(Path(getattr(args, tree)) / "src" / "latcomb", package_dir / "latcomb",
                            ignore=shutil.ignore_patterns("__pycache__"))
        for workload in args.workload or sorted(workloads.GENERATORS):
            corpus = workloads.generate(workload, SEED)
            corpus = dataclasses.replace(corpus, sentences=corpus.sentences[:args.sentences])
            root = tmp / "corpora" / workload
            workloads.write_corpus(corpus, str(root))
            sides = {tree: Side(modules[tree], root, package_dirs[tree]) for tree in TREES}
            stems = [s.sid for s in corpus.sentences]
            ok &= compare(workload, sides, stems, corpus.report_ns, args.rounds, args.setup)
        sys.path.remove(name)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
