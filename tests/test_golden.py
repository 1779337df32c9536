"""Golden results: ``combine`` on the benchmark corpora, pinned by hash.

Builds the seed 1-3 corpora of every benchmark workload with
``perfbench/workloads.py`` (into a temporary directory), reads and
combines each sentence as ``latcomb stats`` does, and hashes what a
refactor must not change: per sentence the stem, ``t_comb``, ``t_nmt``,
``t_hiero``, ``repr`` of the total cost and the feature vector.  A
mismatch means a change moved some sentence's result; compare against
the previous commit to find which one.
"""

import hashlib
import importlib.util
import os
import sys

import pytest

from latcomb import combine, lattice_io

WORKLOADS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")

GOLDEN = {
    "stats-corpus": "b91a0f6092b7d6497f0590f473cf64df7688ccf27a15e966682a197be8085b69",
    "wide-alphabet": "47b27995d20f4d2550dda0c68004a565d71b9b8f06676b75148ff378012da8da",
    "deep-hiero": "4d1f2afdf52885760c98a87528741a8f35fe8719be1f52f3a6b509495709fc27",
}


def load_workloads():
    """``perfbench/workloads.py``, imported by path: perfbench is no package."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def corpus_digest(root: str) -> str:
    syms = lattice_io.read_symtab(os.path.join(root, "words.sym"))
    vocab = lattice_io.read_vocab(os.path.join(root, "vocab.txt"), syms)
    params = lattice_io.read_params(os.path.join(root, "params.cfg")).with_vocab(vocab)
    stems = sorted(name[: -len(".nmt.fst")] for name in os.listdir(os.path.join(root, "nmt")))
    digest = hashlib.sha256()
    for stem in stems:
        nmt = lattice_io.read_lattice(os.path.join(root, "nmt", f"{stem}.nmt.fst"), syms,
                                      kind="nmt")
        hiero = lattice_io.read_lattice(os.path.join(root, "hiero", f"{stem}.hiero.fst"), syms,
                                        kind="hiero")
        r = combine(nmt, hiero, params, source_id=stem)
        row = (stem, r.t_comb, r.t_nmt, r.t_hiero, repr(r.total_cost),
               r.feature_vector.values)
        digest.update(repr(row).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_combine_matches_golden_results(workload, tmp_path):
    workloads = load_workloads()
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        root = str(tmp_path / f"seed{seed}")
        workloads.write_corpus(workloads.generate(workload, seed), root)
        digest.update(corpus_digest(root).encode("ascii"))
    assert digest.hexdigest() == GOLDEN[workload]
