"""Golden results: ``combine`` and the corpus report on the benchmark corpora, pinned by hash.

Builds the seed 1-3 corpora of every benchmark workload with
``perfbench/workloads.py`` (into a temporary directory), reads and
combines each sentence as ``latcomb stats`` does, and hashes what a
refactor must not change: per sentence the stem, ``t_comb``, ``t_nmt``,
``t_hiero``, ``repr`` of the total cost and the feature vector; apart,
per sentence the winning alignment's ``path.rows`` (cells, labels and
every float bit of the weights); and, on the stats corpus, every line
of ``corpus_report`` at n = 1, 10, 100 in both renderings.  The
searches of :mod:`latcomb.algorithms` are pinned on the same hiero
lattices, under a hiero lambda of 1.0 (the float searches) and 0.7 (the
vector searches).  Each corpus is built and combined once for every
digest.  A mismatch means a change moved some sentence's result, a
report line or a search result; compare against the previous commit to
find which one.
"""

import functools
import hashlib
import importlib.util
import os
import sys

import pytest

from latcomb import (ContractError, NoPathError, ParamVector, PathWitness, combine, corpus_report,
                     lattice_io, nbest, prune_to_node_budget, shortest_path)

WORKLOADS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
SEEDS = (1, 2, 3)

GOLDEN = {
    "stats-corpus": "b91a0f6092b7d6497f0590f473cf64df7688ccf27a15e966682a197be8085b69",
    "wide-alphabet": "47b27995d20f4d2550dda0c68004a565d71b9b8f06676b75148ff378012da8da",
    "deep-hiero": "4d1f2afdf52885760c98a87528741a8f35fe8719be1f52f3a6b509495709fc27",
}

GOLDEN_PATHS = {
    "stats-corpus": "c6531528d33bc66d75094f4f003b85d590dc36dc92c24b4a835cf6444ed5486a",
    "wide-alphabet": "e479ea43eed423194a88dfb703f075b42cf37ff71ff4eb1d2cc07dd9e007fb49",
    "deep-hiero": "727daca144108f18cff8b3a559b3bf813939c5ee2a6cc0a1734818fbd16ff60c",
}

GOLDEN_REPORT = {
    "stats-corpus": "269899858049876d8c0fcf176d497459658f7bb041ca78ecd5c7eb2eb532e252",
}

GOLDEN_SEARCHES = {
    "stats-corpus": "7243b96cdd5f537038177866c5584d94fd41478404f8e317fe9d2b6a1a2a7ceb",
    "wide-alphabet": "a34a69d3e62b66cedf46ce0953e18a8e140a29f4667e7bc9360b2a12d55d4e47",
    "deep-hiero": "8b6d25e58de270932567700c48ff2f0b87980ee1f8ea1b580d73c820ab6f2e90",
}

HIERO_LAMBDAS = (1.0, 0.7)


def load_workloads():
    """``perfbench/workloads.py``, imported by path: perfbench is no package."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        # Registered before it runs: the @dataclass decorator of workloads.py
        # looks the module up in sys.modules while it builds each class.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def combine_corpus(root: str):
    """Per stem in sorted order: (stem, combination result, hiero lattice)."""
    syms = lattice_io.read_symtab(os.path.join(root, "words.sym"))
    vocab = lattice_io.read_vocab(os.path.join(root, "vocab.txt"), syms)
    params = lattice_io.read_params(os.path.join(root, "params.cfg")).with_vocab(vocab)
    stems = sorted(name[: -len(".nmt.fst")] for name in os.listdir(os.path.join(root, "nmt")))
    out = []
    for stem in stems:
        nmt = lattice_io.read_lattice(os.path.join(root, "nmt", f"{stem}.nmt.fst"), syms,
                                      kind="nmt")
        hiero = lattice_io.read_lattice(os.path.join(root, "hiero", f"{stem}.hiero.fst"), syms,
                                        kind="hiero")
        out.append((stem, combine(nmt, hiero, params, source_id=stem), hiero))
    return out


@pytest.fixture(scope="module")
def combined(tmp_path_factory):
    """``combined(workload)``: per seed, ``combine_corpus`` of its corpus, built once."""
    workloads = load_workloads()

    @functools.cache
    def build(workload):
        corpora = []
        for seed in SEEDS:
            root = str(tmp_path_factory.mktemp(f"{workload}-seed{seed}"))
            workloads.write_corpus(workloads.generate(workload, seed), root)
            corpora.append(combine_corpus(root))
        return corpora

    return build


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_combine_matches_golden_results(workload, combined):
    digest = hashlib.sha256()
    for corpus in combined(workload):
        seed_digest = hashlib.sha256()
        for stem, r, _ in corpus:
            row = (stem, r.t_comb, r.t_nmt, r.t_hiero, repr(r.total_cost),
                   r.feature_vector.values)
            seed_digest.update(repr(row).encode("utf-8"))
        digest.update(seed_digest.hexdigest().encode("ascii"))
    assert digest.hexdigest() == GOLDEN[workload]


@pytest.mark.parametrize("workload", sorted(GOLDEN_PATHS))
def test_combine_paths_match_golden_digest(workload, combined):
    digest = hashlib.sha256()
    for corpus in combined(workload):
        for stem, r, _ in corpus:
            digest.update(repr((stem, r.path.rows)).encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_PATHS[workload]


@pytest.mark.parametrize("workload", sorted(GOLDEN_REPORT))
def test_corpus_report_matches_golden_lines(workload, combined):
    digest = hashlib.sha256()
    for corpus in combined(workload):
        _, results, lattices = zip(*corpus)
        report = corpus_report(results, lattices, (1, 10, 100))
        for line in report.to_tsv_lines() + report.to_key_value_lines():
            digest.update(f"{line}\n".encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_REPORT[workload]


def outcome(search, *args):
    """What a search returns, or the type name and message of the error it raises."""
    try:
        return search(*args)
    except (ContractError, NoPathError) as exc:
        return type(exc).__name__, str(exc)


def exact(path):
    """A path as a value that keeps every float bit (repr keeps -0.0, inf and nan)."""
    if not isinstance(path, PathWitness):
        return path
    return path.rows, repr(path.cost), repr(path.weight.values), path.final_weight


def searched(hiero, params):
    """The shortest path; the prune at budgets n // 2, 26 and n (n the
    state count), as rows and finals; the raw and the unique 10-best."""
    n = hiero.num_states
    pruned = []
    for budget in (n // 2, 26, n):
        m = outcome(prune_to_node_budget, hiero, budget, params)
        pruned.append(m if isinstance(m, tuple)
                      else ([m.rows(s) for s in m.states()], list(m.finals()), m.initial))
    listed = [outcome(nbest, hiero, 10, params, unique) for unique in (False, True)]
    return (exact(outcome(shortest_path, hiero, params)), pruned,
            [got if isinstance(got, tuple) else [exact(p) for p in got] for got in listed])


@pytest.mark.parametrize("workload", sorted(GOLDEN_SEARCHES))
def test_hiero_searches_match_golden_results(workload, combined):
    digest = hashlib.sha256()
    for lam in HIERO_LAMBDAS:
        params = ParamVector(nmt=0.0, hiero=lam, edit=0.0, sub=0.0, ins=0.0)
        for corpus in combined(workload):
            for _, _, hiero in corpus:
                digest.update(repr(searched(hiero, params)).encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_SEARCHES[workload]
