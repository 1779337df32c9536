"""Seeded input generators for the three benchmark workloads.

Each generator returns a :class:`Corpus` of plain Python data (word
labels, float scores), so the reference checker can work on the inputs
without going through the program's own parsers.  :func:`write_corpus`
writes the text files the program reads: a ``word<TAB>id`` symbol table,
the NMT vocabulary, the parameter file and one ``<id>.nmt.fst`` /
``<id>.hiero.fst`` pair per sentence.

Every sentence starts from a reference word sequence.  The NMT lattice
follows it with a little noise and writes ``UNK`` wherever the
reference word lies outside the NMT vocabulary; the hiero lattice offers
the reference word among alternatives at each position.  That is the
situation the combination exists for: hiero fills the NMT placeholders.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

UNK_WORD = "UNK"


@dataclass(frozen=True)
class Lattice:
    """Acyclic acceptor: state 0 is initial, arcs are (src, dst, word, score)."""

    num_states: int
    arcs: tuple[tuple[int, int, str, float], ...]
    finals: tuple[int, ...]


@dataclass(frozen=True)
class Sentence:
    sid: str
    nmt: Lattice
    hiero: Lattice


@dataclass(frozen=True)
class Corpus:
    words: tuple[str, ...]          # every word, in symbol-table order
    vocab: tuple[str, ...]          # NMT vocabulary
    params: dict                    # lambda_* plus max_unk_run, hiero_node_budget
    shape: dict                     # generator parameters, recorded with the result
    sentences: tuple[Sentence, ...]
    report_ns: tuple[int, ...] = ()  # n values of the corpus report; empty: no report


def _sausage(slots: list[list[str]], rng: random.Random) -> Lattice:
    """Linear lattice with one state per slot boundary and one arc per word."""
    arcs = []
    for i, words in enumerate(slots):
        for word in words:
            arcs.append((i, i + 1, word, rng.uniform(0.0, 2.0)))
    return Lattice(num_states=len(slots) + 1, arcs=tuple(arcs), finals=(len(slots),))


def _reference(length: int, unks: int, vocab: list[str], oov: list[str],
               rng: random.Random) -> tuple[list[str], set[int]]:
    """Reference words: ``unks`` random positions hold OOV words, the rest vocab words."""
    unk_positions = set(rng.sample(range(length), unks))
    words = [rng.choice(oov if i in unk_positions else vocab) for i in range(length)]
    return words, unk_positions


def _nmt_slots(reference: list[str], unk_positions: set[int], vocab: list[str],
               rng: random.Random, branching_slots: int) -> list[list[str]]:
    """NMT hypotheses: the reference with UNK at OOV positions, a few 2-way slots.

    One in five other words is replaced by a random vocabulary word.
    """
    slots = []
    for i, word in enumerate(reference):
        if i in unk_positions:
            slots.append([UNK_WORD])
        else:
            slots.append([rng.choice(vocab) if rng.random() < 0.2 else word])
    for i in rng.sample(range(len(slots)), branching_slots):
        other = rng.choice(vocab)
        while other in slots[i]:
            other = rng.choice(vocab)
        slots[i].append(other)
    return slots


def _alternatives(word: str, pool: list[str], k: int, rng: random.Random) -> list[str]:
    """``word`` plus k - 1 distinct other words from ``pool``, shuffled."""
    alts = {word}
    while len(alts) < k:
        alts.add(rng.choice(pool))
    out = sorted(alts)
    rng.shuffle(out)
    return out


def _vocab_split(pool: list[str], vocab_size: int, rng: random.Random) -> tuple[list[str], list[str]]:
    vocab = set(rng.sample(pool, vocab_size))
    return sorted(vocab), [w for w in pool if w not in vocab]


def _params(budget: int) -> dict:
    return dict(lambda_nmt=1.0, lambda_hiero=1.0, lambda_sub=1.0, lambda_edit=3.0,
                lambda_ins=0.5, max_unk_run=3, hiero_node_budget=budget)


def _stats_corpus(seed: int) -> Corpus:
    shape = SHAPES["stats-corpus"]
    rng = random.Random(seed)
    pool = [f"t{i:02d}" for i in range(shape["pool_words"])]
    vocab, oov = _vocab_split(pool, shape["vocab_words"], rng)
    sentences = []
    for n in range(shape["sentences"]):
        branching = list(shape["hiero_branching"])
        rng.shuffle(branching)
        reference = [rng.choice(vocab) for _ in branching]
        unk = rng.randrange(shape["nmt_slots"])
        reference[unk] = rng.choice(oov)
        nmt_slots = _nmt_slots(reference[:shape["nmt_slots"]], {unk}, vocab, rng,
                               branching_slots=2)
        hiero_slots = [_alternatives(w, pool, k, rng) for w, k in zip(reference, branching)]
        sentences.append(Sentence(f"{n:04d}", _sausage(nmt_slots, rng), _sausage(hiero_slots, rng)))
    return Corpus(tuple(pool), tuple(vocab), _params(100_000), shape,
                  tuple(sentences), report_ns=(1, 10, 100))


def _wide_alphabet(seed: int) -> Corpus:
    shape = SHAPES["wide-alphabet"]
    rng = random.Random(seed)
    pool = [f"w{i:04d}" for i in range(shape["pool_words"])]
    vocab, oov = _vocab_split(pool, shape["vocab_words"], rng)
    sentences = []
    for n in range(shape["sentences"]):
        reference, unk_positions = _reference(shape["slots"], shape["unks"], vocab, oov, rng)
        nmt_slots = _nmt_slots(reference, unk_positions, vocab, rng, branching_slots=2)
        hiero_slots = [_alternatives(w, pool, rng.randint(*shape["alternatives"]), rng)
                       for w in reference]
        sentences.append(Sentence(f"{n:04d}", _sausage(nmt_slots, rng), _sausage(hiero_slots, rng)))
    return Corpus(tuple(pool), tuple(vocab), _params(100_000), shape,
                  tuple(sentences))


def _layered(reference: list[str], pool: list[str], width: int, degree: int,
             rng: random.Random) -> Lattice:
    """Column lattice: ``width`` states per inner column, ``degree`` arcs per state.

    Column c holds the states reached after c words; arcs from column c
    carry alternatives for reference word c.  Every state of the next
    column gets an incoming arc before the remaining arcs pick targets
    at random, so the lattice is trim.
    """
    length = len(reference)
    columns = []
    next_state = 0
    for c in range(length + 1):
        size = 1 if c in (0, length) else min(width, degree ** c)
        columns.append(list(range(next_state, next_state + size)))
        next_state += size
    arcs = []
    for c in range(length):
        targets = columns[c + 1]
        alternatives = _alternatives(reference[c], pool, degree + 1, rng)
        uncovered = list(targets)
        rng.shuffle(uncovered)
        for src in columns[c]:
            chosen: list[int] = []
            while uncovered and len(chosen) < degree:
                chosen.append(uncovered.pop())
            while len(chosen) < degree:
                chosen.append(rng.choice(targets))
            words = rng.sample(alternatives, degree)
            for dst, word in zip(chosen, words):
                arcs.append((src, dst, word, rng.uniform(0.0, 2.0)))
    return Lattice(num_states=next_state, arcs=tuple(arcs), finals=(next_state - 1,))


def _deep_hiero(seed: int) -> Corpus:
    shape = SHAPES["deep-hiero"]
    rng = random.Random(seed)
    pool = [f"d{i:02d}" for i in range(shape["pool_words"])]
    vocab, oov = _vocab_split(pool, shape["vocab_words"], rng)
    sentences = []
    for n in range(shape["sentences"]):
        reference, unk_positions = _reference(shape["length"], shape["unks"], vocab, oov, rng)
        nmt_slots = _nmt_slots(reference, unk_positions, vocab, rng, branching_slots=3)
        hiero = _layered(reference, pool, shape["width"], shape["degree"], rng)
        sentences.append(Sentence(f"{n:04d}", _sausage(nmt_slots, rng), hiero))
    return Corpus(tuple(pool), tuple(vocab),
                  _params(shape["hiero_node_budget"]), shape, tuple(sentences))


# Sizes are set by the benchmark's time budget: a 30-second run has to
# time every one of at least 100 sentences several times, because a
# sentence's latency is taken as its fastest run (see run.py).
SHAPES = {
    "stats-corpus": dict(sentences=150, pool_words=20, vocab_words=12, nmt_slots=5,
                         hiero_branching=(1, 1, 1, 1, 2, 2, 3)),
    "wide-alphabet": dict(sentences=100, pool_words=4000, vocab_words=2000, slots=3,
                          alternatives=(18, 22), unks=1),
    "deep-hiero": dict(sentences=100, pool_words=12, vocab_words=9, length=5, width=12, degree=3,
                       unks=1, hiero_node_budget=26),
}

GENERATORS = {
    "stats-corpus": _stats_corpus,
    "wide-alphabet": _wide_alphabet,
    "deep-hiero": _deep_hiero,
}


def generate(workload: str, seed: int) -> Corpus:
    return GENERATORS[workload](seed)


def _lattice_text(lattice: Lattice, label: dict[str, int], feature: int) -> str:
    lines = [f"{src} {dst} {label[word]} {label[word]} {feature}:{score!r}"
             for src, dst, word, score in lattice.arcs]
    lines.extend(str(s) for s in lattice.finals)
    return "\n".join(lines) + "\n"


def write_corpus(corpus: Corpus, root: str) -> None:
    """Write the files the program reads; ``root`` must not exist yet."""
    os.makedirs(os.path.join(root, "nmt"))
    os.makedirs(os.path.join(root, "hiero"))
    label = {"<eps>": 0, UNK_WORD: 1}
    for word in corpus.words:
        label[word] = len(label)
    with open(os.path.join(root, "words.sym"), "w", encoding="utf-8") as f:
        f.writelines(f"{word}\t{lab}\n" for word, lab in label.items())
    with open(os.path.join(root, "vocab.txt"), "w", encoding="utf-8") as f:
        f.writelines(f"{word}\n" for word in corpus.vocab)
    with open(os.path.join(root, "params.cfg"), "w", encoding="utf-8") as f:
        f.writelines(f"{key}={value}\n" for key, value in corpus.params.items())
    if corpus.report_ns:
        with open(os.path.join(root, "report_ns.txt"), "w", encoding="utf-8") as f:
            f.write(" ".join(map(str, corpus.report_ns)) + "\n")
    for s in corpus.sentences:
        with open(os.path.join(root, "nmt", f"{s.sid}.nmt.fst"), "w", encoding="utf-8") as f:
            f.write(_lattice_text(s.nmt, label, 0))
        with open(os.path.join(root, "hiero", f"{s.sid}.hiero.fst"), "w", encoding="utf-8") as f:
            f.write(_lattice_text(s.hiero, label, 1))
