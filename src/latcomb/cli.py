"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or contract error, 3 the
combination (or search) found no path.  All behavior is deterministic
given the input files.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import algorithms, lattice_io, oracle, pipeline
from .editfst import build_modified_edit_fst, build_standard_edit_fst
from .errors import ContractError, LatcombError, NoPathError
from .fst import SymbolTable, validate


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latcomb",
                     description="Combine NMT and hiero translation lattices "
                                 "through an edit-distance transducer.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_symtab(p: argparse.ArgumentParser) -> None:
        p.add_argument("--symtab", required=True, help="word<TAB>id symbol table file")

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--params", required=True, help="key=value combination parameters")

    p = sub.add_parser("combine", help="run the lattice combination")
    p.add_argument("--nmt-lattice", required=True,
                   help="NMT lattice file, or a directory of <id>.nmt.fst files")
    p.add_argument("--hiero-lattice", required=True,
                   help="hiero lattice file, or a directory of <id>.hiero.fst files")
    p.add_argument("--vocab", required=True, help="NMT vocabulary, one word per line")
    add_params(p)
    add_symtab(p)
    p.add_argument("--report", help="write a key=value report to this file")
    p.add_argument("--nbest-ns", default="1,10,100",
                   help="comma-separated n values for the corpus report membership curve")

    p = sub.add_parser("oracle-combine", help="brute-force reference combination")
    p.add_argument("--nmt-lattice", required=True)
    p.add_argument("--hiero-lattice", required=True)
    p.add_argument("--vocab", required=True)
    add_params(p)
    add_symtab(p)
    p.add_argument("--report", help="write a key=value report to this file")
    p.add_argument("--max-paths", type=int, default=oracle.DEFAULT_PATH_LIMIT,
                   help="enumeration limit per lattice")

    p = sub.add_parser("build-edit-fst", help="emit an edit-distance flower transducer")
    p.add_argument("--vocab", required=True, help="NMT vocabulary, one word per line")
    p.add_argument("--alphabet", help="additional alphabet words, one per line")
    p.add_argument("--standard", action="store_true",
                   help="uniform costs without UNK typing")
    p.add_argument("--output", required=True, help="lattice file to write")
    p.add_argument("--write-symtab", help="also write the symbol table here")

    p = sub.add_parser("compose", help="compose two machines")
    p.add_argument("first")
    p.add_argument("second")
    add_symtab(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("shortest-path", help="print the cheapest path")
    p.add_argument("lattice")
    add_symtab(p)
    add_params(p)
    p.add_argument("--side", choices=("input", "output", "unk-filled"), default="input",
                   help="which label sequence to print")
    p.add_argument("--show-cost", action="store_true", help="prefix the line with the cost")

    p = sub.add_parser("nbest", help="print the n cheapest paths")
    p.add_argument("lattice")
    p.add_argument("n", type=int)
    add_symtab(p)
    add_params(p)
    p.add_argument("--unique", action="store_true", help="collapse equal output strings")

    p = sub.add_parser("prune", help="prune an acyclic machine to a state budget")
    p.add_argument("lattice")
    add_symtab(p)
    add_params(p)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("stats", help="corpus-level report over paired lattice directories")
    p.add_argument("--nmt-dir", required=True)
    p.add_argument("--hiero-dir", required=True)
    p.add_argument("--vocab", required=True)
    add_params(p)
    add_symtab(p)
    p.add_argument("--nbest-ns", default="1,10,100")
    p.add_argument("--output", help="write the TSV here instead of stdout")

    p = sub.add_parser("validate", help="check a lattice file against its contract")
    p.add_argument("lattice")
    add_symtab(p)
    p.add_argument("--kind", choices=("nmt", "hiero", "generic"), default="generic")
    return parser


def _parse_ns(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ContractError(f"--nbest-ns must be comma-separated integers, got {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise ContractError("--nbest-ns values must be positive")
    return values


def _load_combination_inputs(args) -> tuple[SymbolTable, "pipeline.CombinationParams"]:
    table = lattice_io.read_symtab(args.symtab)
    vocab = lattice_io.read_vocab(args.vocab, table)
    params = lattice_io.read_params(args.params).with_vocab(vocab)
    return table, params


def _combine_corpus(nmt_dir: str, hiero_dir: str, table: SymbolTable,
                    params: "pipeline.CombinationParams"):
    """Yield (result, hiero lattice) for each paired sentence, in stem order."""
    for stem, nmt_path, hiero_path in lattice_io.paired_corpus_files(nmt_dir, hiero_dir):
        nmt = lattice_io.read_lattice(nmt_path, table, kind="nmt")
        hiero = lattice_io.read_lattice(hiero_path, table, kind="hiero")
        yield pipeline.combine(nmt, hiero, params, source_id=stem), hiero


def _cmd_combine(args) -> int:
    table, params = _load_combination_inputs(args)
    if os.path.isdir(args.nmt_lattice):
        if not os.path.isdir(args.hiero_lattice):
            raise ContractError("--nmt-lattice is a directory, so --hiero-lattice must be one too")
        results = []
        hiero_lattices = []
        for result, hiero in _combine_corpus(args.nmt_lattice, args.hiero_lattice, table, params):
            results.append(result)
            hiero_lattices.append(hiero)
            print(f"{result.source_id}\t{' '.join(result.t_comb)}")
        if args.report:
            report = pipeline.corpus_report(results, hiero_lattices, _parse_ns(args.nbest_ns))
            lattice_io.write_report_lines(report.to_key_value_lines(), args.report)
        return 0

    nmt = lattice_io.read_lattice(args.nmt_lattice, table, kind="nmt")
    hiero = lattice_io.read_lattice(args.hiero_lattice, table, kind="hiero")
    result = pipeline.combine(nmt, hiero, params)
    print(" ".join(result.t_comb))
    if args.report:
        lattice_io.write_report_lines(result.to_key_value_lines(), args.report)
    return 0


def _cmd_oracle_combine(args) -> int:
    table, params = _load_combination_inputs(args)
    nmt = lattice_io.read_lattice(args.nmt_lattice, table, kind="nmt")
    hiero = lattice_io.read_lattice(args.hiero_lattice, table, kind="hiero")
    vocab_words = {table.word(label) for label in params.nmt_vocab}
    result = oracle.brute_force_combine(
        nmt, hiero,
        vocab=vocab_words,
        nmt_scale=params.lambda_nmt, hiero_scale=params.lambda_hiero,
        sub_cost=params.lambda_sub, edit_cost=params.lambda_edit, ins_cost=params.lambda_ins,
        max_unk_run=params.max_unk_run, max_paths=args.max_paths)
    print(" ".join(result.combined_tokens))
    if args.report:
        lines = [
            f"t_comb={' '.join(result.combined_tokens)}",
            f"t_nmt={' '.join(result.nmt_tokens)}",
            f"t_hiero={' '.join(result.hiero_tokens)}",
            f"total_cost={result.cost:.10g}",
        ]
        lattice_io.write_report_lines(lines, args.report)
    return 0


def _cmd_build_edit_fst(args) -> int:
    table = SymbolTable()
    vocab = lattice_io.read_vocab(args.vocab, table)
    alphabet = set(vocab)
    if args.alphabet:
        alphabet.update(table.add(line) for _, line in lattice_io.data_lines(args.alphabet))
    if args.standard:
        flower = build_standard_edit_fst(alphabet, table)
    else:
        flower = build_modified_edit_fst(alphabet, vocab, table)
    lattice_io.write_lattice(flower, args.output)
    if args.write_symtab:
        lattice_io.write_symtab(table, args.write_symtab)
    return 0


def _cmd_compose(args) -> int:
    table = lattice_io.read_symtab(args.symtab)
    first = lattice_io.read_lattice(args.first, table, kind="generic")
    second = lattice_io.read_lattice(args.second, table, kind="generic")
    lattice_io.write_lattice(algorithms.compose(first, second), args.output)
    return 0


def _cmd_shortest_path(args) -> int:
    table = lattice_io.read_symtab(args.symtab)
    params = lattice_io.read_params(args.params)
    fst = lattice_io.read_lattice(args.lattice, table, kind="generic")
    path = algorithms.shortest_path(fst, params.as_param_vector())
    labels = {"input": path.input_labels, "output": path.output_labels,
              "unk-filled": path.unk_filled_labels}[args.side]()
    sentence = " ".join(table.word(l) for l in labels)
    print(f"{path.cost:.10g}\t{sentence}" if args.show_cost else sentence)
    return 0


def _cmd_nbest(args) -> int:
    table = lattice_io.read_symtab(args.symtab)
    params = lattice_io.read_params(args.params)
    fst = lattice_io.read_lattice(args.lattice, table, kind="generic")
    for path in algorithms.nbest(fst, args.n, params.as_param_vector(), unique=args.unique):
        sentence = " ".join(table.word(l) for l in path.output_labels())
        print(f"{path.cost:.10g}\t{sentence}")
    return 0


def _cmd_prune(args) -> int:
    table = lattice_io.read_symtab(args.symtab)
    params = lattice_io.read_params(args.params)
    fst = lattice_io.read_lattice(args.lattice, table, kind="generic")
    pruned = algorithms.prune_to_node_budget(fst, args.budget, params.as_param_vector())
    lattice_io.write_lattice(pruned, args.output)
    return 0


def _cmd_stats(args) -> int:
    table, params = _load_combination_inputs(args)
    # paired_corpus_files raises on an empty directory, so there is a pair.
    results, hiero_lattices = zip(*_combine_corpus(args.nmt_dir, args.hiero_dir, table, params))
    report = pipeline.corpus_report(results, hiero_lattices, _parse_ns(args.nbest_ns))
    lines = report.to_tsv_lines()
    if args.output:
        lattice_io.write_report_lines(lines, args.output)
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_validate(args) -> int:
    table = lattice_io.read_symtab(args.symtab)
    fst = lattice_io.read_lattice(args.lattice, table, kind="generic")
    report = validate(fst, kind=args.kind)
    for line in report.lines():
        print(line)
    if report.ok:
        print("ok")
        return 0
    return 2


_COMMANDS = {
    "combine": _cmd_combine,
    "oracle-combine": _cmd_oracle_combine,
    "build-edit-fst": _cmd_build_edit_fst,
    "compose": _cmd_compose,
    "shortest-path": _cmd_shortest_path,
    "nbest": _cmd_nbest,
    "prune": _cmd_prune,
    "stats": _cmd_stats,
    "validate": _cmd_validate,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except NoPathError as exc:
        print(f"no path: {exc}", file=sys.stderr)
        return 3
    except LatcombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
