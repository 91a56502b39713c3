"""Command-line front end: check, run, and dump stages.

    cyanine [run] FILE... [--main NAME] [--check]
            [--dump-tokens|--dump-ast|--dump-desugar|--dump-blocks]
            [--dump-grammar PROTO] [--prelude PATH] [--stdin-file PATH]

Exit status: 0 success, 1 diagnostics, 2 uncaught runtime exception,
64 bad usage.
"""

import argparse
import sys

from .block_analysis import dump_blocks
from .cyast import to_sexpr
from .diagnostics import Reporter
from .driver import compile_program, parse_file
from .interp import Interp
from .lexer import dump_tokens, tokenize


def build_arg_parser():
    ap = argparse.ArgumentParser(prog="cyanine", add_help=True)
    ap.add_argument("sources", nargs="*", help=".cyan source files ('run' may lead)")
    ap.add_argument("--main", default="Program", help="main prototype name")
    ap.add_argument("--check", action="store_true", help="check only, do not run")
    ap.add_argument("--dump-tokens", action="store_true")
    ap.add_argument("--dump-ast", action="store_true")
    ap.add_argument("--dump-desugar", action="store_true")
    ap.add_argument("--dump-blocks", action="store_true")
    ap.add_argument("--dump-grammar", metavar="PROTO")
    ap.add_argument("--prelude", metavar="PATH", help="override the Cyan-source prelude")
    ap.add_argument("--stdin-file", metavar="PATH", help="feed In from a file")
    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        argv = argv[1:]
    ap = build_arg_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit:
        return 64
    if not ns.sources:
        sys.stderr.write("cyanine: no source files given\n")
        return 64
    texts = []
    for path in ns.sources:
        try:
            with open(path, encoding="utf-8") as fh:
                texts.append((path, fh.read()))
        except OSError as exc:
            sys.stderr.write(f"cyanine: cannot read {path}: {exc}\n")
            return 64
    prelude_text = None
    if ns.prelude:
        try:
            with open(ns.prelude, encoding="utf-8") as fh:
                prelude_text = fh.read()
        except OSError as exc:
            sys.stderr.write(f"cyanine: cannot read prelude {ns.prelude}: {exc}\n")
            return 64

    if ns.dump_tokens:
        status = 0
        for path, text in texts:
            rep = Reporter(path)
            tokens, _ = tokenize(text, rep)
            sys.stdout.write(dump_tokens(tokens) + "\n")
            if rep.has_errors():
                sys.stderr.write(rep.format_all() + "\n")
                status = 1
        return status
    if ns.dump_ast:
        status = 0
        for path, text in texts:
            rep = Reporter(path)
            cu = parse_file(text, path, rep)
            sys.stdout.write(to_sexpr(cu) + "\n")
            if rep.has_errors():
                sys.stderr.write(rep.format_all() + "\n")
                status = 1
        return status

    program = compile_program(texts, main_name=ns.main, prelude_text=prelude_text)
    reporter = program.reporter
    dumping = ns.dump_desugar or ns.dump_blocks or ns.dump_grammar
    if ns.dump_desugar:
        for unit in program.units:
            from .cyast import pp_unit
            sys.stdout.write(pp_unit(unit) + "\n\n")
    if ns.dump_blocks:
        for (proto, _mid), infos in sorted(program.block_infos.items()):
            if infos:
                sys.stdout.write(f"-- {proto}\n")
                sys.stdout.write(dump_blocks(infos) + "\n")
    if ns.dump_grammar:
        entry = program.table.get(ns.dump_grammar)
        if entry is None:
            sys.stderr.write(f"cyanine: no prototype '{ns.dump_grammar}'\n")
            return 1
        for m in entry.methods:
            if m.kind == "grammar":
                derived = m.derived
                if derived is None:
                    from .grammar_methods import derive_parameter_type
                    derived = derive_parameter_type(m.regex).canonical()
                sys.stdout.write(f"{m.name}\n  derived: {derived}\n"
                                 f"  automaton states: {m.automaton.n_states}\n")
    if reporter.has_errors():
        sys.stderr.write(reporter.format_all() + "\n")
        return 1
    for d in reporter.sorted():
        if d.severity == "warning":
            sys.stderr.write(d.format() + "\n")
    if ns.check or dumping:
        return 0

    stdin_text, stdin = "", None
    if ns.stdin_file:
        try:
            with open(ns.stdin_file, encoding="utf-8") as fh:
                stdin_text = fh.read()
        except OSError as exc:
            sys.stderr.write(f"cyanine: cannot read {ns.stdin_file}: {exc}\n")
            return 64
    elif not sys.stdin.isatty():
        stdin = sys.stdin
    interp = Interp(program, stdin_text=stdin_text, stdin=stdin)
    status = interp.run()
    sys.stdout.write(interp.stdout())
    return status


if __name__ == "__main__":
    sys.exit(main())
