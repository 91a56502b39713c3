#!/usr/bin/env python3
"""Differential check of two source trees of cyanine on the same programs.

    python scripts/differential.py OLD_SRC NEW_SRC [--seeds 5,9,12]
        [--mutants 1500] [--budget 50000]

OLD_SRC and NEW_SRC are `src/` directories, say of the parent commit and of
a change.  The programs are the golden corpus and, per seed, `--mutants`
mutants of it (`tests/test_fuzz.mutants`), both from this checkout.  Each
side compiles and runs every program in a subprocess of its own that
imports cyanine from its own directory, with stdin from the program's
`//! stdin:` lines and a step budget of `--budget`.  The two sides must
agree on each program's exit status, stdout, diagnostics, steps,
evaluations and cache skips, and on any Python exception.  Its cache
misses may fall from OLD_SRC to NEW_SRC but never rise: a send that the
compile step binds is a hit that never misses, so a change that binds more
sends misses less, and all else stays.  Each side's line says how many
programs ran past the compile, how many ended at a diagnostic and how many
raised, and its total of misses.  The first program that differs is
printed with both results, and the exit status is 1; with no difference
it is 0.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# what each side reports per program, in this order
FIELDS = ("status", "stdout", "diagnostics", "steps", "evals", "misses", "skips", "raised")


def programs(seeds, count):
    """[(name, source, stdin)]: the corpus programs, then the mutants of each
    seed, made by this checkout."""
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from cyanine.corpus import parse_directives
    from test_fuzz import CORPUS, mutants
    found = [(path.name, path.read_text(encoding="utf-8"))
             for path in sorted(CORPUS.glob("*.cyan"))]
    for seed in seeds:
        found += [(f"mutant {n} of seed {seed}", src)
                  for n, src in enumerate(mutants(seed, count))]
    return [(name, src, parse_directives(src)[0]) for name, src in found]


def run_side(src_dir, programs_path, budget):
    """Worker: run the programs of `programs_path` with the cyanine of
    `src_dir`, writing one JSON line of FIELDS per program to stdout."""
    sys.path.insert(0, src_dir)
    import cyanine
    from cyanine.driver import compile_program
    from cyanine.interp import Interp
    if not os.path.abspath(cyanine.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        raise SystemExit(f"cyanine was imported from {cyanine.__file__}, not {src_dir}")
    with open(programs_path, encoding="utf-8") as fh:
        todo = json.load(fh)
    for name, src, stdin in todo:
        result = dict.fromkeys(FIELDS)
        try:
            program = compile_program([(name, src)])
            result["diagnostics"] = program.reporter.format_all()
            if program.ok():
                interp = Interp(program, stdin_text=stdin)
                interp.max_steps = budget
                result["status"] = interp.run()
                result["stdout"] = interp.stdout()
                for field in ("steps", "evals", "misses", "skips"):
                    result[field] = getattr(interp, field)
        except Exception as exc:
            result["raised"] = repr(exc)
        sys.stdout.write(json.dumps([result[field] for field in FIELDS]) + "\n")


def run_both(old_src, new_src, todo, budget):
    """Run both sides: the results of each, one per program of `todo`."""
    with tempfile.TemporaryDirectory() as scratch:
        programs_path = os.path.join(scratch, "programs.json")
        with open(programs_path, "w", encoding="utf-8") as fh:
            json.dump(todo, fh)
        outs, procs = [], []
        for side, src_dir in (("old", old_src), ("new", new_src)):
            out = open(os.path.join(scratch, side + ".jsonl"), "w+", encoding="utf-8")
            outs.append(out)
            procs.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--worker", src_dir,
                 programs_path, str(budget)], stdout=out))
        for proc, src_dir in zip(procs, (old_src, new_src)):
            if proc.wait() != 0:
                raise SystemExit(f"the side of {src_dir} failed with status {proc.returncode}")
        results = []
        for out in outs:
            out.seek(0)
            results.append([json.loads(line) for line in out])
            out.close()
    old, new = results
    if len(old) != len(todo) or len(new) != len(todo):
        raise SystemExit(f"the sides answered {len(old)} and {len(new)} of {len(todo)} programs")
    return old, new


def agrees(field, old, new):
    """Whether the new side's value of `field` agrees with the old side's:
    equal, or for `misses` no greater."""
    if field == "misses" and old is not None and new is not None:
        return new <= old
    return old == new


def outcomes(results):
    """How the programs of one side's `results` ended: the text of the
    numbers that ran past the compile, ended at a diagnostic, and raised,
    and of the misses of those that ran."""
    status, raised = FIELDS.index("status"), FIELDS.index("raised")
    ran = sum(result[status] is not None for result in results)
    failed = sum(result[raised] is not None for result in results)
    misses = sum(result[FIELDS.index("misses")] or 0 for result in results)
    return f"{ran} ran past the compile, {len(results) - ran - failed} ended at a diagnostic, " \
        f"{failed} raised, {misses} misses"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", default="5,9,12",
                        help="comma-separated mutant seeds (default 5,9,12)")
    parser.add_argument("--mutants", type=int, default=1500, help="mutants per seed")
    parser.add_argument("--budget", type=int, default=50_000, help="step budget per run")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    todo = programs(seeds, args.mutants)
    old, new = run_both(os.path.abspath(args.old_src), os.path.abspath(args.new_src), todo,
                        args.budget)
    print(f"old: {outcomes(old)}\nnew: {outcomes(new)}")
    found = [i for i, (a, b) in enumerate(zip(old, new))
             if not all(agrees(*values) for values in zip(FIELDS, a, b))]
    if not found:
        print(f"{len(todo)} programs, no difference")
        return 0
    i = found[0]
    old, new = old[i], new[i]
    name, src, _stdin = todo[i]
    print(f"{name} differs:\n{src}")
    for field, a, b in zip(FIELDS, old, new):
        mark = "  " if agrees(field, a, b) else "!="
        print(f"{mark} {field}:\n     old {a!r}\n     new {b!r}")
    return 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        run_side(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main(sys.argv[1:]))
