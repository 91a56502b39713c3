"""Workloads of the benchmark: the Cyan programs, their seeded inputs, the
references their results are checked against, and one measured pass.

No reference comes from cyanine itself.  Corpus programs carry hand-written
`//!` directives; the generated programs are checked against Python oracles
computed over the same inputs.  A program receives only its generated input,
through `stdin_text`.
"""

import gc
import hashlib
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus")
PROGRAMS = os.path.join(HERE, "programs")

# interpreter recursion follows Cyan call depth; the CLI raises the limit alike
RECURSION_LIMIT = 30000

WORKLOADS = ("corpus", "sends", "dispatch")
DISPATCH_OPS_PER_KIND = 500
MOD = 1000003


def bootstrap():
    """Put the checkout's `src/` first on the import path and import cyanine.

    Returns the modules the benchmark calls.  Exits with status 2, printing
    no result, when the checkout holds no cyanine sources."""
    if not os.path.isfile(os.path.join(SRC, "cyanine", "__init__.py")):
        sys.stderr.write(f"perfbench: no cyanine sources under {SRC}\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    sys.setrecursionlimit(RECURSION_LIMIT)
    from cyanine import diagnostics, driver, interp
    return diagnostics, driver, interp


@dataclass
class Case:
    name: str
    source: str
    stdin: str
    stdout: str              # expected stdout, byte-exact
    status: int              # expected exit status
    errors: tuple = ()       # a rejected program: each must appear in the diagnostics

    def verdict(self, status, stdout, diagnostics):
        """None when the result matches the reference, else the reason."""
        if self.errors:
            missing = [e for e in self.errors if e not in diagnostics]
            if status != 1 or missing:
                return f"expected diagnostics {missing or list(self.errors)!r}, got {diagnostics!r}"
            return None
        if stdout != self.stdout:
            return f"stdout {stdout!r} != expected {self.stdout!r}"
        if status != self.status:
            return f"exit {status} != expected {self.status}"
        return None


def _lines(values):
    return "".join(f"{v}\n" for v in values)


# -- corpus: the golden programs, in a seeded order ---------------------------------

def parse_directives(text):
    """The `//!` directives, read by the rules of the corpus runner: stdin
    lines joined by newlines, exact expect lines (one separator space
    dropped), diagnostic substrings, and an optional exit status."""
    stdin, expects, errors, exit_code = [], [], [], None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped.startswith("//!"):
            continue
        body = stripped[3:].strip()
        if body.startswith("stdin:"):
            stdin.append(body[len("stdin:"):].strip())
        elif body.startswith("expect-error:"):
            errors.append(body[len("expect-error:"):].strip())
        elif body.startswith("expect:"):
            raw = body[len("expect:"):]
            expects.append(raw[1:] if raw.startswith(" ") else raw)
        elif body.startswith("exit:"):
            exit_code = int(body[len("exit:"):].strip())
    return "\n".join(stdin), expects, errors, exit_code


def corpus_cases(seed):
    names = sorted(n for n in os.listdir(CORPUS) if n.endswith(".cyan"))
    cases = []
    for name in names:
        with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
            text = fh.read()
        stdin, expects, errors, exit_code = parse_directives(text)
        default = 1 if errors else 0
        cases.append(Case(name, text, stdin, _lines(expects),
                          default if exit_code is None else exit_code, tuple(errors)))
    random.Random(seed).shuffle(cases)
    return cases


# -- sends: fib: 18, then a 20,000-step whileTrue: sum --------------------------------

def _read_program(name):
    with open(os.path.join(PROGRAMS, name), encoding="utf-8") as fh:
        return fh.read()


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def sends_cases(seed):
    rng = random.Random(seed)
    start, modulus = rng.randrange(1_000_000), rng.randrange(2, 1000)
    total = start + sum(range(20000))
    expected = _lines([_fib(18), total, total % modulus])
    return [Case("sends.cyan", _read_program("sends.cyan"), f"{start} {modulus}\n",
                 expected, 0)]


# -- dispatch: multimethods, a grammar method, EHS catch objects, dynamic mixins -------

def dispatch_ops(seed):
    """Operations `(kind, p, x, y, z)`: the same number of each kind, in a
    seeded order, with seeded operands."""
    rng = random.Random(seed)
    kinds = [k for k in range(4) for _ in range(DISPATCH_OPS_PER_KIND)]
    rng.shuffle(kinds)
    ops = []
    for k in kinds:
        if k == 0:      # animal eat: food
            ops.append((0, rng.randrange(3), rng.randrange(4), 0, 0))
        elif k == 1:    # EnergyStore add: ... (three call shapes)
            ops.append((1, rng.randrange(3), rng.randrange(1000), rng.randrange(1000),
                        rng.randrange(1000)))
        elif k == 2:    # process: n under catch objects
            n = rng.choice((0, rng.randint(-1000, -1), rng.randint(1, 5000)))
            ops.append((2, 0, n, 0, 0))
        else:           # attachMixin: Shade, draw:, popMixin, draw:
            ops.append((3, 0, rng.randrange(1000), rng.randrange(1000), 0))
    return ops


# the method each animal finds for each food, in textual order:
# Animal eat: Food -> 1, Cow eat: Grass -> 2, Fish eat: FishMeat -> 3, Fish eat: Plant -> 4
_EAT = {0: (1, 1, 1, 1), 1: (1, 2, 1, 1), 2: (1, 1, 3, 4)}


def _caught(n):
    """The Tally code of `process: n`: 0 nothing thrown, 1 zero, 2 big,
    3 negative, 4 even."""
    if n == 0:
        return 1
    if n < 0:
        return 3
    if n % 2 == 0:
        return 4
    return 2 if n > 1000 else 0


def dispatch_oracle(ops):
    eat = energy = tally = mixin = 0
    for k, p, x, y, z in ops:
        if k == 0:
            eat = (eat * 7 + _EAT[p][x]) % MOD
        elif k == 1:
            energy += (3600 * x + 4 * y + z, x, 4 * x + 3600 * y)[p]
        elif k == 2:
            tally = (tally * 7 + _caught(x)) % MOD
        else:
            mixin = (mixin + (x + 1) * 2) % MOD
            mixin = (mixin + y + 1) % MOD
    return _lines([eat, energy, tally, mixin])


def dispatch_cases(seed):
    ops = dispatch_ops(seed)
    stdin = f"{len(ops)}\n" + "".join(" ".join(map(str, op)) + "\n" for op in ops)
    return [Case("dispatch.cyan", _read_program("dispatch.cyan"), stdin,
                 dispatch_oracle(ops), 0)]


def make_cases(workload, seed):
    return {"corpus": corpus_cases, "sends": sends_cases,
            "dispatch": dispatch_cases}[workload](seed)


# -- one pass: compile and run every program, each with a fresh Program ---------------

def compile_times(cases, modules):
    """Compile every case once more and drop the Programs; the times in ms."""
    diagnostics, driver, _interp_mod = modules
    times = []
    for case in cases:
        gc.collect()
        t0 = time.perf_counter()
        driver.compile_program([(case.name, case.source)],
                               reporter=diagnostics.Reporter(case.name))
        times.append((time.perf_counter() - t0) * 1e3)
    return times


@dataclass
class PassResult:
    programs: int
    wall_s: float
    compile_ms: list
    run_ms: list
    sends: int
    failures: list
    digest: str          # sha256 over every program's status, stdout and diagnostics


def run_pass(cases, modules, on_interp=None):
    """Compile and run each case once, as the CLI does: a new Program and a
    new Interp per case.  `modules` is what `bootstrap` returned; callers
    look functions up through it at call time, so a tracer's wrappers apply.
    `on_interp` sees each Interp before it runs.

    The collector runs, untimed, before each program, so that every program
    starts from the same heap; the pass's wall time is the sum of the
    programs' times from compile to stdout."""
    diagnostics, driver, interp_mod = modules
    compile_ms, run_ms, failures = [], [], []
    sends = 0
    wall = 0.0
    digest = hashlib.sha256()
    for case in cases:
        gc.collect()
        try:
            t0 = time.perf_counter()
            reporter = diagnostics.Reporter(case.name)
            program = driver.compile_program([(case.name, case.source)], reporter=reporter)
            t1 = time.perf_counter()
            stdout, diag = "", reporter.format_all()
            if reporter.has_errors():
                status = 1
            else:
                interp = interp_mod.Interp(program, stdin_text=case.stdin)
                if on_interp is not None:
                    on_interp(interp)
                t2 = time.perf_counter()
                status = interp.run()
                run_ms.append((time.perf_counter() - t2) * 1e3)
                stdout = interp.stdout()
                sends += interp.steps
            wall += time.perf_counter() - t0
            compile_ms.append((t1 - t0) * 1e3)
        except Exception:   # a crash is a failed program, not a failed benchmark
            failures.append(f"{case.name}: {traceback.format_exc()}")
            continue
        digest.update(f"{case.name}\0{status}\0{stdout}\0{diag}\0".encode())
        reason = case.verdict(status, stdout, diag)
        if reason is not None:
            failures.append(f"{case.name}: {reason}")
    return PassResult(len(cases), wall, compile_ms, run_ms, sends, failures, digest.hexdigest())
