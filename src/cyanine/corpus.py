"""Golden-corpus runner.

Each corpus file embeds directives in line comments:

    //! stdin: TEXT             (may repeat; joined with newlines)
    //! expect: LINE            (exact stdout lines, in order)
    //! expect-error: SUBSTR    (some diagnostic must contain SUBSTR)
    //! exit: N                 (expected exit status; defaults follow the mode)

Stdout comparison is byte-exact against the joined expect lines.

    python -m cyanine.corpus [DIR] [--time]     (default DIR: corpus/)

prints the per-file report and, with --time, the total wall time.
"""

import os
import sys
import time
from dataclasses import dataclass, field

from .diagnostics import Reporter
from .driver import compile_program
from .interp import Interp


@dataclass
class CaseResult:
    path: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    results: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def summary(self):
        lines = []
        for r in self.results:
            mark = "pass" if r.ok else "FAIL"
            lines.append(f"{mark}  {os.path.basename(r.path)}"
                         + (f"  ({r.detail})" if (r.detail and not r.ok) else ""))
        n_ok = sum(1 for r in self.results if r.ok)
        lines.append(f"{n_ok}/{len(self.results)} passed")
        return "\n".join(lines)


def parse_directives(text):
    stdin_parts = []
    expects = []
    expect_errors = []
    exit_code = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped.startswith("//!"):
            continue
        body = stripped[3:].strip()
        if body.startswith("stdin:"):
            stdin_parts.append(body[len("stdin:"):].strip())
        elif body.startswith("expect-error:"):
            expect_errors.append(body[len("expect-error:"):].strip())
        elif body.startswith("expect:"):
            raw = body[len("expect:"):]
            if raw.startswith(" "):
                raw = raw[1:]      # exactly one separator space; the rest is payload
            expects.append(raw)
        elif body.startswith("exit:"):
            exit_code = int(body[len("exit:"):].strip())
    return "\n".join(stdin_parts), expects, expect_errors, exit_code


def run_case(path, text=None):
    if text is None:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    stdin_text, expects, expect_errors, exit_code = parse_directives(text)
    reporter = Reporter(path)
    program = compile_program([(path, text)], reporter=reporter)
    if expect_errors:
        if exit_code is None:
            exit_code = 1
        if not reporter.has_errors():
            return CaseResult(path, False, "expected a diagnostic, got none")
        blob = reporter.format_all()
        for want in expect_errors:
            if want not in blob:
                return CaseResult(path, False,
                                  f"missing diagnostic {want!r}; got: {blob}")
        return CaseResult(path, True)
    if reporter.has_errors():
        return CaseResult(path, False, "diagnostics: " + reporter.format_all())
    interp = Interp(program, stdin_text=stdin_text)
    status = interp.run()
    out = interp.stdout()
    want_out = "".join(line + "\n" for line in expects)
    if out != want_out:
        return CaseResult(path, False, f"stdout {out!r} != expected {want_out!r}")
    want_status = 0 if exit_code is None else exit_code
    if status != want_status:
        return CaseResult(path, False, f"exit {status} != expected {want_status}")
    return CaseResult(path, True)


def corpus_runner(directory):
    """Run every .cyan file under `directory`; returns a Report."""
    report = Report()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".cyan"):
            path = os.path.join(directory, name)
            try:
                report.results.append(run_case(path))
            except Exception as exc:  # a crash is a failing case, not a crash
                report.results.append(CaseResult(path, False, f"crash: {exc!r}"))
    return report


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = [a for a in argv if not a.startswith("--")]
    directory = args[0] if args else "corpus"
    t0 = time.perf_counter()
    report = corpus_runner(directory)
    elapsed = time.perf_counter() - t0
    print(report.summary())
    if "--time" in argv:
        print(f"total: {elapsed:.2f}s")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
