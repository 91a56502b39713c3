"""Every input ends within bounded steps and nesting, and the CLI never
waits on input a program does not read."""

import json
import subprocess
import sys

import pytest

from conftest import compile_src
from cyanine.interp import Interp
from cyanine.parser import MAX_NESTING


def program(body):
    return f'''package main
public object Program
    public fun run [
        {body}
    ]
end
'''


@pytest.mark.parametrize("body", [
    "[^true] whileTrue: [ ];",
    "[^false] whileFalse: [ ];",
    "[ ] repeatUntil: [^false];",
    "[ throw: CyException; ] catch: CatchAll retry: [ ];",
    "[ throw: CyException; ] retry;",
    "[ ] loop;",
    "while (true) [ ];",
])
def test_step_budget_ends_every_loop(body):
    prog = compile_src(program(body))
    assert prog.ok(), prog.reporter.format_all()
    interp = Interp(prog)
    interp.max_steps = 1000
    assert interp.run() == 2
    assert interp.stdout() == "step budget of 1000 exhausted\n  at Program::run\n"


def test_step_budget_cannot_be_caught():
    prog = compile_src(program(
        "[ [^true] whileTrue: [ ]; ] catch: CatchAll retry: [ Out println: \"again\"; ];"))
    interp = Interp(prog)
    interp.max_steps = 1000
    assert interp.run() == 2
    assert "again" not in interp.stdout()


def nested(kind, depth):
    if kind == "parens":
        return program("Out println: " + "(" * depth + "1" + ")" * depth + ";")
    return program(":b = " + "[ " * depth + "] " * depth + "; Out println: 1;")


# the deepest nesting the parser allows, and the deepest that compiled
# through the CLI before the limit existed
DEEPEST = {"parens": MAX_NESTING - 2, "blocks": MAX_NESTING // 2 - 1}
BEFORE_THE_LIMIT = {"parens": 69, "blocks": 57}


@pytest.mark.parametrize("kind", ["parens", "blocks"])
def test_nesting_limit_through_compile_program(kind):
    for depth in (BEFORE_THE_LIMIT[kind], DEEPEST[kind]):
        prog = compile_src(nested(kind, depth))
        assert prog.ok(), (depth, prog.reporter.format_all())
    prog = compile_src(nested(kind, 400))
    errors = prog.reporter.errors
    assert len(errors) == 1
    assert errors[0].line == 4 and errors[0].col > 1
    assert f"nest deeper than {MAX_NESTING} levels" in errors[0].message


# compiles and runs the sources it reads, in a fresh interpreter: at Python's
# default recursion limit, which conftest raises for the tests in this process
LIBRARY_CALLER = """
import json, sys
assert sys.getrecursionlimit() == 1000
from cyanine.driver import compile_program
from cyanine.interp import Interp
*deep, recursive = json.load(sys.stdin)
for source in deep:
    print([d.message for d in compile_program([("<test>", source)]).reporter.errors])
interp = Interp(compile_program([("<test>", recursive)]))
print(interp.run(), interp.stdout().splitlines()[0])
"""

RECURSIVE = """package main
public object Program
    public fun f: (:n Int) -> Int [ return self f: n + 1; ]
    public fun run [ Out println: (self f: 1); ]
end
"""


def test_library_callers_need_not_raise_the_recursion_limit():
    sources = [nested("parens", 200), nested("parens", 300), RECURSIVE]
    proc = subprocess.run([sys.executable, "-c", LIBRARY_CALLER], input=json.dumps(sources),
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "[]",
        f"['expressions and blocks nest deeper than {MAX_NESTING} levels']",
        "2 uncaught exception: StrException",
    ]


def run_cli(args, stdin=subprocess.DEVNULL):
    proc = subprocess.run([sys.executable, "-m", "cyanine.cli"] + args, stdin=stdin,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("kind", ["parens", "blocks"])
def test_nesting_limit_through_the_cli(tmp_path, kind):
    for depth in (BEFORE_THE_LIMIT[kind], DEEPEST[kind]):
        path = tmp_path / f"ok{depth}.cyan"
        path.write_text(nested(kind, depth))
        assert run_cli(["run", str(path)]) == (0, "1\n", "")
    path = tmp_path / "deep.cyan"
    path.write_text(nested(kind, 400))
    code, out, err = run_cli(["--check", str(path)])
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{path}:4:")
    assert f"error: expressions and blocks nest deeper than {MAX_NESTING} levels" in lines[0]


def test_cli_does_not_wait_for_unread_stdin(tmp_path):
    path = tmp_path / "hello.cyan"
    path.write_text(program('Out println: "hello";'))
    proc = subprocess.Popen([sys.executable, "-m", "cyanine.cli", "run", str(path)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert proc.wait(timeout=60) == 0      # the stdin pipe stays open
        assert proc.stdout.read() == "hello\n"
    finally:
        proc.kill()
        proc.stdin.close()
        proc.stdout.close()


def test_cli_reads_stdin_on_first_use(tmp_path):
    path = tmp_path / "echo.cyan"
    path.write_text(program("Out println: (In readInt) + (In readInt);"))
    proc = subprocess.run([sys.executable, "-m", "cyanine.cli", "run", str(path)],
                          input="2 40\n", capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "42\n")
