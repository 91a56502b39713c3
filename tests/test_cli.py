import os
import re
import subprocess
import sys

import pytest

from cyanine.cli import main as cli_main


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


HELLO = '''package main
public object Program
    public fun run [
        Out println: "hello";
    ]
end
'''

BAD_RBLOCK = '''package main
private object T
    private :block Block
end
public object Program
    public fun run [ ]
end
'''


def run_cli(args, stdin="", timeout=60):
    proc = subprocess.run([sys.executable, "-m", "cyanine.cli"] + args,
                          capture_output=True, text=True, input=stdin,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_python_m_cyanine_is_the_cyanine_script(tmp_path):
    """`python -m cyanine` runs what the `cyanine` script of pyproject.toml
    runs, here on `--check` of a good and of a rejected program."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        module, func = re.search(r'^cyanine = "(.+):(.+)"$', fh.read(), re.M).groups()
    script = f"import sys; from {module} import {func}; sys.exit({func}())"
    for name, text in (("hello.cyan", HELLO), ("bad.cyan", BAD_RBLOCK)):
        src = write(tmp_path, name, text)
        results = [subprocess.run(cmd + ["--check", src], capture_output=True, text=True,
                                  timeout=60)
                   for cmd in ([sys.executable, "-m", "cyanine"],
                               [sys.executable, "-c", script])]
        outcomes = [(r.returncode, r.stdout, r.stderr) for r in results]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (0 if text is HELLO else 1), outcomes[0]


def test_dump_stages_runs_from_a_checkout(tmp_path):
    """`scripts/dump_stages.py` imports cyanine from the checkout's `src/`,
    run from elsewhere and with no import path set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "dump_stages.py"),
                           os.path.join(ROOT, "corpus", "69_loops.cyan")],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    headers = [line.split()[1] for line in proc.stdout.splitlines()
               if line.startswith("==== ")]
    assert headers == ["--dump-tokens", "--dump-ast", "--dump-desugar", "--dump-blocks"]
    assert "whileTrue:" in proc.stdout


def test_run_mode(tmp_path):
    src = write(tmp_path, "hello.cyan", HELLO)
    code, out, err = run_cli(["run", src])
    assert code == 0
    assert out == "hello\n"


def test_stdin_file(tmp_path):
    src = write(tmp_path, "echo.cyan", '''package main
public object Program
    public fun run [
        Out println: (In readString);
    ]
end
''')
    stdin = write(tmp_path, "in.txt", "Ana\n")
    code, out, _ = run_cli(["run", src, "--stdin-file", stdin])
    assert code == 0
    assert out == "Ana\n"


def test_check_mode_reports_rule_b(tmp_path):
    src = write(tmp_path, "bad.cyan", BAD_RBLOCK)
    code, out, err = run_cli(["--check", src])
    assert code == 1
    assert "[rule b]" in err


def test_check_mode_names_the_file_after_parsing():
    path = os.path.join(os.path.dirname(__file__), "..", "corpus", "09_err_rblock_ivar.cyan")
    code, _out, err = run_cli(["--check", path])
    assert code == 1
    assert err.startswith(f"{path}:12:13: error: instance variables cannot have the"
                          f" restricted type 'Block' [rule b]")


def test_diagnostics_name_their_file_among_several(tmp_path):
    """Desugar, link and checker diagnostics name the file of their unit,
    here the second of two."""
    main = write(tmp_path, "main.cyan", HELLO)
    lib = write(tmp_path, "lib.cyan", '''package main
private object T
    private :block Block
end
private object U extends Int
end
@foo
private object V
end
''')
    code, _out, err = run_cli(["--check", main, lib])
    assert code == 1
    assert err.splitlines() == [
        f"{lib}:3:13: error: instance variables cannot have the restricted type 'Block'"
        f" [rule b]",
        f"{lib}:5:9: error: error in the inheritance of the final prototype 'Int' by 'U'",
        f"{lib}:7:1: warning: unknown metaobject '@foo' ignored",
    ]


def test_uncaught_exception_is_exit_2(tmp_path):
    src = write(tmp_path, "boom.cyan", '''package main
private object Boom extends CyException end
public object Program
    public fun run [ throw: Boom; ]
end
''')
    code, out, _ = run_cli(["run", src])
    assert code == 2
    assert out.startswith("uncaught exception: Boom")


def test_a_nil_end_of_an_interval_is_exit_2(tmp_path):
    src = write(tmp_path, "interval.cyan", '''package main
public object Program
    public fun run [
        :n Int;
        n = nil;
        Out println: (n .. 3) first;
    ]
end
''')
    code, out, err = run_cli(["run", src])
    assert (code, err) == (2, "")
    assert out == "uncaught exception: StrException\n  at Program::run\n"


def test_a_return_in_a_block_of_a_slot_initial_value_is_exit_1(tmp_path):
    # the slot is checked before any method body, outside a grammar method
    src = write(tmp_path, "slot.cyan", '''package main
public object Program
    private var :b UBlock<Int> = [ return 1 ]
    public fun run [ ]
end
''')
    code, out, err = run_cli(["run", src])
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert f"{src}:3:36: error: a 'return' with a value is not allowed" in err


@pytest.mark.parametrize("text, diagnostic", [
    # recovery stops at `private`, where the failed slot began
    ("package main private interface I private fun save end",
     "1:34: error: expected 'fun', found 'private'"),
    ("package main public object Program private private end",
     "1:44: error: expected slot declaration"),
], ids=["interface", "prototype"])
def test_a_qualifier_that_starts_no_slot_is_exit_1(tmp_path, text, diagnostic):
    src = write(tmp_path, "qualifier.cyan", text + "\n")
    code, out, err = run_cli(["run", src], timeout=10)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert f"{src}:{diagnostic}" in err


def test_bad_usage_is_64():
    code, _out, _err = run_cli([])
    assert code == 64
    code, _out, _err = run_cli(["/nonexistent/path.cyan"])
    assert code == 64


def test_dump_tokens(tmp_path):
    src = write(tmp_path, "empty.cyan", "")
    code, out, _ = run_cli(["--dump-tokens", src])
    assert code == 0
    assert out.strip().endswith("eof")
    src2 = write(tmp_path, "two.cyan", "object A end")
    code, out, _ = run_cli(["--dump-tokens", src2])
    lines = out.strip().splitlines()
    assert lines[0].split() == ["1:1", "keyword", "object"]


def test_dump_ast(tmp_path):
    src = write(tmp_path, "a.cyan", "package p\nobject A end")
    code, out, _ = run_cli(["--dump-ast", src])
    assert code == 0
    assert "(CompilationUnit" in out
    assert "(PrototypeDecl" in out
    # stable across runs
    code2, out2, _ = run_cli(["--dump-ast", src])
    assert out == out2


def test_dump_desugar_shows_accessors(tmp_path):
    src = write(tmp_path, "uni.cyan", '''package main
private object University
    public :name String = ""
end
public object Program
    public fun run [ ]
end
''')
    code, out, _ = run_cli(["--dump-desugar", src])
    assert code == 0
    assert "_name" in out
    assert "name -> String" in out
    assert "name: (:newValue$ String)" in out


def test_dump_blocks(tmp_path):
    src = write(tmp_path, "b.cyan", '''package main
public object Program
    public fun run [
        :i = 0;
        :b = [ ^ i < 5 ];
        :u = [ |:x Int| ^x ];
    ]
end
''')
    code, out, _ = run_cli(["--dump-blocks", src])
    assert code == 0
    assert "r-block Block<Boolean>" in out
    assert "u-block UBlock<Int><Int>" in out
    assert "bl=1" in out and "bl=-1" in out


def test_dump_grammar(tmp_path):
    src = write(tmp_path, "g.cyan", '''package main
private object IntSet
    public fun (add: (Int)+) :t [ ]
end
public object Program
    public fun run [ ]
end
''')
    code, out, _ = run_cli(["--dump-grammar", "IntSet", src])
    assert code == 0
    assert "add:" in out
    assert "derived: Array<Int>" in out
    assert "automaton states:" in out


def test_multi_file_program(tmp_path):
    lib = write(tmp_path, "person.cyan", '''package program
public object Person
    @init(name)
    public :name String
end
''')
    main = write(tmp_path, "main.cyan", '''package main
public object Program
    public fun run [
        :p = Person new: "Ada";
        Out println: (p name);
    ]
end
''')
    code, out, _ = run_cli(["run", lib, main])
    assert code == 0
    assert out == "Ada\n"


def test_main_flag(tmp_path):
    src = write(tmp_path, "alt.cyan", '''package main
public object Launcher
    public fun run [ Out println: "alt main"; ]
end
''')
    code, out, _ = run_cli(["run", src, "--main", "Launcher"])
    assert code == 0
    assert out == "alt main\n"


def test_prelude_override(tmp_path):
    prelude = write(tmp_path, "prelude.cyan", '''package cyan.lang
public object CyException end
public object CastException extends CyException end
public object AssertException extends CyException end
public object DoesNotUnderstandException extends CyException end
public object ExceptionCannotCallAbstractMethod extends CyException end
public object ExceptionCannotCallInterfaceMethod extends CyException end
public object StrException(public :message String) extends CyException end
public object CatchAll
    public fun eval: (:e CyException) [ ]
end
public object Greeter
    public fun hello [ Out println: "from prelude override" ]
end
''')
    src = write(tmp_path, "use.cyan", '''package main
public object Program
    public fun run [ Greeter hello; ]
end
''')
    code, out, _ = run_cli(["run", src, "--prelude", prelude])
    assert code == 0
    assert out == "from prelude override\n"
