"""The builtin world (builtin entries plus the prelude) is built once per
prelude text and shared by every compile: no compile or run may change it,
and run-time state lives in each Interp, so a Program runs the same twice."""

import glob
import os
import subprocess
import sys

import pytest

from cyanine import driver
from cyanine.corpus import parse_directives
from cyanine.diagnostics import Reporter
from cyanine.interp import Interp
from cyanine.prelude import PRELUDE_SOURCE

ROOT = os.path.join(os.path.dirname(__file__), "..")
CORPUS = sorted(glob.glob(os.path.join(ROOT, "corpus", "*.cyan")))

OVERRIDE_PRELUDE = PRELUDE_SOURCE + '''
public object Greeter
    public fun hello [ Out println: "from the override" ]
end
'''


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def fingerprint(table):
    """Entry names, edges and flags, and per entry its methods' names with
    parameter and return types."""
    return [(e.name, e.kind, e.supertype, tuple(e.interfaces), e.is_abstract,
             e.is_final, e.is_mixin, e.hidden, e.builtin, e.restricted,
             e.contains_restricted, e.linked,
             tuple((m.name, tuple(m.param_types), m.return_type) for m in e.methods))
            for e in table.entries.values()]


def test_world_is_built_once_and_shared():
    world = driver._parsed_prelude(PRELUDE_SOURCE)
    assert driver._parsed_prelude(PRELUDE_SOURCE) is world
    a = driver.compile_program([("a.cyan", read(CORPUS[0]))])
    b = driver.compile_program([("b.cyan", read(CORPUS[0]))])
    assert a.table is not b.table
    assert a.table.get("CyException") is b.table.get("CyException") \
        is world.table.get("CyException")
    assert all(x is y for x, y in zip(a.units, world.units))


def test_every_corpus_program_runs_the_same_twice():
    """Two Interps on one Program give byte-identical status and stdout
    (50_method_objects assigns a method, which once leaked into the table)."""
    ran, differ = 0, []
    for path in CORPUS:
        text = read(path)
        program = driver.compile_program([(path, text)], reporter=Reporter(path))
        if not program.ok():
            continue
        runs = []
        for _ in range(2):
            interp = Interp(program, stdin_text=parse_directives(text)[0])
            runs.append((interp.run(), interp.stdout()))
        ran += 1
        if runs[0] != runs[1]:
            differ.append((os.path.basename(path), runs))
    assert ran >= 60
    assert differ == []


def test_compiles_and_runs_leave_the_world_unchanged():
    world = driver._parsed_prelude(PRELUDE_SOURCE)
    before = fingerprint(world.table)
    n_units, n_diagnostics = len(world.units), len(world.reporter.items)
    for path in CORPUS:
        text = read(path)
        stdin_text = parse_directives(text)[0]
        program = driver.compile_program([(path, text)], reporter=Reporter(path))
        if program.ok():
            Interp(program, stdin_text=stdin_text).run()
    src = '''package main
public object Program
    public fun run [ Greeter hello; ]
end
'''
    program = driver.compile_program([("use.cyan", src)], prelude_text=OVERRIDE_PRELUDE)
    interp = Interp(program)
    assert interp.run() == 0 and interp.stdout() == "from the override\n"
    assert world.table.get("Greeter") is None
    assert fingerprint(world.table) == before
    assert (len(world.units), len(world.reporter.items)) == (n_units, n_diagnostics)


def test_faulty_prelude_reports_in_every_compile():
    faulty = PRELUDE_SOURCE + '''
public object Broken
    public fun f -> Int [ return "no" ]
end
'''
    src = '''package main
public object Program
    public fun run [ ]
end
'''
    reports = []
    for _ in range(2):
        reporter = Reporter("main.cyan")
        driver.compile_program([("main.cyan", src)], reporter=reporter, prelude_text=faulty)
        reports.append(reporter.format_all())
    line = PRELUDE_SOURCE.count("\n") + 3
    assert reports == [f"main.cyan:{line}:27: error: cannot return 'String' from a"
                       f" method declared to return 'Int'"] * 2


@pytest.mark.parametrize("workload", ["corpus", "sends", "dispatch"])
def test_tracer_hooks_resolve(workload):
    """The benchmark's tracer wraps cyanine functions by name; a traced run
    fails when one of them has gone."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_user_code_mixes_in_a_prelude_mixin():
    prelude = PRELUDE_SOURCE + '''
public mixin(Any) object Shout
    public fun shout: (:s String) [ Out println: "SHOUT " + s ]
end
'''
    src = '''package main
private object Loud mixin Shout
    public fun quiet [ Out println: "quiet" ]
end
public object Program
    public fun run [ Loud quiet; Loud shout: "hi"; ]
end
'''
    program = driver.compile_program([("use.cyan", src)], prelude_text=prelude)
    assert program.ok(), program.reporter.format_all()
    interp = Interp(program)
    assert (interp.run(), interp.stdout()) == (0, "quiet\nSHOUT hi\n")


LAZY_WORLD = '''package main
private object Oops extends CyException
    public :code Int = 7
    public shared :made Int = Oops announce
    public fun announce -> Int [ Out println: "Oops init"; ^ 1 ]
end
public object Program
    public fun deep: (:n Int) -> String [
        if ( n > 0 ) [ return self deep: n - 1 ];
        :r = "";
        [ self ?vanish ] catch: [ |:e DoesNotUnderstandException| r = e messageName ];
        return r + "/" + (DoesNotUnderstandException messageName) + "/";
    ]
    public fun fail: (:n Int) [
        if ( n > 0 ) [ self fail: n - 1; return ];
        Out println: (CastException hashCode), " ", (Oops hashCode);
        throw: Oops new;
    ]
    public fun run [
        Out println: (self deep: 50);
        Out println: (Program hashCode), " ", (DoesNotUnderstandException hashCode), " ",
            (Oops code);
        [ self fail: 1; ] catch: CatchAll;
        self fail: 2;
    ]
end
'''


def test_world_prototype_objects_are_made_on_first_use(monkeypatch):
    """Setup makes and initialises the objects of the prototypes the
    program adds, in table order, each after its supertype's, even one of
    the world (Oops's CyException); any other world prototype's object is
    made when the run first names it, here 51 frames deep
    (DoesNotUnderstandException, whose field the run reads) or inside a
    `catch:` (CastException).  The output, the order in which hash codes
    are drawn and the stack trace are those of a setup that made every
    object first."""
    program = driver.compile_program([("lazy.cyan", LAZY_WORLD)])
    assert program.ok(), program.reporter.format_all()
    world = driver._parsed_prelude(PRELUDE_SOURCE).table
    added = [name for name in program.table.entries if name not in world.entries]
    done = []
    init_prototype = Interp.init_prototype

    def traced(self, entry, obj):
        init_prototype(self, entry, obj)
        done.append(entry.name)
    monkeypatch.setattr(Interp, "init_prototype", traced)
    interp = Interp(program)
    interp.setup()
    assert done == ["CyException", "Oops", "Program"]
    assert set(interp.proto_objects) == {*added, "CyException", "Any", "Out"}
    assert interp.stdout() == "Oops init\n"
    interp = Interp(program)
    assert interp.run() == 2
    assert interp.stdout() == (
        "Oops init\n'Program' does not understand 'vanish'//\n1 2 7\n3 4\n3 4\n"
        "uncaught exception: Oops\n" + "  at Program::fail:\n" * 3 + "  at Program::run\n")
    assert {"DoesNotUnderstandException", "CastException", "CatchAll"} <= set(done)
    assert "StrException" not in interp.proto_objects


NOISY_PRELUDE = PRELUDE_SOURCE + '''
public object Noisy
    public shared :count Int = Noisy hello: "shared"
    public :tag String = Noisy label
    public fun total -> Int [ ^ count ]
    public fun label -> String [ Out println: "Noisy field"; ^ "n" ]
    public fun doubler -> UBlock<Int><Int> [ Out println: "Noisy bound"; ^ [ |:k Int -> Int| ^k * 2 ] ]
    public fun hello: (:s String) -> Int [ Out println: "Noisy " + s; ^ 1 ]
end

public object Quiet extends Noisy
end

public object Bound
    public fun twice: (:k Int) -> Int = Noisy doubler
end

public object Once
    private fun initOnce [ Out println: "Once"; ]
end

public object Thrower
    public shared :x Int = Thrower fail
    public fun fail -> Int [ throw: CyException new; ^ 0 ]
end
'''
WORLD_INIT = "Noisy shared\nNoisy field\nNoisy field\nNoisy bound\nOnce\n"
THROWN_AT_INIT = "uncaught exception: CyException\n  at Thrower::fail\n  at Thrower::<init>\n"


@pytest.mark.parametrize("throws", [True, False], ids=["throws", "returns"])
@pytest.mark.parametrize("body, out, steps, evals", [
    ('Out println: "run"', "run\n", 12, 0),
    ('Out println: "run ", (Noisy total), " ", (Quiet tag), " ", (Bound twice: 3)',
     "run 1 n 6\n", 17, 1),
], ids=["unnamed", "named"])
def test_a_world_prototype_whose_initialisation_runs_code_is_initialised_at_setup(
        throws, body, out, steps, evals):
    """A prelude given to the compile may declare prototypes whose shared
    variable, field, bound method or `initOnce` prints or throws: setup
    runs each of these in table order before the program, whether or not
    the program names the prototype, with the steps they count, as when
    setup made every world object.  A throw there is uncaught."""
    prelude = NOISY_PRELUDE if throws else NOISY_PRELUDE.replace("Thrower fail", "0")
    src = f"package main\npublic object Program\n    public fun run [ {body} ]\nend\n"
    program = driver.compile_program([("noisy.cyan", src)], prelude_text=prelude)
    assert program.ok(), program.reporter.format_all()
    interp = Interp(program)
    if throws:
        assert (interp.run(), interp.stdout(), interp.steps) == (2, WORLD_INIT + THROWN_AT_INIT, 15)
    else:
        assert (interp.run(), interp.stdout(), interp.steps, interp.evals) \
            == (0, WORLD_INIT + out, steps, evals)
