"""Trees: every body runs as one function generated from source
(`compiler._Tree`), whose factory is made once per shape and process, and
a tree generates every node.  A tree keeps the outcomes, steps,
evaluations and traces of the send path: a method replaced or added in its
middle, the budget spent at any of its steps, an exception out of an inline
loop, and each kind of node in a method, a block and an inline loop body
(a dead cell read at any depth is in `test_fused_sends`).  `++` and `--`
step every integer width."""

import os
import subprocess
import sys

import pytest

from conftest import compile_src
from cyanine import compiler
from cyanine import cyast as A
from cyanine.interp import CyThrow, Interp
from cyanine.prototypes import PrototypeTable
from cyanine.values import NIL, NOOBJECT, Cell, ObjectV, PrimV

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_program(src, max_steps=None, proven=True):
    """Run `src`: (exit status, stdout, the Interp).  With `proven` False,
    an `addMethod:` body for no prototype sends every proven send and
    literal loop through the send path, which counts alike."""
    program = compile_src(src)
    assert program.ok(), program.reporter.format_all()
    interp = Interp(program)
    if max_steps is not None:
        interp.max_steps = max_steps
    if not proven:
        interp.dyn_methods[("", "")] = None
    return interp.run(), interp.stdout(), interp


def method_function(program, method):
    """The function of `method` of Program, which its adapter calls."""
    return program.table.get("Program").groups[method].entries[0].decl.fn


# -- `++` and `--` on every integer kind ------------------------------------------------

INCREMENTS = '''package main
public object Program
    public fun run [
        :b = 126b; :s = -32767s; :i = 2147483646; :l = 9223372036854775806l;
        ++b; --s; ++i; ++l;
        Out println: b, " ", s, " ", i, " ", l;
        [ ++b; ] catch: [ |:e StrException| Out println: (e message) ];
        [ --s; ] catch: [ |:e StrException| Out println: (e message) ];
        [ ++i; ] catch: [ |:e StrException| Out println: (e message) ];
        [ ++l; ] catch: [ |:e StrException| Out println: (e message) ];
        Out println: b, " ", s, " ", i, " ", l;
        --b; ++s; --i; --l;
        Out println: b, " ", s, " ", i, " ", l;
    ]
end
'''


def test_increments_step_each_integer_kind_and_leave_it_after_an_overflow():
    status, out, interp = run_program(INCREMENTS)
    assert (status, out) == (0, "127 -32768 2147483647 9223372036854775807\n"
                                "Byte overflow\nShort overflow\nInt overflow\nLong overflow\n"
                                "127 -32768 2147483647 9223372036854775807\n"
                                "126 -32767 2147483646 9223372036854775806\n")
    # each is a proven send stored by its tree: no site, a `1` of its kind
    decl = interp.table.get("Program").groups["run"].entries[0].decl
    steps = [node for node in A.walk(decl.body)
             if isinstance(node, A.BinarySend) and node.right.step]
    assert len(steps) == 12
    for node in steps:
        m, kind, kinds = node.builtin
        assert node.site is None and kinds == (kind,) and node.right.runtime_value.kind == kind


def test_a_written_int_literal_does_not_take_the_kind_of_a_long():
    program = compile_src('''package main
public object Program
    public fun run [ :l = 5l; l = l + 1; ]
end
''')
    assert "'Long' has no method matching '+ _'" in program.reporter.format_all()


# -- a method replaced or added in the middle of a tree ----------------------------------

def test_a_method_replaced_in_the_middle_of_a_tree_takes_the_next_proven_send():
    src = '''package main
public object Program
    public fun run [
        :a = 3;
        Out println: a + 1;
        a.{+ Int -> Int}. = [ |:x Int| ^42 ];
        Out println: a + 1, " ", a - 1;
    ]
end
'''
    status, out, interp = run_program(src)
    assert method_function(interp.program, "run").__name__ == "fn"
    assert (status, out) == (0, "4\n42 2\n")
    # the two sends after the replacement are skips: they go to `Interp.send`
    assert (interp.steps, interp.misses, interp.skips) == (7, 0, 3)


def test_a_method_added_in_the_middle_of_a_tree_takes_the_next_proven_send():
    src = '''package main
public object Program
    public fun run [
        :i = 7;
        Out println: i asString, " ", i + 1;
        Int addMethod: selector: #asString returnType: String
            body: (:self Int)[ | -> String | ^"added" ];
        Out println: i asString, " ", i + 1;
    ]
end
'''
    status, out, interp = run_program(src)
    assert method_function(interp.program, "run").__name__ == "fn"
    assert (status, out) == (0, "7 8\nadded 8\n")
    # after the `addMethod:`, both proven sends go to `Interp.send`
    assert (interp.steps, interp.misses, interp.skips) == (10, 2, 5)


# -- the budget, at every step of a tree ---------------------------------------------------

BUDGET = '''package main
public object Program
    public fun run [
        :i = 0;
        :s = 0;
        [^ i < 2 ] whileTrue: [
            s = s + i * 3;
            if ( s > 2 ) [ Out println: s; ] else [ Out println: i; ];
            ++i;
        ];
        [ s = s - 1; ] repeatUntil: [^ s < 1 ];
        Out println: s;
    ]
end
'''


def test_the_budget_ends_a_tree_at_each_step_with_the_trace_of_the_send_path():
    """At each budget the tree ends where the send path does (the block path
    of each loop), with its stdout, trace, steps and evaluations: at a
    proven send in an evaluation, with the evaluation's frame on the stack;
    between two evaluations, without it."""
    status, out, interp = run_program(BUDGET)
    assert (status, out) == (0, "0\n3\n0\n")
    total = interp.steps + interp.evals
    traces = set()
    for budget in range(1, total):
        got = run_program(BUDGET, budget)
        want = run_program(BUDGET, budget, proven=False)
        assert got[:2] == want[:2], budget
        assert (got[2].steps, got[2].evals) == (want[2].steps, want[2].evals), budget
        assert got[0] == 2
        traces.add(got[1].split("exhausted\n")[1])
    assert traces == {"  at Program::run\n", "  at Program::eval\n  at Program::run\n"}
    # between the first two evaluations: the test's, which sends `i < 2`,
    # and the body's
    assert run_program(BUDGET, 4)[1] == "step budget of 4 exhausted\n  at Program::run\n"


# -- an exception out of an inline loop ----------------------------------------------

def test_an_exception_out_of_an_inline_loop_leaves_the_frames_as_they_were(monkeypatch):
    depths = []
    write = Interp.write

    def spy(self, text):
        depths.append(len(self.frames))
        write(self, text)
    monkeypatch.setattr(Interp, "write", spy)
    status, out, interp = run_program('''package main
public object Program
    public fun boom -> Int [
        :i = 0;
        [^ i < 5 ] whileTrue: [ ++i; if ( i == 3 ) [ i = i * 2147483647; ]; ];
        return i;
    ]
    public fun run [
        Out println: "before";
        [ Out println: (self boom); ] catch: [ |:e StrException| Out println: (e message) ];
        Out println: "after";
    ]
end
''')
    assert (status, out) == (0, "before\nInt overflow\nafter\n")
    assert depths[0] == depths[-1] == 1
    # caught outside: the loop's frame goes with the method's
    interp.max_steps = 10_000
    main = interp.proto_objects["Program"]
    with pytest.raises(CyThrow):
        interp.send(main, [("boom", [])])
    assert interp.frames == []


# -- the shape cache ---------------------------------------------------------------------

def shapes():
    return compiler._factory.cache_info().currsize


# the shapes of the world and a hello world: the functions of the world's
# methods, and `run`'s.  A method's function takes its parameters, so an
# empty body makes a shape per number of parameters: one more than when
# every body was a tree of (interp, env, frame)
WORLD_SHAPES = 9


def test_the_world_and_a_hello_world_make_a_fixed_number_of_shapes():
    """Every body is a tree, the world's too.  The world and a hello world
    make exactly WORLD_SHAPES shapes in a fresh process, and a program of the
    same form with another literal and other names makes none."""
    code = ("import sys\n"
            "sys.setrecursionlimit(30000)\n"
            "from cyanine import compiler\n"
            "from cyanine.driver import compile_program\n"
            "for name, text in (('Program', 'hello'), ('Main', 'bye')):\n"
            "    src = f'package main\\npublic object {name}\\n"
            "    public fun run [ Out println: \"{text}\"; ]\\nend\\n'\n"
            "    assert compile_program([(text, src)], main_name=name).ok()\n"
            "    print(compiler._factory.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, check=True).stdout
    assert out == f"{WORLD_SHAPES}\n{WORLD_SHAPES}\n"


FIB_AND_SUM = '''package main
public object Program
    {extra}
    public fun {fib}: (:{n} Int) -> Int [
        if ( {n} < {two} ) [ return {n} ];
        return (self {fib}: {n} - {one}) + (self {fib}: {n} - {two});
    ]
    public fun run [
        :{s} = {zero};
        :{i} = {zero};
        [^ {i} < {ten} ] whileTrue: [ {s} = {s} + {i}; ++{i}; ];
        Out println: {s}, (self {fib}: {ten});
    ]
    {last}
end
'''


def test_a_program_compiled_again_makes_no_shape():
    src = FIB_AND_SUM.format(extra="", fib="fib", n="n", s="s", i="i", zero="0", one="1",
                             two="2", ten="10", last="")
    compile_src(src)
    before = shapes()
    compile_src(src)
    assert shapes() == before


def test_programs_that_differ_in_literals_names_and_sites_share_their_shapes():
    compile_src(FIB_AND_SUM.format(extra="", fib="fib", n="n", s="s", i="i", zero="0",
                                   one="1", two="2", ten="10",
                                   last='public fun bye [ Out println: "bye", 2; ]'))
    before = shapes()
    # the method of sites alone comes first here and last there: the other
    # sends get other numbers
    status, out, _interp = run_program(FIB_AND_SUM.format(
        extra='public fun hello [ Out println: "hello", 1; ]', fib="g", n="m", s="total",
        i="k", zero="5", one="3", two="4", ten="12", last=""))
    assert status == 0 and shapes() == before


def test_a_tree_nested_deeper_than_python_allows_splits_into_trees():
    """Python allows 20 nested loops and `try` blocks and 100 levels of
    indentation; a node nested deeper starts a tree of its own."""
    loops, ifs = 25, 60
    body = "".join(f"k{n} = 0; [^ k{n} < 1 ] whileTrue: [ ++k{n}; i = i + 1; "
                   for n in range(loops)) + " ];" * loops
    body += "".join(f"if ( i < {n + 100} ) [ :y{n} = i + 1; i = y{n}; "
                    for n in range(ifs)) + " ];" * ifs
    status, out, interp = run_program("package main\npublic object Program\n"
                                      "    public fun run [ :i = 0; " +
                                      "".join(f":k{n} = 0; " for n in range(loops)) +
                                      body + " Out println: i; ]\nend\n")
    assert (status, out) == (0, "85\n")
    assert (interp.steps, interp.evals) == (loops * 5 + ifs * 2 + 2, loops * 3)


def test_a_body_that_splits_compiles_again_with_every_local_in_a_cell():
    """A body whose tree would split compiles again with every local in a
    cell, and so do the block literals compiled before the split was
    found: the block reads `a` through the env that now holds `y`."""
    ifs = 45
    body = "".join(f"if ( j < {n + 100} ) [ " for n in range(ifs)) + "j = j + 1; " + " ];" * ifs
    status, out, interp = run_program(
        "package main\npublic object Program\n    public fun f: (:i Int) -> Int [\n"
        "        :a = i * 10;\n"
        "        :j = i;\n"
        "        if ( i < 100 ) [ :y = i + 1; Out println: ([ ^ a + 1 ] eval), \" \", y; "
        f"{body} ];\n"
        "        ^ a + j\n    ]\n"
        "    public fun run [ Out println: (self f: 3); ]\nend\n")
    assert (status, out) == (0, "31 4\n34\n")
    assert (interp.steps, interp.evals) == (56, 1)


def test_a_body_that_splits_tries_its_python_variables_once(monkeypatch):
    """Each level holds a Python variable, a block literal of the next
    level and then `while`s nested too deep: each body tries its Python
    variables once, though the body around it compiles again, so the
    compile is not exponential in the levels."""
    tries, compile_body = [], compiler.Compiler.compile_body

    def spy(self, parent, params, names, body, cells, method):
        if cells is not None:
            tries.append(id(body))
        return compile_body(self, parent, params, names, body, cells, method)
    monkeypatch.setattr(compiler.Compiler, "compile_body", spy)

    def level(k):
        inner = "Out println: 1;" if k == 4 else f"[ {level(k + 1)} ] eval; "
        return f":x{k} = 1; {inner}" + "".join(f"while ( x{k} < {n} ) [ " for n in range(16)) \
            + f"x{k} = 100; " + " ];" * 16
    status, out, _interp = run_program("package main\npublic object Program\n"
                                       f"    public fun run [ {level(0)} ]\nend\n")
    assert (status, out) == (0, "1\n")
    assert len(tries) == len(set(tries)) >= 5


def test_a_return_from_a_block_in_a_split_tree_leaves_its_method():
    """A method's function whose body splits into trees keeps every local
    in a cell, and catches the ReturnSignal of a block in a subtree."""
    ifs = 45
    body = "".join(f"if ( i < {n + 100} ) [ " for n in range(ifs)) + \
        "[ return i * 2; ] eval; " + " ];" * ifs
    status, out, interp = run_program("package main\npublic object Program\n"
                                      f"    public fun f: (:i Int) -> Int [ {body} ^ 0 ]\n"
                                      "    public fun run [ Out println: (self f: 3); ]\nend\n")
    assert (status, out) == (0, "6\n")
    assert (interp.steps, interp.evals) == (50, 1)


# -- nodes that only a tree runs ---------------------------------------------------------

NIL_SAFE = '''package main
public object Program
    public fun show: (:v Array<Int>) [
        :i = 0;
        :a = v?[0]?;
        :b = v?[i + 1]?;
        Out println: a, " ", b;
        [ :c = v?[0]?; :d = v?[i + 1]?; Out println: c, " ", d; ] eval;
    ]
    public fun run [
        :none Array<Int>;
        self show: none;
        :xs = Array<Int> new: 2;
        xs at: 0 put: 7;
        xs at: 1 put: 8;
        self show: xs;
    ]
end
'''


def test_a_nil_safe_index_runs_through_the_tree_of_its_if(monkeypatch):
    """`v?[i]?` is a `let` of `v` whose body is an `if`: the `if` is the root
    of a tree, in a method and in a block, with a nil array and another."""
    generated = []
    if_expr = compiler._TREE_EXPRS[A.IfExpr]

    def spy(gen, e):
        generated.append(e)
        return if_expr(gen, e)
    monkeypatch.setitem(compiler._TREE_EXPRS, A.IfExpr, spy)
    status, out, interp = run_program(NIL_SAFE)
    assert (status, out) == (0, "nil nil\nnil nil\n7 8\n7 8\n")
    assert (interp.steps, interp.evals) == (34, 2)
    decl = interp.table.get("Program").groups["show:"].entries[0].decl
    ifs = [node for node in A.walk(decl.body) if isinstance(node, A.IfExpr)]
    assert len(ifs) == 4 and all(any(node is e for e in generated) for node in ifs)


def test_a_bare_return_in_a_body_of_sites_answers_no_object(monkeypatch):
    returns = []
    return_stat = compiler._TREE_STATS[A.ReturnStat]

    def spy(gen, st):
        returns.append(st)
        return return_stat(gen, st)
    monkeypatch.setitem(compiler._TREE_STATS, A.ReturnStat, spy)
    status, out, interp = run_program('''package main
public object Program
    public fun stop [ Out println: "stop"; return; Out println: "unreached"; ]
    public fun run [ self stop; Out println: "after"; ]
end
''')
    assert (status, out) == (0, "stop\nafter\n")
    decl = interp.table.get("Program").groups["stop"].entries[0].decl
    bare, = [st for st in decl.body if isinstance(st, A.ReturnStat)]
    assert bare.value is None and any(st is bare for st in returns)
    assert interp.send(interp.proto_objects["Program"], [("stop", [])]) is NOOBJECT
    assert interp.stdout() == "stop\nafter\nstop\n"


# -- every kind of node, in a method, a block and an inline loop body ------------------

# where a row's statements run: `@BODY` in the place of the row's `@CONTEXT`
CONTEXTS = {
    "method": "@BODY",
    "block": "[ @BODY ] eval;",
    "loop": ":turn = 0; [^ turn < 1 ] whileTrue: [ ++turn; @BODY ];",
}

# (name, program, statements, (exit status, stdout), (steps, evaluations,
# misses, skips) per context), the counts as the closures of these nodes
# gave them before every node was generated, but for the misses that fell
# where the checker fixed a send, to a method or to a builtin
NODE_ROWS = [
    ("field read and write", """package main
public object Program
    public fun work [
        @CONTEXT
        Out println: count, " ", self.count;
    ]
    public fun run [ self work; ]
    private :count Int = 1
end
""", 'count = count + 1; Out println: count; self.count = count * 10; Out println: self.count;',
     (0, "2\n20\n20 20\n"), [(7, 0, 0, 1), (8, 1, 1, 1), (11, 3, 0, 1)]),
    ("static read before its initial value", """package main
private object Early
    public shared :first Int = Early peek
    public shared :second Int = 2
    public fun peek -> Int [
        :r = 0;
        @CONTEXT
        ^ r
    ]
end
public object Program
    public fun run [ Out println: "run"; ]
end
""", 'Out println: "peek"; [ r = second; ] catch: [ |:e StrException| Out println: (e message) ];',
     (0, "peek\nvariable 'second' is read before it is initialized\nrun\n"),
     [(8, 2, 2, 1), (9, 3, 3, 1), (12, 5, 2, 1)]),
    ("static write", """package main
private object Counter
    public fun bump [
        @CONTEXT
    ]
    public fun show [ Out println: "count ", count ]
    private shared :count Int = 0
end
public object Program
    public fun run [ Counter bump; Counter bump; Counter show; ]
end
""", 'count = count + 1; Out println: count;',
     (0, "1\n2\ncount 2\n"), [(9, 0, 0, 1), (11, 2, 1, 1), (17, 6, 0, 1)]),
    ("lazy prototype init", """package main
private object First
    public shared :x Int = First compute
    public fun compute -> Int [
        :r = 0;
        @CONTEXT
        ^ r
    ]
end
private object Second
    public shared :v Int = Second announce
    public fun announce -> Int [ Out println: "init Second"; ^ 7 ]
    public fun value -> Int [ ^ v ]
end
public object Program
    public fun run [ Out println: "run"; ]
end
""", 'Out println: "before Second"; r = Second value; Out println: "after Second ", r;',
     (0, "before Second\ninit Second\nafter Second 7\nrun\n"),
     [(8, 0, 0, 1), (9, 1, 1, 1), (12, 3, 0, 1)]),
    ("generic prototype name", """package main
private object Box<:T>
    public fun init [ Out println: "new box"; ]
    public fun put: (:x T) [ item = x ]
    public fun get -> T [ ^ item ]
    private :item T
end
public object Program
    public fun run [
        :b Box<Int>;
        @CONTEXT
        Out println: (b get);
    ]
end
""", 'b = Box<Int> new; b put: 5; Out println: (Box<Int> prototypeName);',
     (0, "new box\nBox<Int>\n5\n"), [(10, 0, 0, 1), (11, 1, 1, 1), (14, 3, 0, 1)]),
    ("a new String per evaluation", """package main
public object Program
    public fun run [
        :i = 0;
        :prev String;
        :cur String;
        @CONTEXT
        Out println: (prev eq: cur), " ", (prev == cur), " ", cur;
    ]
end
""", 'while ( i < 2 ) [ prev = cur; cur = "s"; i = i + 1; ];',
     (0, "false false s\n"), [(9, 2, 2, 1), (10, 3, 3, 1), (13, 5, 2, 1)]),
    ("array and tuple elements in order", """package main
public object Program
    public fun say: (:n Int) -> Int [ Out print: "(", n, ")"; ^ n ]
    public fun run [
        :xs Array<Int>;
        :t UTuple<Int, Int>;
        @CONTEXT
        Out println: xs, " ", (t f1), " ", (t f2);
    ]
end
""", 'xs = {# (self say: 1), (self say: 2), (self say: 3) #}; '
     't = [. (self say: 4), (self say: 5) .]; Out println: "";',
     (0, "(1)(2)(3)(4)(5)\n1 2 3 4 5\n"), [(16, 0, 0, 2), (17, 1, 1, 2), (20, 3, 0, 2)]),
    ("an interval with a nil end", """package main
public object Program
    public fun run [
        :hi Int;
        hi = nil;
        :lo = 1;
        @CONTEXT
        Out println: "after";
    ]
end
""", 'Out println: (lo..2); '
     '[ Out println: (lo..hi); ] catch: [ |:e StrException| Out println: (e message) ];',
     (0, "1..2\nan end of an interval is nil\nafter\n"),
     [(8, 2, 2, 2), (9, 3, 3, 2), (12, 5, 2, 2)]),
    ("a method assigned, its value before its receiver", """package main
private object Box
    public fun get -> Int [ ^ 0 ]
end
public object Program
    public fun noisy: (:b Box) -> Box [ Out println: "receiver"; ^ b ]
    public fun value -> UBlock<Int> [ Out println: "value"; ^ [ ^ 1 ] ]
    public fun run [
        :box = Box new;
        :other = Box new;
        @CONTEXT
        Out println: (box get), " ", (other get);
    ]
end
""", '(self noisy: box).{get -> Int}. = (self value);',
     (0, "value\nreceiver\n1 0\n"), [(15, 1, 0, 3), (16, 2, 1, 3), (19, 4, 0, 3)]),
    ("a nil-safe index, whose let keeps a block", """package main
public object Program
    public fun keep: (:b UBlock<Int>) -> Int [ kept = b; ^ 1 ]
    public fun run [
        :v Array<Int>;
        :a Int;
        @CONTEXT
        Out println: a;
    ]
    private :kept UBlock<Int>
end
""", 'a = v?[0]?; Out println: a; v = Array<Int> new: 2; v at: 1 put: 9; '
     'a = v?[self keep: [ ^ 0 ]]?;',
     (0, "nil\n9\n"), [(11, 0, 5, 4), (12, 1, 6, 4), (15, 3, 5, 4)]),
    ("super, and super in a block of an attached mixin", """package main
private object Base
    public fun greet [ Out println: "base greet" ]
end
private object Window
    public fun draw [ Out println: "draw window" ]
end
private mixin(Window) object Shade
    public override fun draw [
        Out println: "with shade";
        [ super draw; ] eval;
    ]
end
public object Program extends Base
    public override fun greet [ Out println: "program greet" ]
    public fun run [
        :w = Window new;
        w attachMixin: Shade;
        @CONTEXT
        Out println: (w popMixin);
    ]
end
""", 'super greet; self greet; w draw; w draw;',
     (0, "base greet\nprogram greet\nwith shade\ndraw window\nwith shade\ndraw window\ntrue\n"),
     [(21, 2, 7, 1), (22, 3, 8, 1), (25, 5, 7, 1)]),
    ("context new: with & and * parameters", """package main
private object Sum(:sum &Int) implements Block<Int><Void>
    public fun eval: (:x Int) [ sum = sum + x; ]
end
private object Each(:array *Array<Int>) implements Iterable<Int>
    public fun foreach: (:b Block<Int><Void>) [
        :i = 0;
        while ( i < (array size) ) [ b eval: array[i]; ++i; ];
    ]
end
public object Program
    public fun run [
        :s Int = 0;
        nums = {# 1, 2, 3 #};
        @CONTEXT
        Out println: s;
    ]
    private :nums Array<Int>
end
""", 'nums foreach: Sum(s); Out println: s; Each(nums) foreach: Sum(s); '
     'nums = {# 10 #}; Each(nums) foreach: Sum(s);',
     (0, "6\n22\n"), [(45, 4, 7, 4), (46, 5, 8, 4), (49, 7, 7, 4)]),
    ("a literal loop after addMethod:", """package main
public object Program
    public fun run [
        :k = 0;
        @CONTEXT
        Out println: k, " ", (k ?twice);
    ]
end
""", 'Int addMethod: selector: #twice returnType: Int '
     'body: (:self Int)[ | -> Int | ^ self * 2 ]; [^ k < 3 ] whileTrue: [ ++k; ];',
     (0, "3 6\n"), [(15, 7, 3, 12), (16, 8, 4, 12), (19, 10, 3, 13)]),
]


def live_cells(block):
    """The live cells of the envs the block value `block` was made in."""
    cells, env = [], block.env
    while env is not None:
        cells += [cell for cell in env[1:] if type(cell) is Cell and cell.alive]
        env = env[0]
    return cells


@pytest.mark.parametrize("context", list(CONTEXTS))
@pytest.mark.parametrize("row", NODE_ROWS, ids=[row[0] for row in NODE_ROWS])
def test_each_kind_of_node_keeps_its_outcome_and_counts(row, context):
    _name, program, body, outcome, counts = row
    src = program.replace("@CONTEXT", CONTEXTS[context].replace("@BODY", body))
    status, out, interp = run_program(src)
    assert (status, out) == outcome
    assert (interp.steps, interp.evals, interp.misses, interp.skips) == \
        counts[list(CONTEXTS).index(context)]
    if context == "loop":
        # the loop of the context runs inline: the method's function makes
        # the loop's frame, an 'eval' frame
        holders = [m.decl for entry in interp.table.entries.values() if not entry.builtin
                   for m in entry.methods if m.decl is not None and m.decl.body
                   and any(isinstance(st, A.VarDeclStat) and st.decls[0][0] == "turn"
                           for st in m.decl.body)]
        assert len(holders) == 1 and "eval" in holders[0].fn.__code__.co_consts
    # a block made in a `let`'s body keeps the let's env, whose cell has died
    kept = interp.proto_objects["Program"].fields.get("kept")
    if kept is not None:
        assert kept is not NIL and live_cells(kept) == []


# -- the shapes of a method: its function, its adapter and the general runner -----------

SHAPE_PROGRAM = '''package main
@PROTOS
public object Program
    @METHOD
    public fun run [
        @SETUP
        Out println: (@CALL);
        big = 2147483647;
        Out println: (@CALL);
    ]
    private :big Int = 1
end
'''

SUM = '''private object Sum(:sum &Int) implements Block<Int><Void>
    public fun eval: (:x Int) [ sum = sum + x; ]
end'''

BOX = '''private object Box
    public fun twice: (:n Int) -> Int [ ^ n + n ]
end'''

# (name, prototypes, Program's method `m`, set-up statements, the send, the
# stdout before the trace, the trace, steps, evaluations): each send runs
# twice, the second time with `big` the largest Int, where an overflow in
# the method's body ends the run with the trace of its frames
SHAPE_ROWS = [
    ("no parameters", "", "public fun m -> Int [ ^ big * 2 ]", "", "self m",
     "2\n", ["Program::m"], 6, 0),
    ("several parameters", "",
     "public fun m: (:a Int, :b Int) with: (:c Int) -> Int [ :t = a + b; ^ t * c * big ]",
     "", "self m: 1, 2 with: 3", "9\n", ["Program::m:with:"], 10, 0),
    ("a parameter captured by a block", "",
     "public fun m: (:n Int) -> Int [ ^ [ ^ n * big ] eval ]", "", "self m: 3",
     "3\n", ["Program::eval", "Program::m:"], 8, 2),
    ("a local in a %-snapshot", "",
     "public fun m: (:n Int) -> Int [ :v = n; :b = [ ^ %v * big ]; v = 0; ^ b eval ]",
     "", "self m: 3", "3\n", ["Program::eval", "Program::m:"], 8, 2),
    ("a local passed to a context object's new:", SUM,
     "public fun m: (:n Int) -> Int [ :s Int = n; {# 1, 2 #} foreach: Sum(s); ^ s * big ]",
     "", "self m: 3", "6\n", ["Program::m:"], 18, 0),
    ("a return from a block", "",
     "public fun m: (:n Int) -> Int [ [ return n * big; ] eval; ^ 0 ]", "", "self m: 3",
     "3\n", ["Program::eval", "Program::m:"], 8, 2),
    ("a method of an attached mixin", BOX + '''
private mixin(Box) object Twice
    public override fun twice: (:n Int) -> Int [ ^ n * 2 ]
end''', "", ":h = Box new; h attachMixin: Twice;", "h twice: big",
     "2\n", ["Twice::twice:"], 10, 0),
    ("a method a mixin clause copies", '''private mixin(Any) object Thrice
    public fun thrice: (:n Int) -> Int [ ^ n * 3 ]
end
private object Loud mixin Thrice
end''', "", "", "Loud thrice: big", "3\n", ["Loud::thrice:"], 6, 0),
    ("a method of a mixin sent to the mixin itself", '''private mixin(Any) object Thrice
    public fun thrice: (:n Int) -> Int [ ^ n * 3 ]
end''', "", "", "Thrice thrice: big", "3\n", ["Thrice::thrice:"], 6, 0),
    ("a context block's body", "", "",
     "Int addMethod: selector: #twice returnType: Int body: (:self Int)[ | -> Int | ^ self * 2 ];",
     "big ?twice", "2\n", ["ContextObject$1::eval"], 11, 0),
    ("recursion to the frame limit", "",
     "public fun m: (:n Int) -> Int [ if ( n > big ) [ ^ n ]; ^ self m: n + 1 ]", "",
     "self m: 0", "2\n", ["Program::m:"] * 2000, 6011, 0),
]


# the sends of `run` the checker fixes, where not its two sends of `m` and
# its two `Out println:` sends, a grammar builtin: a send to an object of a
# prototype that a mixin overrides is fixed, and its guard fails while the
# mixin is attached; so is `attachMixin:`, a builtin; `println:` with an
# argument of type Any, a `?` send's, is not
FIXED_IN_RUN = {"a method of an attached mixin": 6, "a method a mixin clause copies": 2,
                "a context block's body": 0}


@pytest.mark.parametrize("route", ["fixed", "probe"])
@pytest.mark.parametrize("row", SHAPE_ROWS, ids=[row[0] for row in SHAPE_ROWS])
def test_each_shape_of_method_keeps_its_outcome_counts_and_trace(row, route, monkeypatch):
    """A method whose function is generated (Program's `m`, `Sum`'s `eval:`,
    a method of a mixin entry, `Loud`'s copy of `thrice:`) and one that the
    general runner runs (a context block's body), sent where the checker
    fixes the send, which calls the function in place, and where it does not
    and the send probes its site's cache, which calls the adapter: the same
    stdout, trace, steps and evaluations on both routes.  A mixin's method
    runs on the mixin prototype itself, where the send may be fixed, and on
    an object it is attached to, whose mixin object the adapter passes.  A
    method's function pushes its frame, so the stack overflows at 2,000
    frames."""
    _name, protos, method, setup, call, before, trace, steps, evals = row
    if route == "probe":
        monkeypatch.setattr(PrototypeTable, "fixed_method", lambda self, name, shape: None)
    src = SHAPE_PROGRAM.replace("@PROTOS", protos).replace("@METHOD", method) \
        .replace("@SETUP", setup).replace("@CALL", call)
    status, out, interp = run_program(src)
    assert (status, out) == (2, before + "uncaught exception: StrException\n" +
                             "".join(f"  at {frame}\n" for frame in trace + ["Program::run"]))
    assert (interp.steps, interp.evals) == (steps, evals)
    decl = interp.table.get("Program").groups["run"].entries[0].decl
    fixed = [node for node in A.walk(decl.body)
             if isinstance(node, (A.UnarySend, A.KeywordSend)) and node.fixed is not None]
    assert len(fixed) == (0 if route == "probe" else FIXED_IN_RUN.get(row[0], 4))
    if method:
        m, = [m for m in interp.table.get("Program").methods if m.name.split(":")[0] == "m"]
        assert m.decl.fn.__name__ == "fn"


def test_an_adapter_refits_other_arguments_and_a_mixin_object():
    """The adapter calls the function in place for a method's own arity;
    else it drops an argument without a parameter, and with a mixin object
    the frame reads that object's fields and keeps its index."""
    status, out, interp = run_program('''package main
public object Program
    public fun m: (:a Int, :b Int) -> Int [ ^ a * big + b ]
    public fun run [ Out println: (self m: 1, 2); ]
    private :big Int = 10
end
''')
    assert (status, out) == (0, "12\n")
    m = interp.table.get("Program").groups["m:"].entries[0]
    main, owner = interp.proto_objects["Program"], ObjectV("Program")
    owner.fields["big"] = PrimV("Int", 100)
    args = [PrimV("Int", 3), PrimV("Int", 4), PrimV("Int", 5)]
    run = m.decl.code
    assert run(interp, m, main, args[:2], None).v == 34
    assert run(interp, m, main, args, None).v == 34
    assert run(interp, m, main, args[:2], None, (owner, 0)).v == 304
    assert interp.frames == []


# -- the fast turns of literal loops -------------------------------------------------------

FAST_LOOPS = '''package main
public object Program
    public fun run [
        :i = 0;
        :s = 0;
        [^ i < 3 ] whileTrue: [ s = s + i * 3; i = i + 1; ];
        [^ s < 4 ] whileFalse: [ s = s - 3; ];
        [ i = i - 1; s = s * 2; ] repeatUntil: [^ i <= 0 ];
        Out println: i, " ", s;
    ]
end
'''


def fast_turns(monkeypatch):
    """Spy on the fast turns made: [(the lines before the loop, the lines
    of its turn) or None], one per inline literal loop."""
    made, make = [], compiler._Turn.make

    def spy(self, *args):
        made.append(make(self, *args))
        return made[-1]
    monkeypatch.setattr(compiler._Turn, "make", spy)
    return made


def test_fast_turns_end_at_each_budget_as_the_send_path_does(monkeypatch):
    """Each of the three loops runs fast turns; at every budget, one that a
    turn straddles among them, the run ends where the send path ends it,
    with its stdout, trace, steps and evaluations."""
    made = fast_turns(monkeypatch)
    status, out, interp = run_program(FAST_LOOPS)
    assert (status, out) == (0, "0 24\n") and len(made) == 3 and None not in made
    assert (interp.steps, interp.evals) == (32, 18)
    for budget in range(1, interp.steps + interp.evals + 1):
        got, want = run_program(FAST_LOOPS, budget), run_program(FAST_LOOPS, budget, proven=False)
        assert got[:2] == want[:2], budget
        assert (got[2].steps, got[2].evals) == (want[2].steps, want[2].evals), budget


def test_an_overflow_in_a_fast_turn_runs_the_handler_and_leaves_the_local(monkeypatch):
    """A sum out of range fails the fast turn, which the send path runs
    again from its start: `s` is stored before `k + 100` overflows, as on
    the send path, and `k` keeps its value."""
    made = fast_turns(monkeypatch)
    src = '''package main
public object Program
    public fun run [
        :i = 0;
        :s = 0;
        :k = 2147483447;
        [ [^ i < 5 ] whileTrue: [ s = s + 1; k = k + 100; i = i + 1; ]; ]
            catch: [ |:e StrException| Out println: (e message), " ", i, " ", s, " ", k ];
        [^ i < 5 ] whileTrue: [ s = s + 1; k = k + 100; i = i + 1; ];
    ]
end
'''
    status, out, interp = run_program(src)
    assert made and None not in made
    assert (status, out) == (2, "Int overflow 2 3 2147483647\n"
                                "uncaught exception: StrException\n"
                                "  at Program::eval\n  at Program::run\n")
    _status, _out, slow = run_program(src, proven=False)
    assert (interp.steps, interp.evals) == (slow.steps, slow.evals) == (21, 10)


def test_a_method_replaced_between_runs_of_a_loop_takes_its_fast_turns(monkeypatch):
    """`+` replaced while an outer loop runs: the inner loop's fast turns
    test the method, and its sends go to the replacement."""
    made = fast_turns(monkeypatch)
    src = '''package main
public object Program
    public fun swapPlus [ :t Int = 0; t.{+ Int -> Int}. = [ |:x Int| ^x - 2 ]; ]
    public fun run [
        :j = 3;
        :i = 0;
        :s = 0;
        [^ j > 0 ] whileTrue: [
            i = 3;
            [^ i > 0 ] whileTrue: [ s = s + 10; i = i - 1; ];
            Out println: s;
            if ( j == 2 ) [ self swapPlus; ];
            j = j - 1;
        ];
    ]
end
'''
    status, out, interp = run_program(src)
    # the inner loop has a fast turn in the tree of the outer loop's body,
    # which runs on the outer loop's block path, and inline; the outer loop
    # has none
    assert [turn is None for turn in made] == [False, True, False]
    assert (status, out) == (0, "30\n60\n8\n")
    _status, _out, slow = run_program(src, proven=False)
    assert (interp.steps, interp.evals) == (slow.steps, slow.evals)


def test_a_nil_local_fails_the_kind_test_of_a_fast_turn(monkeypatch):
    """A local of a fast turn's sends that holds nil fails the turn's kind
    test: the send path runs the turn, where `+` refuses nil."""
    made = fast_turns(monkeypatch)
    src = '''package main
public object Program
    public fun run [
        :i = 0;
        :s = 0;
        :n Int = nil;
        [ [^ i < 3 ] whileTrue: [ i = i + 1; s = s + n; ]; ]
            catch: [ |:e DoesNotUnderstandException| Out println: "nil at ", i, " ", s ];
        n = 5;
        [^ i < 6 ] whileTrue: [ i = i + 1; s = s + n; ];
        Out println: i, " ", s;
    ]
end
'''
    status, out, interp = run_program(src)
    assert made and None not in made
    assert (status, out) == (0, "nil at 1 0\n6 25\n")
    _status, _out, slow = run_program(src, proven=False)
    assert (interp.steps, interp.evals) == (slow.steps, slow.evals)
