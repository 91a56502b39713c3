"""Fused sends: a send the checker bound to a builtin for basic types runs
in the tree that holds it (`compiler._Tree.proven`), which reads its
operands, applies the builtin and may store into a local.  It keeps the
outcomes, steps, skips and traces of the send path: overflows, dead cells,
nil operands, replaced and added methods, and the step budget."""

import pytest

from conftest import compile_src
from cyanine import cyast as A
from cyanine.compiler import Compiler, Frame, _Scope
from cyanine.interp import DeadCellRead, Interp
from cyanine.values import Cell, PrimV


def run_program(src, max_steps=None):
    """Run `src`: (exit status, stdout, the Interp)."""
    program = compile_src(src)
    assert program.ok(), program.reporter.format_all()
    interp = Interp(program)
    if max_steps is not None:
        interp.max_steps = max_steps
    return interp.run(), interp.stdout(), interp


def test_an_overflow_at_each_width_leaves_the_local_as_it_was():
    status, out, interp = run_program('''package main
public object Program
    public fun run [
        :b = 127b;
        :s = -32768s;
        :i = 2147483647;
        :l = 9223372036854775807l;
        [ b = b + 1b; ] catch: [ |:e StrException| Out println: (e message) ];
        [ s = s - 1s; ] catch: [ |:e StrException| Out println: (e message) ];
        [ ++i; ] catch: [ |:e StrException| Out println: (e message) ];
        [ l = l * 2l; ] catch: [ |:e StrException| Out println: (e message) ];
        Out println: b, " ", s, " ", i, " ", l;
        ++i;
    ]
end
''')
    assert (status, out) == (2, "Byte overflow\nShort overflow\nInt overflow\nLong overflow\n"
                                "127 -32768 2147483647 9223372036854775807\n"
                                "uncaught exception: StrException\n  at Program::run\n")
    assert (interp.steps, interp.evals, interp.misses, interp.skips) == (24, 8, 5, 1)


def fused_read(leaf_depth):
    """The code of `a + 1`, a tree of one, with `a` a local at `leaf_depth`,
    and an interpreter to run it."""
    program = compile_src('''package main
public object Program
    public fun inc: (:a Int) -> Int [ ^ a + 1 ]
    public fun run [ ]
end
''')
    decl = program.table.get("Program").groups["inc:"].entries[0].decl
    node, = [n for n in A.walk(decl.body) if isinstance(n, A.BinarySend)]
    compiler = Compiler(program.table, program.sites)
    compiler.scope.declare("a", dies=False)
    for _ in range(leaf_depth):
        compiler.scope = _Scope(compiler.scope)
    code = compiler.tree(node)
    interp = Interp(program)
    return code, interp, Frame("Program", "inc:", None, None)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_a_fused_leaf_reads_a_dead_cell_as_an_error(depth):
    code, interp, frame = fused_read(depth)
    cell = Cell(PrimV("Int", 4))
    env = [None, cell]
    for _ in range(depth):
        env = [env]
    assert code(interp, env, frame).v == 5
    cell.alive = False
    if depth == 0:
        # a cell of an env the tree holds cannot die while the tree runs, so
        # its read tests nothing
        assert code(interp, env, frame).v == 5
        assert interp.steps == 2
        return
    with pytest.raises(DeadCellRead):
        code(interp, env, frame)
    assert interp.steps == 1


@pytest.mark.parametrize("stat, steps", [
    ("Out println: n + 1;", 2), ("Out println: n < k;", 2), ("Out println: k + n * 2;", 2),
    ("++n;", 2),
    # an Int argument nil: `+` does not take it, and doesNotUnderstand: is sent
    ("Out println: 1 + n;", 3), ("k = k + n;", 3),
])
def test_a_nil_operand_does_not_understand(stat, steps):
    """A nil operand fails the guard: the send goes to `Interp.send`, which
    counts it as a skip."""
    status, out, interp = run_program(f'''package main
public object Program
    public fun run [
        :n Int = nil;
        :k = 3;
        {stat}
    ]
end
''')
    assert (status, out) == (2, "uncaught exception: DoesNotUnderstandException\n"
                                "  at Program::run\n")
    assert (interp.steps, interp.misses, interp.skips) == (steps, 0, steps)


def test_a_replaced_operator_takes_over_in_the_middle_of_a_loop():
    status, out, interp = run_program('''package main
public object Program
    public fun run [
        :i = 0;
        [^ i < 3 ] whileTrue: [
            Out println: i + 100;
            if ( i == 1 ) [ i.{+ Int -> Int}. = [ |:x Int| ^7 ]; ];
            i = i + 1;
        ];
        Out println: i, " ", 1 + 1;
    ]
end
''')
    assert (status, out) == (0, "100\n101\n7 7\n")
    assert (interp.steps, interp.evals, interp.misses, interp.skips) == (17, 7, 0, 5)


def test_an_added_method_takes_over_in_the_middle_of_a_loop():
    status, out, interp = run_program('''package main
public object Program
    public fun run [
        :i = 0;
        [^ i < 3 ] whileTrue: [
            Out println: i asString, " ", i + 1;
            if ( i == 1 ) [
                Int addMethod: selector: #asString returnType: String
                    body: (:self Int)[ | -> String | ^"added" ];
            ];
            ++i;
        ];
    ]
end
''')
    assert (status, out) == (0, "0 1\n1 2\nadded 3\n")
    assert (interp.steps, interp.evals, interp.misses, interp.skips) == (24, 7, 2, 10)


COUNTDOWN = '''package main
public object Program
    public fun run [
        :i = 2;
        i = i - 1;
        :j = i * 5;
        [^ j > 0 ] whileTrue: [ j = j - i - 1; ];
        Out println: j;
    ]
end
'''


@pytest.mark.parametrize("max_steps, frames, steps, evals", [
    (1, ["run"], 2, 0),             # i - 1, stored
    (2, ["run"], 3, 0),             # i * 5
    (3, ["run"], 4, 0),             # whileTrue:
    (4, ["run"], 4, 1),             # before the test's evaluation
    (5, ["eval", "run"], 5, 1),     # j > 0
    (6, ["run"], 5, 2),             # before the body's evaluation
    (7, ["eval", "run"], 6, 2),     # j - i, the operand of a fused send
    (8, ["eval", "run"], 7, 2),     # (j - i) - 1, stored
    (9, ["run"], 7, 3),             # before the second test's evaluation
])
def test_the_budget_runs_out_at_a_fused_send_with_the_trace_of_the_send_path(
        max_steps, frames, steps, evals):
    """The send of `run` is the first step; a fused send counts its step
    before it applies the builtin, in the frame of the evaluation."""
    status, out, interp = run_program(COUNTDOWN, max_steps=max_steps)
    assert status == 2
    assert out == f"step budget of {max_steps} exhausted\n" + \
        "".join(f"  at Program::{name}\n" for name in frames)
    assert (interp.steps, interp.evals) == (steps, evals)


def test_the_countdown_runs_to_its_end():
    status, out, interp = run_program(COUNTDOWN)
    assert (status, out) == (0, "-1\n")
    assert (interp.steps, interp.evals, interp.misses, interp.skips) == (15, 7, 0, 1)
