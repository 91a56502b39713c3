"""Sends the compile step binds from what the checker proved: sends of a
builtin to basic types call the handler, whileTrue:, whileFalse: and
repeatUntil: sends of two block literals run the literals' bodies inline,
and a user send that class-hierarchy analysis fixes calls its method's
runner.  All keep the steps, evaluations, traces and outcomes of the send
path."""

import os

import pytest

from conftest import compile_src
from cyanine import compiler
from cyanine import cyast as A
from cyanine.interp import DeadCellRead, Interp
from cyanine.prototypes import PrototypeTable

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def run_counted(monkeypatch, src, max_steps=None, stdin=""):
    """Run `src`; answers (exit status, stdout, the Interp, the number of
    block evaluations that went through `eval_block_value`)."""
    program = compile_src(src)
    assert program.ok(), program.reporter.format_all()
    calls = []
    eval_block_value = Interp.eval_block_value

    def counted(self, blk, args):
        calls.append(blk)
        return eval_block_value(self, blk, args)
    monkeypatch.setattr(Interp, "eval_block_value", counted)
    interp = Interp(program, stdin_text=stdin)
    if max_steps is not None:
        interp.max_steps = max_steps
    status = interp.run()
    return status, interp.stdout(), interp, len(calls)


def sends_of(program, proto="Program", method="run"):
    decl = program.table.get(proto).groups[method].entries[0].decl
    return [node for node in A.walk(decl.body)
            if isinstance(node, (A.UnarySend, A.BinarySend, A.PrefixOp, A.KeywordSend))]


# -- sends bound to a builtin ------------------------------------------------------

REPLACED = '''package main
public object Program
    public fun run [
        :a = 3;
        a.{+ Int -> Int}. = [ |:x Int| ^42 ];
        Out println: a + 1;
        Out println: 5 + 1;
    ]
end
'''


def test_a_replaced_operator_takes_its_bound_sends(monkeypatch):
    """Replacing `+` on one Int replaces it for every Int: both sends are
    bound, and both answer the replacement."""
    program = compile_src(REPLACED)
    plus = [node for node in sends_of(program) if isinstance(node, A.BinarySend)]
    assert len(plus) == 2 and all(node.site is None for node in plus)
    assert run_counted(monkeypatch, REPLACED)[:2] == (0, "42\n42\n")


def test_add_method_needs_an_object_receiver(monkeypatch):
    status, out, _interp, _evals = run_counted(monkeypatch, '''package main
public object Program
    public fun run [
        :a = 3;
        [ a addMethod: selector: #foo body: (:self Int)[ Out println: "foo" ]; ]
            catch: [ |:e StrException| Out println: (e message) ];
        Out println: a + 1;
    ]
end
''')
    assert (status, out) == (0, "addMethod: needs an object receiver\n4\n")


def test_an_added_method_on_the_int_prototype_overtakes_bound_sends(monkeypatch):
    """`addMethod:` reaches Int values through the prototype `Int`: a body it
    gives takes the message before the builtin, so a bound send to an Int
    must find it (or else the binding would follow the caches' epoch)."""
    src = '''package main
public object Program
    public fun run [
        Out println: 3 asString, " ", (3 == 3), " ", -3;
        Int addMethod: selector: #asString returnType: String
            body: (:self Int)[ | -> String | ^"forty-two" ];
        Out println: 3 asString, " ", (3 == 3), " ", -3;
    ]
end
'''
    program = compile_src(src)
    bound = [node for node in sends_of(program) if node.site is None]
    assert sorted(type(node).__name__ for node in bound) == \
        ["BinarySend"] * 2 + ["PrefixOp"] * 2 + ["UnarySend"] * 2
    status, out, _interp, _evals = run_counted(monkeypatch, src)
    assert (status, out) == (0, "3 true -3\nforty-two true -3\n")


def test_a_nil_receiver_of_a_bound_send_does_not_understand(monkeypatch):
    status, out, interp, _evals = run_counted(monkeypatch, '''package main
public object Program
    public fun run [
        :n Int = nil;
        Out println: n + 1;
    ]
end
''')
    assert (status, out) == (2, "uncaught exception: DoesNotUnderstandException\n"
                                "  at Program::run\n")
    assert (interp.steps, interp.misses, interp.skips) == (2, 0, 2)


# -- loops of block literals ---------------------------------------------------------

def test_an_overflow_in_an_inlined_loop_body_is_traced_in_the_block(monkeypatch):
    status, out, interp, evals = run_counted(monkeypatch, '''package main
public object Program
    public fun run [
        :i = 2147483640;
        [^ i > 0 ] whileTrue: [ i = i + 1; ];
    ]
end
''')
    assert (status, out) == (2, "uncaught exception: StrException\n"
                                "  at Program::eval\n  at Program::run\n")
    assert (interp.steps, interp.evals, evals) == (18, 16, 0)


ENDLESS = '''package main
public object Program
    public fun run [
        :i = 0;
        [^ i >= 0 ] whileTrue: [ ++i; ];
    ]
end
'''


@pytest.mark.parametrize("max_steps, frames, steps, evals", [
    (7, ["eval", "run"], 5, 3),
    (1000, ["run"], 501, 500),         # before the condition's evaluation
    (1001, ["eval", "run"], 502, 500),     # at the condition's send
    (1002, ["run"], 502, 501),         # before the body's evaluation
    (1003, ["eval", "run"], 503, 501),     # at the body's send
])
def test_an_endless_inlined_loop_spends_the_budget_as_the_block_path(
        monkeypatch, max_steps, frames, steps, evals):
    """The steps, evaluations and trace where the budget runs out are those
    of the block path, which runs each evaluation through `eval_block_value`
    and the block's runner."""
    status, out, interp, calls = run_counted(monkeypatch, ENDLESS, max_steps=max_steps)
    assert status == 2 and calls == 0
    assert out == f"step budget of {max_steps} exhausted\n" + \
        "".join(f"  at Program::{name}\n" for name in frames)
    assert (interp.steps, interp.evals) == (steps, evals)


def test_return_leaves_the_method_and_caret_ends_the_evaluation(monkeypatch):
    status, out, interp, evals = run_counted(monkeypatch, '''package main
private object Finder
    public fun first: (:limit Int) -> Int [
        :i = 0;
        [^ true ] whileTrue: [
            if ( i * i > limit ) [ return i ];
            ++i;
        ];
        return -1;
    ]
    public fun odd: (:limit Int) -> Int [
        :i = 0;
        :n = 0;
        [^ i < limit ] whileTrue: [
            ++i;
            if ( i % 2 == 0 ) [ ^ ];
            ++n;
        ];
        return n;
    ]
    public fun until: (:limit Int) -> Int [
        :i = 0;
        [ ++i; if ( i > limit ) [ return i * 10 ]; ] repeatUntil: [^ false ];
        return 0;
    ]
end
public object Program
    public fun run [
        Out println: (Finder first: 50), " ", (Finder odd: 5), " ", (Finder until: 3);
    ]
end
''')
    assert (status, out) == (0, "8 3 40\n")
    assert (interp.steps, interp.evals, evals) == (67, 36, 0)


def test_a_replaced_loop_method_takes_the_literal_loops(monkeypatch):
    status, out, _interp, evals = run_counted(monkeypatch, '''package main
public object Program
    public fun run [
        :b = [^ true ];
        b.{whileTrue: Block}. = [ |:x Block| Out println: "replaced" ];
        [^ true ] whileTrue: [ Out println: "never" ];
        Out println: "done";
    ]
end
''')
    assert (status, out, evals) == (0, "replaced\ndone\n", 1)


def test_after_add_method_literal_loops_send_their_blocks(monkeypatch):
    """Once `addMethod:` has given any prototype a body, a loop of block
    literals sends its two block values, the general way."""
    status, out, interp, evals = run_counted(monkeypatch, '''package main
public object Program
    public fun run [
        :i = 0;
        [^ i < 2 ] whileTrue: [ ++i; ];
        Any addMethod: selector: #whileTrue: param: Any
            body: (:self Any)[ |:p Any| Out println: "added" ];
        [^ i < 4 ] whileTrue: [ ++i; ];
        Out println: i;
    ]
end
''')
    assert (status, out) == (0, "4\n")
    assert (interp.evals, evals) == (5 + 5, 5)


def test_a_condition_that_answers_nothing_throws(monkeypatch):
    """Each evaluation of an inlined condition starts without a value, as a
    block's frame does: one that answers nothing is no Boolean."""
    status, out, interp, evals = run_counted(monkeypatch, '''package main
public object Program
    public fun run [
        :i = 0;
        [ if ( i < 3 ) [ ^ true ]; ] whileTrue: [ Out println: i; ++i; ];
        Out println: "done";
    ]
end
''', max_steps=1000)
    assert (status, out) == (2, "0\n1\n2\nuncaught exception: StrException\n"
                                "  at Program::run\n")
    assert (interp.steps, interp.evals, evals) == (12, 7, 0)


def test_a_loop_whose_block_declares_a_local_takes_the_block_path(monkeypatch):
    """Each evaluation of a body with a local gets an env of its own, whose
    cell dies when the evaluation ends; reading it then is a dead-cell read."""
    killed, made = [], []
    kill, eval_block_value = compiler._kill, Interp.eval_block_value

    def spy(env, dying):
        killed.extend(env[slot] for slot in dying)
        kill(env, dying)

    def spy_eval(self, blk, args):
        made.append(blk)
        return eval_block_value(self, blk, args)
    monkeypatch.setattr(compiler, "_kill", spy)
    monkeypatch.setattr(Interp, "eval_block_value", spy_eval)
    status, out, interp, evals = run_counted(monkeypatch, '''package main
public object Program
    public fun run [
        :i = 0;
        [^ i < 3 ] whileTrue: [
            :k = i * 10;
            Out println: [^ k + 1 ] eval;
            ++i;
        ];
    ]
end
''')
    assert (status, out) == (0, "1\n11\n21\n")
    assert evals == 4 + 3 + 3      # conditions, bodies, inner blocks
    # the body's `k` per evaluation, in the block runner; `i`, which the
    # loop's blocks see, is a cell of `run`'s env that its function kills
    # when `run` ends
    killed.append(made[0].env[1])
    assert [cell.value.v for cell in killed] == [0, 10, 20, 3]
    assert not any(cell.alive for cell in killed)
    with pytest.raises(DeadCellRead):
        interp.cell_read(killed[0])


def test_the_loops_corpus_program_runs_inline(monkeypatch):
    with open(os.path.join(CORPUS, "69_loops.cyan"), encoding="utf-8") as fh:
        src = fh.read()
    program = compile_src(src)
    loops = [node for node in sends_of(program) if isinstance(node, A.KeywordSend)
             and node.builtin is not None and node.builtin[0].builtin in compiler._LOOPS]
    assert sorted(node.builtin[0].builtin for node in loops) == \
        ["repeat_until", "while_false", "while_true"]
    status, out, interp, evals = run_counted(monkeypatch, src)
    assert (status, out, evals) == (0, "0 1 2 3 4 .\n0 1 2 3 4 .\n1 2 3 .\n", 0)
    assert interp.evals == 2 * 5 + 1 + 2 * 5 + 1 + 2 * 3


# -- user sends that class-hierarchy analysis fixes ----------------------------------

FIB = '''package main
private object Base
    public fun twice: (:n Int) -> Int [ ^n + n ]
end
private object Derived extends Base
    public override fun twice: (:n Int) -> Int [ ^super twice: n ]
end
public object Program
    public fun fib: (:n Int) -> Int [
        if ( n < 2 ) [ return n ];
        return (self fib: n - 1) + (self fib: n - 2);
    ]
    public fun run [
        :b Base = Derived new;
        Out println: (self fib: 10), " ", (b twice: 2);
    ]
end
'''


def fixed_of(program, proto, method, message):
    """The `fixed` notes of the sends of `message` in `proto`'s `method`."""
    return [node.fixed for node in sends_of(program, proto, method)
            if isinstance(node, A.KeywordSend) and node.message_name == message]


def test_a_fixed_send_calls_its_runner_and_never_misses(monkeypatch):
    """`self fib:` reaches one method on every prototype a Program can be,
    so its three sends are fixed and look nothing up, as do the
    `primitiveNew` send of `Derived new`, a fixed builtin send, and the
    `Out println:` send, a fixed grammar builtin: the run misses 4 times,
    where their caches made it 9.  `b twice:` is not fixed, as Derived
    overrides `twice:`, nor is the `super` send."""
    program = compile_src(FIB)
    fib = program.table.get("Program").groups["fib:"].entries[0]
    assert fixed_of(program, "Program", "fib:", "fib:") == [(fib, frozenset({"Program"}))] * 2
    assert fixed_of(program, "Program", "run", "fib:") == [(fib, frozenset({"Program"}))]
    assert fixed_of(program, "Program", "run", "twice:") == [None]
    assert fixed_of(program, "Derived", "twice:", "twice:") == [None]     # super
    status, out, interp, _evals = run_counted(monkeypatch, FIB)
    assert (status, out) == (0, "55 4\n")
    assert (interp.steps, interp.evals, interp.misses, interp.skips) == (626, 0, 4, 1)


def test_a_send_with_an_any_argument_is_not_fixed(monkeypatch):
    """The checker lets an argument of type Any through to any parameter;
    the run's lookup refuses a String for an Int."""
    src = '''package main
public object Program
    public fun f: (:n Int) -> Int [ ^n ]
    public fun run [
        :a Any = "s";
        Out println: (self f: a);
    ]
end
'''
    assert fixed_of(compile_src(src), "Program", "run", "f:") == [None]
    status, out, _interp, _evals = run_counted(monkeypatch, src)
    assert (status, out) == (2, "uncaught exception: DoesNotUnderstandException\n"
                                "  at Program::run\n")


def test_a_send_with_a_private_overload_is_not_fixed(monkeypatch):
    """The checker finds the public overload; the run's lookup, which has no
    visibility rule, the private one first, so two candidates leave the send
    to the lookup."""
    src = '''package main
private object A
    private fun f: (:x Int) -> String [ ^"private" ]
    public fun f: (:x Any) -> String [ ^"public" ]
end
public object Program
    public fun run [ Out println: (A f: 1); ]
end
'''
    assert fixed_of(compile_src(src), "Program", "run", "f:") == [None]
    assert run_counted(monkeypatch, src)[:2] == (0, "private\n")


def test_a_sub_prototype_of_a_world_prototype_fails_the_guard(monkeypatch):
    """The world's bodies are checked and compiled once, for every program:
    `e message` in StrException's `eval:` is fixed for the prototypes of
    the world alone, so a program's sub-prototype that overrides `message`
    takes the send's cache."""
    src = '''package main
private object Loud extends StrException
    public override fun message -> String [ ^"loud" ]
end
public object Program
    public fun run [
        :e StrException = Loud new;
        Out println: (e message);
        [ throw: Loud new; ] catch: StrException;
    ]
end
'''
    program = compile_src(src)
    eval_decl = program.table.get("StrException").groups["eval:"].entries[0].decl
    message, = [node.fixed for node in A.walk(eval_decl.body)
                if isinstance(node, A.UnarySend) and node.selector == "message"]
    assert message[1] == frozenset({"StrException"})
    assert run_counted(monkeypatch, src)[:2] == (2, "loud\nloud\n")


# -- builtin sends that class-hierarchy analysis fixes ------------------------------

BUILTIN_PROGRAM = '''package main
private object MyIn extends In
end
private mixin(In) object FakeIn
    public override fun readInt -> Int [ ^ 50 ]
end
public object Program
    public fun run [
        :i In = MyIn new;
        :t UTuple<Int, String> = UTuple<Int, String> new;
        :u UUnion<Int, String> = UUnion<Int, String> new;
        :v Array<Int> = {# 1, 2, 3 #};
        t f1: 4;
        u f2: "s";
        @SETUP
        Out println: @SEND;
        Out println: @SEND;
    ]
end
'''

DNU = "uncaught exception: DoesNotUnderstandException\n  at Program::run\n"

# (name, statements before the two sends, the send, (exit status, stdout),
# whether the send's guard fails, the prototypes the analysis allows or None
# for what the checker notes); the sends of the families of
# `value_class`: an object (In), a tuple, a union and an array
BUILTIN_ROWS = [
    ("In", "", "(In readInt)", (0, "1\n2\n"), False, None),
    ("In with an addMethod: body",
     "In addMethod: selector: #readInt returnType: Int body: (:self In)[ | -> Int | ^ 60 ];",
     "(In readInt)", (0, "60\n60\n"), True, None),
    ("In's readInt replaced", "In.{readInt -> Int}. = [ ^ 70 ];", "(In readInt)",
     (0, "70\n70\n"), True, None),
    ("In with a mixin attached", "In attachMixin: FakeIn;", "(In readInt)",
     (0, "50\n50\n"), True, None),
    # a world body is checked before a program declares its sub-prototypes
    ("a program's sub-prototype of In", "", "(i readInt)", (0, "1\n2\n"), True, {"In"}),
    ("a MyIn", "", "(i readInt)", (0, "1\n2\n"), False, None),
    ("a tuple", "", "(t f1)", (0, "4\n4\n"), False, None),
    ("a tuple's getter replaced", "t.{f1 -> Int}. = [ ^ 8 ];", "(t f1)", (0, "8\n8\n"),
     True, None),
    ("a tuple's setter sent nil", "t f1: nil;", "(t f1)", (2, DNU), True, None),
    ("a tuple of a type not allowed", "", "(t f1)", (0, "4\n4\n"), True, set()),
    ("a union", "", "(u contains: #f2)", (0, "true\ntrue\n"), False, None),
    ("a union's contains: replaced",
     "u.{contains: CySymbol -> Boolean}. = [ |:s CySymbol -> Boolean| ^ false ];",
     "(u contains: #f2)", (0, "false\nfalse\n"), True, None),
    ("a union sent contains: nil", "", "(u contains: nil)", (2, DNU), True, None),
    ("a union of a type not allowed", "", "(u contains: #f2)", (0, "true\ntrue\n"), True,
     set()),
    ("an array", "", "(v size)", (0, "3\n3\n"), False, None),
    ("an array's size replaced", "v.{size -> Int}. = [ ^ 9 ];", "(v size)", (0, "9\n9\n"),
     True, None),
    ("an array sent foreach: nil", "", "(v foreach: nil)", (2, DNU), True, None),
    ("an array of a type not allowed", "", "(v size)", (0, "3\n3\n"), True, set()),
]


@pytest.mark.parametrize("row", BUILTIN_ROWS, ids=[row[0] for row in BUILTIN_ROWS])
def test_a_fixed_builtin_send_calls_its_handler_while_its_guard_holds(row, monkeypatch):
    """A send to a builtin that class-hierarchy analysis fixes calls the
    builtin's handler while the receiver is a value of a prototype the
    analysis allowed, no argument is nil, and no bound value, `addMethod:`
    body or mixin may take the message; else it probes its site.  Either
    way, the run gives the stdout, exit status, steps and evaluations of
    the run in which the send is not fixed, and where the guard fails, its
    misses and skips too."""
    name, setup, send, outcome, falls_back, allowed = row
    src = BUILTIN_PROGRAM.replace("@SETUP", setup).replace("@SEND", send)
    selector = send[1:-1].split()[1]
    fixed_method = PrototypeTable.fixed_method

    def noted(table, proto, shape):
        found = fixed_method(table, proto, shape)
        if found is None or allowed is None or shape[0][0] != selector:
            return found
        return found[0], frozenset(allowed)

    def unfixed(table, proto, shape):
        return None if shape[0][0] == selector else noted(table, proto, shape)
    runs = []
    for analysis in (noted, unfixed):
        with monkeypatch.context() as patch:
            patch.setattr(PrototypeTable, "fixed_method", analysis)
            program = compile_src(src)
            nodes = [node for node in sends_of(program)
                     if getattr(node, "message_name", getattr(node, "selector", None))
                     == selector]
            assert len(nodes) == 2, name
            assert all((node.fixed is not None) == (analysis is noted) for node in nodes)
            assert all(node.fixed is None or node.fixed[0].builtin is not None
                       for node in nodes)
            status, out, interp, _evals = run_counted(patch, src, stdin="1 2 3")
        assert (status, out) == outcome, name
        runs.append((interp.steps, interp.evals, interp.misses, interp.skips))
    (steps, evals, misses, skips), probed = runs
    assert (steps, evals) == probed[:2]
    if falls_back:
        assert (misses, skips) == probed[2:]
    else:
        assert misses + skips < probed[2] + probed[3]


# -- grammar builtins that class-hierarchy analysis fixes ----------------------------

GRAMMAR_PROGRAM = '''package main
private object MyOut extends Out
end
private mixin(Out) object Quiet
    public fun println: (:x Int) [ Out print: "quiet "; ]
end
private object Box
    public fun twice: (:n Int) [ Out print: "twice ", n * 2, " "; ]
    public fun (sum: (Int)+) :t [ Out print: "sum "; ]
end
public object Program
    public fun run [
        :o Out = MyOut new;
        :m MyOut = MyOut new;
        :b Box = Box new;
        :xs Array<Int> = {# 1, 2 #};
        :t = [. 1, "a" .];
        @SETUP
        @SEND;
        @SEND;
    ]
end
'''

OWN_PRINTLN = 'm addMethod: selector: #println: param: Int ' \
    'body: (:self MyOut)[ |:x Int| Out print: "own ", x, " " ];'

# (name, statements before the two sends, the send, its message, (exit
# status, stdout), whether the send's guard fails, the prototypes the
# analysis allows or None for what the checker notes): the builtins with a
# grammar, which read the message themselves; Out's `println:` and `print:`,
# and Any's `switch:`, `selector:param:` and `addMethod:`, to an object, an
# array or a tuple
GRAMMAR_ROWS = [
    ("Out println:", "", 'Out println: 1, " ", "a"', "println:", (0, "1 a\n1 a\n"),
     False, None),
    ("Out print:", "", "Out print: 1, \"-\", 'c'", "print:", (0, "1-c1-c"), False, None),
    ("Out println: nil", "", "Out println: nil", "println:", (0, "nil\nnil\n"), True, None),
    ("Out println: with nil after another argument", "", "Out println: 1, nil", "println:",
     (0, "1nil\n1nil\n"), True, None),
    ("Out with a mixin attached", "Out attachMixin: Quiet;", "Out println: 5", "println:",
     (0, "quiet quiet "), True, None),
    ("Out with an addMethod: body for another message",
     "Out addMethod: selector: #hello returnType: Int body: (:self Out)[ | -> Int | ^ 1 ];",
     "Out println: 5", "println:", (0, "5\n5\n"), True, None),
    ("Out with an addMethod: body for println:",
     'Out addMethod: selector: #println: param: Int '
     'body: (:self Out)[ |:x Int| Out print: "added ", x, " " ];',
     "Out println: 5", "println:", (0, "added 5 added 5 "), True, None),
    ("a program's sub-prototype of Out", "", "o println: 3", "println:", (0, "3\n3\n"),
     False, None),
    # a world body is checked before a program declares its sub-prototypes
    ("a program's sub-prototype of Out, not allowed", "", "o println: 3", "println:",
     (0, "3\n3\n"), True, {"Out"}),
    ("a MyOut with a println: of its own", OWN_PRINTLN, "m println: 4", "println:",
     (0, "own 4 own 4 "), True, None),
    ("another MyOut than the one with a println: of its own", OWN_PRINTLN, "o println: 4",
     "println:", (0, "4\n4\n"), False, None),
    ("switch:", "", 'b switch: case: b do: [ Out print: "same " ] else: [ Out print: "other " ]',
     "switch:case:do:else:", (0, "same same "), False, None),
    ("selector:param:", "", "b selector: #twice: param: 3", "selector:param:",
     (0, "twice 6 twice 6 "), False, None),
    ("switch: on a tuple", "", 't switch: case: t do: [ Out print: "same " ]',
     "switch:case:do:", (0, "same same "), False, None),
    ("selector:param: on an array", "",
     'xs selector: #foreach: param: [ |:e Int| Out print: e, " " ]', "selector:param:",
     (0, "1 2 1 2 "), False, None),
    # the first send gives `b` a method of its own, which the second one's guard sees
    ("addMethod:", "", "b addMethod: selector: #hello returnType: Int "
     "body: (:self Box)[ | -> Int | ^ 1 ]", "addMethod:selector:returnType:body:", (0, ""),
     False, None),
]


def message_of(node):
    return getattr(node, "message_name", getattr(node, "selector", None))


@pytest.mark.parametrize("row", GRAMMAR_ROWS, ids=[row[0] for row in GRAMMAR_ROWS])
def test_a_fixed_grammar_builtin_calls_its_handler_while_its_guard_holds(row, monkeypatch):
    """A builtin with a grammar reads the message itself, so a send that
    class-hierarchy analysis fixes to one calls its handler with the
    message, with no packing plan, under the guard of any fixed builtin
    send: the receiver a value of a prototype the analysis allowed, with
    no mixin and no method of its own, no argument nil, and no
    `addMethod:` body anywhere; else it probes its site.  Either way, the
    run gives the stdout, exit status, steps and evaluations of the run in
    which the send is not fixed, and where the guard fails, its misses and
    skips too."""
    name, setup, send, message, outcome, falls_back, allowed = row
    src = GRAMMAR_PROGRAM.replace("@SETUP", setup).replace("@SEND", send)
    fixed_method = PrototypeTable.fixed_method

    def sent(shape):
        return "".join(sel for sel, _ in shape) == message

    def noted(table, proto, shape):
        found = fixed_method(table, proto, shape)
        if found is None or allowed is None or not sent(shape):
            return found
        return found[0], frozenset(allowed)

    def unfixed(table, proto, shape):
        return None if sent(shape) else noted(table, proto, shape)
    runs = []
    for analysis in (noted, unfixed):
        with monkeypatch.context() as patch:
            patch.setattr(PrototypeTable, "fixed_method", analysis)
            program = compile_src(src)
            run = program.table.get("Program").groups["run"].entries[0].decl
            nodes = [st.expr for st in run.body[-2:]]
            assert [message_of(node) for node in nodes] == [message] * 2, name
            for node in nodes:
                assert (node.fixed is not None) == (analysis is noted), name
                assert node.fixed is None or node.fixed[0].kind == "grammar" \
                    and node.fixed[0].builtin is not None
            status, out, interp, _evals = run_counted(patch, src)
        assert (status, out) == outcome, name
        runs.append((interp.steps, interp.evals, interp.misses, interp.skips))
    (steps, evals, misses, skips), probed = runs
    assert (steps, evals) == probed[:2]
    if falls_back:
        assert (misses, skips) == probed[2:]
    else:
        assert misses + skips < probed[2] + probed[3]


def test_a_grammar_send_is_fixed_only_to_a_builtin_and_without_an_any_argument():
    """`println:` and `print:` are fixed with any number of arguments of
    types other than Any; an argument of type Any, which the run's match may
    refuse, leaves the send to the lookup, as does a grammar method with a
    body, whose argument a packing plan makes.  A sub-prototype of Out
    cannot add a candidate: no method may override a grammar method."""
    src = GRAMMAR_PROGRAM.replace("@SETUP", ":any Any = 1;").replace(
        "        @SEND;\n        @SEND;\n", """        b sum: 1, 2;
        Out println: 1, "a", 'c', 2.5;
        m print: "s", 2;
        Out print: 1, any;
        Out println: any;
""")
    program = compile_src(src)
    assert program.ok(), program.reporter.format_all()
    out = program.table.get("Out")
    println, print_out = out.groups["println:"].entries[0], out.groups["print:"].entries[0]
    run = program.table.get("Program").groups["run"].entries[0].decl
    assert [st.expr.fixed for st in run.body[-5:]] == [
        None, (println, frozenset({"Out", "MyOut"})), (print_out, frozenset({"MyOut"})),
        None, None]
    interp = Interp(program)
    assert (interp.run(), interp.stdout()) == (0, "sum 1ac2.5\ns2111\n")
    loud = src.replace("end\nprivate mixin", "    public fun println: (:s String) [ ]\n"
                                              "end\nprivate mixin", 1)
    assert "it is not possible to override grammar methods" in \
        compile_src(loud).reporter.format_all()
