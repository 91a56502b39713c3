"""Sends the compile step binds from what the checker proved: sends of a
builtin to basic types call the handler, and whileTrue:, whileFalse: and
repeatUntil: sends of two block literals run the literals' bodies inline.
Both keep the steps, evaluations, traces and outcomes of the send path."""

import os

import pytest

from conftest import compile_src
from cyanine import compiler
from cyanine import cyast as A
from cyanine.interp import DeadCellRead, Interp

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
    killed = []
    kill = compiler._kill

    def spy(env, dying):
        killed.extend(env[slot] for slot in dying)
        kill(env, dying)
    monkeypatch.setattr(compiler, "_kill", spy)
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
    # the body's `k` per evaluation, then `i` when `run` ends
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
