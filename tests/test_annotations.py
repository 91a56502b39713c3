"""Annotations are declared where they live: AST nodes and table entries are
slotted, a pass can write only declared fields, the notes later passes read
are set, and they never show in the stage dumps."""

import dataclasses
import glob
import inspect
import os

import pytest

from cyanine import cyast as A
from cyanine.compiler import Compiler
from cyanine.corpus import parse_directives
from cyanine.desugar import CTX_BIND, CTX_NEW, CTX_NEWOBJECT, Desugarer
from cyanine.driver import compile_program
from cyanine.grammar_methods import all_nodes
from cyanine.interp import Interp
from cyanine.prototypes import MethodEntry, PrototypeTable, ProtoEntry

ROOT = os.path.join(os.path.dirname(__file__), "..")
CORPUS = sorted(glob.glob(os.path.join(ROOT, "corpus", "*.cyan")))
NODE_CLASSES = [cls for _name, cls in inspect.getmembers(A, inspect.isclass)
                if issubclass(cls, A.Node)]


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("make", NODE_CLASSES + [
    lambda: ProtoEntry("P", "prototype"),
    lambda: MethodEntry("m", "unary", [], "Void"),
], ids=[cls.__name__ for cls in NODE_CLASSES] + ["ProtoEntry", "MethodEntry"])
def test_undeclared_attributes_are_rejected(make):
    obj = make()
    with pytest.raises(AttributeError):
        obj.undeclared = 1


def test_notes_stay_out_of_equality_repr_and_children():
    plain = A.ArrayLit([A.Lit("Int", 1)])
    noted = A.ArrayLit([A.Lit("Int", 1)], resolved_type="Array<Int>")
    assert plain == noted and repr(plain) == repr(noted)
    assert [name for name, _v in A.children(noted)] == ["elems"]
    assert A.ArrayLit.__match_args__ == ("elems",)


def test_a_resolved_type_expression_prints_its_resolved_name():
    t = A.tname("T")
    assert t.canonical() == "T"
    t.resolved = "Int"
    assert t.canonical() == "Int" and A.to_sexpr(t) == "(type Int)"


def test_later_passes_leave_the_dump_alone(monkeypatch):
    """The desugared units dump the same before and after the prototype
    table, the checker and block analysis annotate them."""
    desugared = []
    run = Desugarer.run

    def dumped_run(self):
        units = run(self)
        desugared.append((units, A.to_sexpr(units)))
        return units

    monkeypatch.setattr(Desugarer, "run", dumped_run)
    compiled = 0
    for path in CORPUS:
        desugared.clear()
        program = compile_program([(path, read(path))])
        for units, before in desugared:     # the program's, then each generic's
            assert A.to_sexpr(units) == before, path
        compiled += program.ok()
    assert compiled >= 60


def unset_notes(body):
    """Every node of a checked method body whose note the interpreter reads
    but that no pass set."""
    for node in A.walk(body):
        if isinstance(node, (A.ArrayLit, A.TupleLit)) and node.resolved_type is None:
            yield node
        elif isinstance(node, A.GenericRef) and node.resolved is None:
            yield node
        elif isinstance(node, A.BlockLit) and (node.runtime_type is None or node.info is None):
            yield node
        elif isinstance(node, A.VarDeclStat) and (
                node.resolved_types is None or len(node.resolved_types) != len(node.decls)):
            yield node


def uncompiled(entry):
    """Every body of `entry` the interpreter runs, and every block literal in
    one, that the compile step left without its code."""
    bodies = [var.init for var in entry.consts + entry.shared_vars + entry.ivars]
    for m in entry.methods:
        decl = m.decl
        if decl is None or m.ctx_marker is not None or m.is_stub:
            continue
        if decl.body is not None or decl.body_expr is not None:
            bodies.append(decl.body or decl.body_expr)
            if decl.code is None:
                yield decl
        if m.kind == "grammar":
            for node in all_nodes(m.regex):
                if isinstance(node, A.GSel) and node.argspec[0] == "default":
                    bodies.append(node.argspec[2])
                    if node.code is None:
                        yield node
    for var in entry.consts + entry.shared_vars + entry.ivars:
        if var.init is not None and var.code is None:
            yield var
    for node in A.walk(bodies):
        if isinstance(node, A.BlockLit) and node.code is None:
            yield node


def test_every_checked_method_body_is_annotated():
    """The checker leaves the notes the compile step reads on every method
    body, and the compile step leaves its code on every body the interpreter
    runs and every block literal: the program's, the prelude's and those of
    generic instances."""
    compiled = 0
    files = set()
    instances = defaults = 0
    extra = [MIXIN_BODIES, BOX_FROM_A_MIXIN, GRAMMAR_DEFAULTS]
    for path, source in [(path, read(path)) for path in CORPUS] + \
            [("<test>", source) for source in extra]:
        program = compile_program([(path, source)])
        if not program.ok():
            continue
        compiled += 1
        for entry in program.table.entries.values():
            if not isinstance(entry.decl, A.PrototypeDecl):
                continue
            files.add(entry.filename)
            instances += "<" in entry.name
            for m in entry.methods:
                if m.decl is not None:
                    unset = list(unset_notes([m.decl.body, m.decl.body_expr]))
                    assert not unset, (path, entry.name, m.name, unset)
                if m.kind == "grammar":
                    defaults += sum(isinstance(node, A.GSel) and node.code is not None
                                    for node in all_nodes(m.regex))
            assert not list(uncompiled(entry)), (path, entry.name)
    assert compiled >= 63
    assert "<prelude>" in files and instances > 0 and defaults > 0


# A mixin's own bodies run when it is attached at run time.  The checker
# checks them, with `self` the host named in `mixin(T)`, so the interpreter
# finds the notes it reads set there too: `:n Int` starts as 0, and the
# array and the block have types with table entries, so no send to them
# fails.
MIXIN_BODIES = """package main
private object Window
end
private object PrintDnu
    public fun eval: (:e DoesNotUnderstandException) [ Out println: e messageName ]
end
private mixin(Window) object Probe
    public fun local [ :n Int; Out println: n; ]
    public fun array [ {# 1, 2 #} size; ]
    public fun tuple [ Out println: [. 3, "x" .] f2; ]
    public fun block [ [ |:k Int| ^k ] eval: 1; ]
end
public object Program
    private shared :xs Array<Int> = {# 1, 2 #}
    private shared :t UTuple<Int, String> = [. 1, "a" .]
    private shared :b UBlock<Int><Int> = [ |:k Int| ^k ]
    public fun run [
        :w = Window new;
        w attachMixin: Probe;
        w ?local;
        [ w ?array ] catch: PrintDnu;
        w ?tuple;
        [ w ?block ] catch: PrintDnu;
        [ Out println: xs size ] catch: PrintDnu;
        Out println: t f2, " ", t prototypeName;
        [ Out println: (b eval: 1) ] catch: PrintDnu;
    ]
end
"""

# A generic instance named only in a mixin's body is made, and so checked,
# at compile time; the run finds it in the table.
BOX_FROM_A_MIXIN = """package main
private object Box<:T>
    public fun show [
        :n Int;
        Out println: n;
        Out println: {# 1, 2 #} size;
    ]
end
private object Window
end
private mixin(Window) object Boxer
    public fun boxes [ Box<String> new show; ]
end
public object Program
    public fun run [
        :w = Window new;
        w attachMixin: Boxer;
        w ?boxes;
        w ?boxes;
    ]
end
"""


# The default values of a grammar method's signature run too, when a send
# leaves their part out.
GRAMMAR_DEFAULTS = """package main
private object Window
    public fun (create: x1: Int (size: Int = {# 1, 2 #} size)? (b: Int = [ ^3 ] eval)?) :t [
        Out println: (t f2), " ", (t f3), " ", (t f4);
    ]
end
public object Program
    public fun run [
        Window create: x1: 0;
        Window create: x1: 1 size: 5;
    ]
end
"""


def program_nodes(program):
    """Every node of every prototype of a program: its own, the prelude's
    and the generic instances' (each table entry's declaration)."""
    for entry in program.table.entries.values():
        if entry.decl is not None:
            yield from A.walk(entry.decl)


def compiled_corpus():
    programs = [compile_program([(path, read(path))]) for path in CORPUS]
    return [p for p in programs if p.ok()]


def test_literals_and_statement_scopes_are_noted_at_compile_time():
    """The interpreter reads the value of an immutable literal, whether an
    `if` or `while` body needs a scope, and what a bare name denotes from
    notes the checker sets.  A String or Symbol literal is a new object at
    each evaluation.  Only the markers of a context object's native methods
    are names no run evaluates."""
    programs = compiled_corpus()
    assert len(programs) >= 60
    kinds = set()
    bindings = set()
    instances = 0
    for program in programs:
        instances += sum(entry.kind == "generated" and "<" in entry.name
                         for entry in program.table.entries.values())
        for node in program_nodes(program):
            if isinstance(node, A.Lit):
                kinds.add(node.kind)
                if node.kind in ("String", "RawString", "Symbol"):
                    assert node.runtime_value is None, node
                else:
                    assert node.runtime_value is not None, node
            elif isinstance(node, A.IfStat):
                assert node.scoped is not None and \
                    len(node.scoped) == len(node.arms) + 1, node
            elif isinstance(node, A.WhileStat):
                assert node.scoped is not None, node
            elif isinstance(node, A.NameRef):
                if node.binding is None:
                    assert node.name in (CTX_NEW, CTX_BIND, CTX_NEWOBJECT), node
                else:
                    bindings.add(node.binding[0])
    assert {"Int", "Char", "Boolean", "Float", "String", "Symbol", "Nil"} <= kinds
    assert bindings == {"local", "field", "static", "proto", "send"}
    assert instances > 0


def test_a_literal_of_an_immutable_kind_is_one_shared_value():
    program = compile_program([("<test>", """package main
public object Program
    public fun run [ Out println: 1 + 2; Out println: "a" ]
end
""")])
    run = program.table.get("Program").decl
    lits = {(node.kind, node.value): node for node in A.walk(run) if isinstance(node, A.Lit)}
    one, text = lits["Int", 1], lits["String", "a"]
    interp = Interp(program)
    compiler = Compiler(program.table, program.sites)
    one_code, text_code = compiler.expr(one), compiler.expr(text)
    assert one_code(interp, None, None) is one.runtime_value
    assert text_code(interp, None, None) is not text_code(interp, None, None)


def run_program(source):
    program = compile_program([("<test>", source)])
    assert program.ok(), program.reporter.format_all()
    interp = Interp(program)
    assert interp.run() == 0, interp.stdout()
    return interp.stdout().splitlines()


def test_mixin_bodies_are_checked():
    assert run_program(MIXIN_BODIES) == ["0", "x", "2", "a UTuple<Int, String>", "1"]


def test_a_generic_named_in_a_mixin_body_is_checked():
    assert run_program(BOX_FROM_A_MIXIN) == ["0", "2", "0", "2"]


def test_grammar_default_values_are_checked():
    assert run_program(GRAMMAR_DEFAULTS) == ["0 2 3", "1 5 3"]


def notes_of(program):
    """(node, note name, value, its repr) of each note of the program."""
    for node in program_nodes(program):
        for f in dataclasses.fields(node):
            if f.metadata.get("note"):
                value = getattr(node, f.name)
                yield node, f.name, value, repr(value)


def test_run_never_writes_the_table(monkeypatch):
    """Compile time ends before run time: no run adds an entry to the
    prototype table or changes an edge of it, and no run writes a note of
    a node."""
    runs = []
    extra = [MIXIN_BODIES, BOX_FROM_A_MIXIN, GRAMMAR_DEFAULTS]
    for source in [read(path) for path in CORPUS] + extra:
        program = compile_program([("<test>", source)])
        if program.ok():
            runs.append((program, parse_directives(source)[0]))
    assert len(runs) >= 63

    def written(self):
        raise AssertionError("the run wrote the prototype table")

    monkeypatch.setattr(PrototypeTable, "_edges_changed", written)
    for program, stdin_text in runs:
        before = list(notes_of(program))
        Interp(program, stdin_text=stdin_text).run()
        for node, name, value, text in before:
            now = getattr(node, name)
            assert now is value and repr(now) == text, (node, name)
