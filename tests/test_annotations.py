"""Annotations are declared where they live: AST nodes and table entries are
slotted, a pass can write only declared fields, the notes later passes read
are set, and they never show in the stage dumps."""

import glob
import inspect
import os

import pytest

from cyanine import cyast as A
from cyanine.desugar import Desugarer
from cyanine.driver import compile_program
from cyanine.interp import Interp
from cyanine.prototypes import MethodEntry, ProtoEntry

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
        elif isinstance(node, A.BlockLit) and (node.runtime_type is None or node.info is None):
            yield node
        elif isinstance(node, A.VarDeclStat) and (
                node.resolved_types is None or len(node.resolved_types) != len(node.decls)):
            yield node


def test_every_checked_method_body_is_annotated():
    compiled = 0
    for path in CORPUS:
        program = compile_program([(path, read(path))])
        if not program.ok():
            continue
        compiled += 1
        for entry in program.table.entries.values():
            if not isinstance(entry.decl, A.PrototypeDecl) or entry.is_mixin:
                continue
            for m in entry.methods:
                if m.decl is not None:
                    unset = list(unset_notes([m.decl.body, m.decl.body_expr]))
                    assert not unset, (path, entry.name, m.name, unset)
    assert compiled >= 60


# The checker leaves notes unset where it does not check: in a mixin's own
# bodies (it checks their flattened copies), which run when the mixin is
# attached at run time.  The interpreter then falls back to types of its own,
# each seen in this output.  Only the tuple's fallback is right: an
# `Array<Any>` or a `UBlockProto|UBlock` has no table entry, so every send to
# one fails, and `:n Int` starts as nil, not 0.  The initial values of slots
# with a declared type are checked, so their literals have their types.
UNCHECKED = """package main
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


def test_unchecked_code_runs_on_the_interpreters_fallbacks():
    program = compile_program([("<test>", UNCHECKED)])
    assert program.ok(), program.reporter.format_all()
    interp = Interp(program)
    assert interp.run() == 0
    assert interp.stdout().splitlines() == [
        "nil",
        "doesNotUnderstand: loop",
        "x",
        "'UBlockProto|UBlock' does not understand 'eval:'",
        "2",
        "a UTuple<Int, String>",
        "1",
    ]
