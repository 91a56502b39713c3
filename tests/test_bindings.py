"""A bare name is resolved once, by the checker, and the interpreter reads
what it denotes from `NameRef.binding`: a local, an instance variable, a
shared variable or constant of the entry that declares it, a prototype, or
an implicit unary self-send.  The run follows the checker's scoping rules,
also where the run-time object has fields the checker does not see."""

import pytest

from cyanine import cyast as A

from conftest import run_src


def test_a_method_hides_an_ancestors_private_field(run):
    code, out, _ = run('''package main
private object A
    private var :label String = "field of A"
end
private object B extends A
    public fun label -> String [ ^ "method of B" ]
    public fun show [ Out println: label ]
end
public object Program
    public fun run [ B new show ]
end
''')
    assert (code, out) == (0, "method of B\n")


def test_a_subtypes_private_field_does_not_hide_a_method(run):
    code, out, _ = run('''package main
private object A
    public fun label -> String [ ^ "method of A" ]
    public fun show [ Out println: label ]
end
private object B extends A
    private var :label String = "field of B"
end
public object Program
    public fun run [ B new show ]
end
''')
    assert (code, out) == (0, "method of A\n")


def test_a_local_is_the_one_its_scope_declares(run):
    """Each local gets its address at compile time: a block parameter hides
    the outer local of its name, two sibling `if` bodies each have their own
    `y`, a block reads locals two envs up, and the outer local is unchanged."""
    code, out, _ = run('''package main
public object Program
    public fun run [
        :x = 1;
        :b = [ |:x Int| ^x ];
        Out println: (b eval: 2);
        if ( x == 1 ) [ :y = 6; Out println: y; ];
        if ( x == 1 ) [ :y = 70; Out println: [ ^ y * x ] eval; ];
        Out println: x;
    ]
end
''')
    assert (code, out) == (0, "2\n6\n70\n1\n")


def test_a_reference_parameter_binds_the_local_it_names(run):
    """A `&` context parameter binds the cell of the local named by the
    argument: one declared in an `if` body, in a block, or outside a block."""
    code, out, _ = run('''package main
private object Sum(:sum &Int) implements Block<Int><Void>
    public fun eval: (:x Int) [ sum = sum + x; ]
end
public object Program
    public fun run [
        :v = {# 1, 2, 3 #};
        :go = true;
        if ( go ) [ :s Int = 0; v foreach: Sum(s); Out println: s; ];
        [ :t Int = 10; v foreach: Sum(t); Out println: t; ] eval;
        :u Int = 100;
        [ v foreach: Sum(u); ] eval;
        Out println: u;
    ]
end
''')
    assert (code, out) == (0, "6\n16\n106\n")


def test_a_shared_variable_is_its_declaring_entrys(run):
    code, out, _ = run('''package main
private object A
    private shared :count Int = 1
    public fun bump -> Int [ count = count + 1; ^ count ]
end
private object B extends A
    private shared :count Int = 100
    public fun mine -> Int [ ^ count ]
end
public object Program
    public fun run [
        :b = B new;
        Out println: b bump, " ", b bump, " ", b mine;
    ]
end
''')
    assert (code, out) == (0, "2 3 100\n")


@pytest.mark.parametrize("later", ["b", "self.b"])
def test_a_slot_reading_a_later_slot_is_a_cyan_exception(run, later):
    code, out, _ = run(f'''package main
public object Program
    private :a Int = {later} + 1
    private :b Int = 2
    public fun run [ Out println: a ]
end
''')
    assert code == 2 and out.startswith("uncaught exception: StrException\n"), out


# One name of each kind; `Tag prototypeName` names a prototype.
KINDS = {"loc": "local", "fld": "field", "shr": "static", "cst": "static",
         "meth": "send", "Tag": "proto"}
VARIABLES = '''
    private :fld String = "field"
    private shared :shr String = "shared"
    private const :cst = "const"
    public fun meth -> String [ ^ "send" ]
'''
ALL = 'loc asString + " " + fld + " " + shr + " " + cst + " " + meth + " " + Tag prototypeName'
ALL_OUT = "1 field shared const send Tag\n"


def program(host="", run="", mixin=None, host_clause=""):
    probe = f'''private mixin(Host) object Probe
{VARIABLES}{mixin}
end
''' if mixin is not None else ""
    return f'''package main
private object Tag
end
private object Host{host_clause}
{host}
end
{probe}public object Program
    public fun run [ {run} ]
end
'''


CONTEXTS = {
    "method": (program(VARIABLES + f"public fun show [ :loc = 1; Out println: {ALL} ]",
                       "Host show"), ALL_OUT),
    "block": (program(VARIABLES + f"public fun show [ [ |:loc Int| Out println: {ALL} ] eval: 1 ]",
                      "Host show"), ALL_OUT),
    "if body": (program(VARIABLES + f"public fun show [ if ( true ) [ :loc = 1; Out println: {ALL} ] ]",
                        "Host show"), ALL_OUT),
    "static mixin": (program("", "Host new show", mixin=f"public fun show [ :loc = 1; Out println: {ALL} ]",
                             host_clause=" mixin Probe"), ALL_OUT),
    "attached mixin": (program("", ":h = Host new; h attachMixin: Probe; h ?show",
                               mixin=f"public fun show [ :loc = 1; Out println: {ALL} ]"), ALL_OUT),
    "context block": (program(
        VARIABLES,
        "Host addMethod: selector: #show: body: (:self Host)"
        "[ |:loc Int| Out println: loc asString + \" \" + meth + \" \" + Tag prototypeName ];"
        " Host ?show: 1"), "1 send Tag\n"),
    "slot initial value": (program(
        VARIABLES + f"private :line String = [ |:loc Int| ^ {ALL} ] eval: 1\n"
        "public fun show [ Out println: line ]", "Host new show"), ALL_OUT),
    "grammar default": (program(
        VARIABLES + f"public fun (show: Int (line: String = ([ |:loc Int| ^ {ALL} ] eval: 1))?) :t"
        " [ Out println: (t f2) ]", "Host show: 0"), ALL_OUT),
}


@pytest.mark.parametrize("context", list(CONTEXTS))
def test_each_kind_of_name_runs_as_the_checker_bound_it(context):
    source, expected = CONTEXTS[context]
    code, out, prog = run_src(source)
    assert (code, out) == (0, expected)
    seen = set()
    for entry in prog.table.entries.values():
        if entry.decl is None:
            continue
        for node in A.walk(entry.decl):
            if isinstance(node, A.NameRef) and node.name in KINDS:
                kind, owner = node.binding
                assert kind == KINDS[node.name], (context, entry.name, node)
                if kind == "static":
                    declared = prog.table.get(owner).shared_vars + prog.table.get(owner).consts
                    assert node.name in [v.name for v in declared], (context, owner, node)
                seen.add(node.name)
    assert seen == ({"loc", "meth", "Tag"} if context == "context block" else set(KINDS))

