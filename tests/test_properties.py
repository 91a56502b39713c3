"""Cross-module property tests: random hierarchies against the reachability
oracle, random regexes against the derivation rules, bl monotonicity,
and static-resolution soundness by exhaustive runtime enumeration."""

import itertools
import re

from hypothesis import given, settings, strategies as st

from conftest import compile_src
from cyanine.checker import Checker, _Env
from cyanine.cyast import (BinarySend, GAlt, GOpt, GPlus, GSel, GSeq, GStar, KeywordSend,
                          MethodAccess, NameRef, PrefixOp, SigRef, TypeExpr, UnarySend, walk)
from cyanine.diagnostics import Reporter
from cyanine.compiler import mixin_at, send_key
from cyanine.grammar_methods import derive_parameter_type, match_message, plan_packing
from cyanine.interp import CyThrow, Interp
from cyanine.prototypes import BASIC_TYPES
from cyanine.values import NIL, ArrayV, ObjectV, PrimV, TupleV, UnionV
from test_runtime import flattened_slot_scan


# --- random hierarchies: is_subtype == brute-force reachability ---------------

@st.composite
def hierarchies(draw):
    """A random single-inheritance DAG with interfaces."""
    n_proto = draw(st.integers(min_value=1, max_value=6))
    n_iface = draw(st.integers(min_value=0, max_value=3))
    protos = [f"P{i}" for i in range(n_proto)]
    ifaces = [f"K{i}" for i in range(n_iface)]
    edges = {}
    lines = []
    for i, name in enumerate(ifaces):
        supers = draw(st.lists(st.sampled_from(ifaces[:i]), unique=True, max_size=2)) \
            if i else []
        edges[name] = set(supers)
        ext = (" extends " + ", ".join(supers)) if supers else ""
        lines.append(f"private interface {name}{ext} end")
    for i, name in enumerate(protos):
        sup = draw(st.sampled_from(protos[:i])) if i and draw(st.booleans()) else None
        impls = draw(st.lists(st.sampled_from(ifaces), unique=True, max_size=2)) \
            if ifaces else []
        edges[name] = set(impls) | ({sup} if sup else set())
        ext = f" extends {sup}" if sup else ""
        imp = (" implements " + ", ".join(impls)) if impls else ""
        lines.append(f"private object {name}{ext}{imp} end")
    src = "package main\n" + "\n".join(lines) + \
        "\npublic object Program\n    public fun run [ ]\nend\n"
    return src, edges, protos + ifaces


def reach(edges, s, t):
    seen, work = set(), [s]
    while work:
        cur = work.pop()
        if cur == t:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        work.extend(edges.get(cur, ()))
    return False


@given(hierarchies())
@settings(max_examples=40, deadline=None)
def test_random_hierarchy_subtype_equals_reachability(data):
    src, edges, names = data
    program = compile_src(src)
    assert not program.reporter.has_errors(), program.reporter.format_all()
    table = program.table
    for s, t in itertools.product(names, names):
        assert table.is_subtype(s, t) == reach(edges, s, t), (s, t, src)
        assert table.reaches(s, t) == (reach(edges, s, t) or t == "Any"), (s, t, src)
    for s in names:
        chain = [e.name for e in table.dispatch_chain(s)]
        assert chain[0] == s and chain[-1] == "Any", (s, chain, src)
        # a prototype's chain is its supertypes; an interface's is every
        # interface it reaches, and the root interfaces extend AnyInterface
        is_iface = table.get(s).is_interface
        searched = {n for n in names if reach(edges, s, n)
                    and (is_iface or not table.get(n).is_interface)}
        roots = {"AnyInterface", "Any"} if is_iface else {"Any"}
        assert len(chain) == len(set(chain)) and set(chain) == searched | roots, \
            (s, chain, src)


# --- random eat: overloads: static resolution == dynamic lookup ----------------

EMPTY_PROGRAM = """public object Program
    public fun run [ ]
end
"""


@st.composite
def eat_hierarchies(draw, program=EMPTY_PROGRAM):
    """Random Food and Animal trees; each animal declares `eat:` overloads
    for a random set of foods in a random textual order, each returning its
    own number."""
    def tree(root, size):
        names = [root] + [f"{root}{i}" for i in range(1, size)]
        return names, {n: draw(st.sampled_from(names[:i])) for i, n in enumerate(names) if i}
    foods, food_sup = tree("Food", draw(st.integers(min_value=1, max_value=4)))
    animals, animal_sup = tree("Animal", draw(st.integers(min_value=1, max_value=3)))
    lines = [f"private object {f}" + (f" extends {food_sup[f]}" if f in food_sup else "")
             + " end" for f in foods]
    for i, a in enumerate(animals):
        params = draw(st.lists(st.sampled_from(foods), unique=True))
        if not i:       # the root answers every food, so every send resolves
            params = draw(st.permutations(sorted(set(params) | {"Food"})))
        ext = f" extends {animal_sup[a]}" if i else ""
        over = "override " if i else ""
        lines.append(f"private object {a}{ext}")
        lines += [f"    public {over}fun eat: (:food {p}) -> Int [ return {10 * i + k} ]"
                  for k, p in enumerate(params)]
        lines.append("end")
    src = "package main\n" + "\n".join(lines) + "\n" + program
    return src, animals, foods


@given(eat_hierarchies())
@settings(max_examples=40, deadline=None)
def test_static_and_dynamic_dispatch_agree(data):
    """A send and a `.{sig}` find the same method in the checker and in the
    run when the types agree: a send the first overload in the flattened
    slot list that takes the argument, a `.{eat: F -> Int}` the first
    overload declared with exactly that parameter type."""
    src, animals, foods = data
    program = compile_src(src)
    assert not program.reporter.has_errors(), program.reporter.format_all() + src
    table = program.table
    checker = Checker(table, Reporter())
    interp = Interp(program)
    interp.setup()
    for r, a in itertools.product(animals, foods):
        static = checker.resolve_send(r, [("eat:", [a])], None)[1]
        hit = interp.lookup(interp.proto_objects[r], [("eat:", [interp.proto_objects[a]])])
        assert hit is not None, (r, a, src)
        expected = flattened_slot_scan(interp, r, a)
        assert static is hit[1][0] is expected, (r, a, static, hit, expected, src)
    for r in animals:
        env = _Env()
        env.declare("x", r)
        overloads = [m for entry in table.chain(r) for m in entry.methods if m.name == "eat:"]
        for m in overloads:
            sig = SigRef("keyword", "eat:", [TypeExpr(m.param_types[0])], TypeExpr("Int"))
            static = checker.check_method_access(MethodAccess(NameRef("x"), sig), env)[1]
            dynamic = interp.resolve_sig(interp.proto_objects[r], sig)
            expected = next(x for x in overloads if x.param_types == m.param_types)
            assert static is dynamic is expected, (r, m, static, dynamic, src)


# --- inline caches: every cached method is what a fresh lookup finds ----------

FEEDER = """private mixin(Animal) object Picky
    public override fun eat: (:food Food) -> Int [ return 100 ]
end
private mixin(Animal) object Plain
    public fun shade -> Int [ return 0 ]
end
private object Grammar
    public fun ( (take: (Int | String | Food)*) (with: Int)? ) :t -> Any [ ^t ]
end
public object Program
    public fun feed: (:a Animal, :f Food) -> Int [ return a eat: f ]
    public fun take: (:a Any, :b Any) -> Any [ ^Grammar take: a, b ]
    public fun takeWith: (:a Any, :b Any, :c Int) -> Any [ ^Grammar take: a, b with: c ]
    public fun add: (:a Animal) [
        a addMethod: selector: #eat param: Food returnType: Int
            body: (:self Animal)[ |:p Food -> Int| ^200 ];
    ]
    public fun replace: (:a Animal) [ a.{eat: Food}. = [ |:p Food -> Int| ^300 ]; ]
    public fun attach: (:a Animal) [ a attachMixin: Picky; ]
    public fun plain: (:a Animal) [ a attachMixin: Plain; ]
    public fun pop: (:a Animal) [ a popMixin; ]
    public fun run [ ]
end
"""


def eat_value(interp, recv, food):
    """What `recv eat: food` answers, by a fresh lookup."""
    kind, payload = interp.lookup(recv, [("eat:", [food])])
    if kind == "own":       # addMethod:
        return 200
    m = payload[0]
    if m in recv.own_methods or m in interp.bound_values:   # replaced on recv or its prototype
        return 300
    return m.decl.body[0].value.value


def fresh_receiver(interp, key):
    """A new object whose receiver key is `key`: a prototype name, or (a
    prototype name, the names of its mixins, most recently attached first)."""
    proto, mixins = key if isinstance(key, tuple) else (key, ())
    obj = interp.instantiate(interp.table.get(proto))
    obj.mixins = [interp.instantiate(interp.table.get(name)) for name in mixins]
    return obj


def unpack(v):
    """A grammar method's argument as plain Python values, to compare."""
    if isinstance(v, ArrayV):
        return ("array", v.type_name, [unpack(x) for x in v.elems])
    if isinstance(v, TupleV):
        return ("tuple", v.type_name, [unpack(x) for x in v.values])
    if isinstance(v, UnionV):
        return ("union", v.type_name, v.tag, None if v.payload is None else unpack(v.payload))
    if isinstance(v, PrimV):
        return (v.kind, v.v)
    return v


@given(eat_hierarchies(program=FEEDER), st.data())
@settings(max_examples=40, deadline=None)
def test_inline_cache_agrees_with_fresh_lookup(data, steps):
    """Every receiver and food sent through one site, before and after each
    of a sequence of addMethod:, method replacements, attachMixin: and
    popMixin: each send answers what a fresh lookup finds, and each cache
    entry is what a fresh lookup finds for a new object of its receiver key
    (the mixin index too), and for a receiver without mixins the method the
    flattened textual-order scan finds.  Arguments of every value and type
    sent through one grammar-method site are packed as a fresh match and its
    plan pack them, and each entry of that site keeps the plan of a fresh
    match of its argument types."""
    src, animals, foods = data
    program = compile_src(src)
    assert program.ok(), program.reporter.format_all() + src
    interp = Interp(program)
    interp.setup()
    table = program.table
    objects = interp.proto_objects
    main = objects["Program"]
    site = table.get("Program").groups["feed:"].entries[0].decl.body[0].value
    receivers = [objects[a] for a in animals] + \
        [interp.instantiate(table.get(a)) for a in animals]
    # one object per type with no mixins and no methods of its own
    plain = {t: interp.instantiate(table.get(t)) for t in animals + foods}
    plain["Int"], plain["String"] = PrimV("Int", 0), PrimV("String", "")
    mutations = steps.draw(st.lists(st.tuples(
        st.sampled_from(["add", "replace", "attach", "plain", "pop"]),
        st.sampled_from(receivers)), min_size=1, max_size=8))
    for mutation in [None] + mutations:
        if mutation is not None:
            op, recv = mutation
            interp.send(main, [(op + ":", [recv])])
        for recv, food in itertools.product(receivers, foods):
            expected = eat_value(interp, recv, objects[food])
            assert interp.send(main, [("feed:", [recv, objects[food]])]).v == expected, \
                (mutations, src)
        for (rkey, ftype), (_handler, m, owner, index, plan) in \
                interp.inline_caches[site.site].items():
            recv = fresh_receiver(interp, rkey)
            again = interp.lookup(recv, [("eat:", [plain[ftype]])])
            assert again == ("static", (m, owner, mixin_at(recv, index), None)), \
                (rkey, ftype, mutations, src)
            assert send_key(interp, recv, [plain[ftype]]) == (rkey, ftype)
            if index is None:
                assert m is flattened_slot_scan(interp, recv.proto, ftype), \
                    (rkey, ftype, mutations, src)

    grammar, g_entry = objects["Grammar"], table.get("Grammar")
    g_method = next(m for m in g_entry.methods if m.kind == "grammar")

    def fresh_plan(shape):
        return plan_packing(g_method.regex, match_message(
            g_method.automaton, shape, interp.runtime_type, interp.reaches))

    def shape_of(selector, args):
        return [("take:", args[:2])] + ([("with:", args[2:])] if selector == "takeWith:" else [])

    arg = st.one_of(st.integers(-3, 3).map(lambda v: PrimV("Int", v)),
                    st.text(max_size=2).map(lambda v: PrimV("String", v)),
                    st.sampled_from(foods).map(lambda f: objects[f]))
    sends = steps.draw(st.lists(st.one_of(
        st.tuples(st.just("take:"), st.lists(arg, min_size=2, max_size=2)),
        st.tuples(st.just("takeWith:"), st.tuples(arg, arg, st.integers(-3, 3)).map(
            lambda t: [t[0], t[1], PrimV("Int", t[2])]))), min_size=1, max_size=12))
    for selector, args in sends:
        answer = interp.send(main, [(selector, args)])
        expected = interp.execute_plan(fresh_plan(shape_of(selector, args)), grammar, g_entry,
                                       args)
        assert unpack(answer) == unpack(expected), (selector, args, src)
    for selector in ("take:", "takeWith:"):
        g_site = table.get("Program").groups[selector].entries[0].decl.body[0].value
        for (_rkey, *types), (_handler, m, owner, index, plan) in \
                interp.inline_caches[g_site.site].items():
            assert (m, owner, index) == (g_method, g_entry, None)
            assert plan == fresh_plan(shape_of(selector, [plain[t] for t in types])), \
                (selector, types, src)


# --- checked sends never fail: attached mixins included ------------------------

# statements of a mixin body; `{i}` keeps the locals of each apart
MIXIN_STATEMENTS = (
    ":n{i} Int; Out println: n{i} + 1;",
    ":s{i} String; :ok{i} Boolean; Out println: s{i} size, ok{i};",
    ":xs{i} = {{# 1, 2, 3 #}}; Out println: xs{i} size + (xs{i} at: 0);",
    ":fs{i} = {{# Food new, Food new #}}; Out println: (self eat: (fs{i} at: 1));",
    ":b{i} = [ |:k Int -> Int| ^k * 2 ]; Out println: (b{i} eval: 21);",
    ":t{i} = [. {i}, \"x\" .]; Out println: t{i} f2 size + t{i} f1;",
    ":r{i} Int = super eat: Food new; Out println: r{i} + (self eat: Food new);",
    "Out println: (twice: {i}) + (self twice: {i});",
)


@given(eat_hierarchies(program=""),
       st.lists(st.lists(st.sampled_from(MIXIN_STATEMENTS), min_size=1, max_size=4),
                min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_checked_sends_are_understood(data, bodies):
    """In a program the checker accepts, no send it resolved raises
    DoesNotUnderstandException: here every animal, with a mixin attached
    whose bodies declare typed locals, array and tuple literals and blocks,
    and send to self (the mixin's methods and the host's) and to super.
    Nothing catches, so any such exception would end the run with status 2."""
    src, animals, _foods = data
    methods = ["    public fun twice: (:k Int) -> Int [ return 2 * k ]"]
    methods += [f"    public fun m{k} [ "
                + " ".join(stat.format(i=i) for i, stat in enumerate(body)) + " ]"
                for k, body in enumerate(bodies)]
    run = []
    for j, animal in enumerate(animals):
        run += [f":a{j} = {animal} new;", f"a{j} attachMixin: Diet;"]
        run += [f"a{j} ?m{k};" for k in range(len(bodies))]
        run += [f"a{j} popMixin;", f"Out println: (a{j} eat: Food new);"]
    src += ("\nprivate mixin(Animal) object Diet\n" + "\n".join(methods) + "\nend\n"
            + "public object Program\n    public fun run [\n        "
            + "\n        ".join(run) + "\n    ]\nend\n")
    program = compile_src(src)
    assert program.ok(), program.reporter.format_all() + src
    interp = Interp(program)
    assert interp.run() == 0, interp.stdout() + src


# --- bound sends: the checker's builtin for final basic types ------------------

# sends a program makes of the parameters `a` and `b` of a method: the type
# of `a`, the expression, the type of `b` or None, the signature of the
# method it resolves to, and a value of that method's type for a
# replacement, or None
AS_STRING = ("Int", "a asString", None, "asString -> String", '"r"')
BASIC_SENDS = (
    ("Int", "a + b", "Int", "+ Int -> Int", "7"),
    ("Int", "a + b", "Any", "+ Int -> Int", "7"),
    ("Int", "a == b", "Float", "== Any -> Boolean", "true"),
    ("Int", "a == b", "Int", "== Int -> Boolean", "false"),
    ("Int", "a % b", "Int", "% Int -> Int", "7"),
    ("Int", "a <.< b", "Int", "<.< Int -> Int", "7"),
    ("Int", "a eq: b", "Int", "eq: Any -> Boolean", "false"),
    ("Int", "-a", None, "- -> Int", "7"),
    AS_STRING,
    ("Int", "a asByte", None, "asByte -> Byte", None),
    ("Long", "a * b", "Long", "* Long -> Long", None),
    ("Byte", "a - b", "Byte", "- Byte -> Byte", None),
    ("Float", "a / b", "Float", "/ Float -> Float", None),
    ("Double", "a < b", "Double", "< Double -> Boolean", "true"),
    ("Char", "a <= b", "Char", "<= Char -> Boolean", "true"),
    ("Char", "a asInt", None, "asInt -> Int", "7"),
    ("Char", "a != b", "Int", "!= Any -> Boolean", "true"),
    ("Boolean", "a && b", "Boolean", "&& Boolean -> Boolean", "true"),
    ("Boolean", "!a", None, "! -> Boolean", "true"),
    ("Boolean", "a != b", "Boolean", "!= Boolean -> Boolean", "true"),
)

_WIDTHS = {"Byte": 8, "Short": 16, "Int": 32, "Long": 64}


def basic_values(kind):
    """Values of the basic type `kind`, or of any type for `Any`."""
    if kind == "Any":
        return st.one_of(st.sampled_from(sorted(BASIC_TYPES)).flatmap(basic_values),
                         st.text(max_size=2).map(lambda v: PrimV("String", v)))
    if kind in _WIDTHS:
        top = 2 ** (_WIDTHS[kind] - 1)
        values = st.one_of(st.integers(-3, 3), st.integers(-top, top - 1))
    elif kind in ("Float", "Double"):
        values = st.floats(width=32 if kind == "Float" else 64)
    elif kind == "Char":
        values = st.characters(max_codepoint=0x7f)
    else:
        values = st.booleans()
    return values.map(lambda v: PrimV(kind, v))


# how a method reads the operands of its send (in its tree): its
# parameters, locals at depth 0 ("param"); the same from a block, at depth
# 1 ("block"); as "param", storing the value into a local ("store"); a
# literal argument ("literal"); a receiver that nested bound sends answer
# ("nested")
LEAVES = ("param", "block", "store", "literal", "nested")

# per basic type, a literal and its value; for Char and Boolean, bound
# sends that answer their receiver, as source and as the selectors that
# `Interp.send` sends (other types use `+a`)
LITERALS = {"Int": ("7", 7), "Long": ("7l", 7), "Byte": ("7b", 7), "Short": ("7s", 7),
            "Float": ("1.5f", 1.5), "Double": ("1.5d", 1.5), "Char": ("'c'", "c"),
            "Boolean": ("true", True)}
IDENTITIES = {"Char": ("((a asInt) asChar)", ["asInt", "asChar"]),
              "Boolean": ("(!(!a))", ["!", "!"])}


def leaf_source(expr, rtype, atype, leaf):
    """The body of a method that makes the send `expr` of `a` and `b`."""
    if leaf == "literal" and atype in LITERALS:
        expr = re.sub(r"\bb\b", LITERALS[atype][0], expr)
    elif leaf == "nested":
        expr = re.sub(r"\ba\b", IDENTITIES.get(rtype, ("(+a)",))[0], expr)
    return {"block": f"^ [^ {expr} ] eval", "store": f":r Any; r = {expr}; ^ r"}.get(
        leaf, f"^ {expr}")


def bound_send_program(sends, leaves):
    """A program whose method `s{i}:` makes the send `sends[i]` of its
    parameters, reading them as `leaves[i]` says, `r{i}` replaces that
    send's method for every receiver (when it has a replacement value), and
    `add` gives `Int` an `asString` body."""
    methods = []
    for i, ((rtype, expr, atype, sig, value), leaf) in enumerate(zip(sends, leaves)):
        params = f"(:a {rtype}, :b {atype})" if atype else f"(:a {rtype})"
        methods.append(f"    public fun s{i}: {params} -> Any"
                       f" [ {leaf_source(expr, rtype, atype, leaf)} ]")
        if value is not None:
            ptypes = sig.split("->")[0].split()[1:]
            param = f"|:x {ptypes[0]}| " if ptypes else ""
            methods.append(f"    public fun r{i} [ :a {rtype};"
                           f" a.{{{sig}}}. = [ {param}^{value} ]; ]")
    methods.append('    public fun add [ Int addMethod: selector: #asString returnType: String'
                   ' body: (:self Int)[ | -> String | ^"added" ]; ]')
    return "package main\npublic object Program\n" + "\n".join(methods) + \
        "\n    public fun run [ ]\nend\n"


def message_of(node, arg=None):
    """The selector of the send `node` and its shape with the argument `arg`."""
    if isinstance(node, (UnarySend, PrefixOp)):
        selector = node.selector if isinstance(node, UnarySend) else node.op
        return selector, [(selector, [])]
    selector = node.op if isinstance(node, BinarySend) else node.parts[0][0]
    return selector, [(selector, [arg])]


def outcome(interp, send):
    """What `send()` answers, or the type and fields of what it throws.  A
    builtin that reads the value of a nil argument fails in Python, on the
    bound path and on `Interp.send` alike, so the error's type is an
    outcome too."""
    try:
        return "answer", repr(unpack(send()))
    except CyThrow as t:
        fields = t.value.fields if isinstance(t.value, ObjectV) else {}
        return "throw", interp.runtime_type(t.value), \
            sorted((k, repr(unpack(v))) for k, v in fields.items())
    except AttributeError as e:
        return "error", str(e)


def sent(interp, recv, rtype, leaf, shape):
    """What `Interp.send` answers for `shape` sent to `recv`, or to what the
    nested identity sends answer for `recv`."""
    if leaf == "nested":
        for selector in IDENTITIES.get(rtype, (None, ["+"]))[1]:
            recv = interp.send(recv, [(selector, [])])
    return interp.send(recv, shape)


def send_node(decl, selector, unary):
    """The first send of `selector` in the body of `decl`, in pre-order."""
    return next(node for node in walk(decl.body)
                if type(node) in (UnarySend, PrefixOp, BinarySend, KeywordSend)
                and message_of(node, None)[0] == selector
                and (len(message_of(node, None)[1][0][1]) == 0) == unary)


@given(st.lists(st.sampled_from(BASIC_SENDS), min_size=1, max_size=5, unique=True), st.data())
@settings(max_examples=40, deadline=None)
def test_bound_sends_agree_with_fresh_lookup(sends, data):
    """A send is bound (has no inline cache) exactly where the checker
    resolved it to a builtin for a receiver and an argument of basic types,
    and the method it calls is what a fresh `lookup` finds for values of
    those kinds.  Sent any values of its parameters' types, nil included,
    before and after replacements of its method and, last, an `addMethod:`
    body for `asString` on `Int`, each bound send (`a asString` always among
    them) answers or throws what `Interp.send` of the same message to the
    same receiver does, however it reads its operands (`LEAVES`)."""
    sends = [AS_STRING] + [send for send in sends if send is not AS_STRING]
    leaves = [data.draw(st.sampled_from(LEAVES)) for _ in sends]
    src = bound_send_program(sends, leaves)
    program = compile_src(src)
    assert program.ok(), program.reporter.format_all() + src
    interp = Interp(program)
    interp.setup()
    main = interp.proto_objects["Program"]
    entry = program.table.get("Program")
    nodes = [send_node(entry.groups[f"s{i}:"].entries[0].decl, sig.split()[0], atype is None)
             for i, (_rtype, _expr, atype, sig, _value) in enumerate(sends)]
    for node, (rtype, _expr, atype, _sig, _value) in zip(nodes, sends):
        assert (node.site is None) == (atype != "Any"), (node, src)
        if node.site is None:
            m, kind, kinds = node.builtin
            assert kind == rtype and kinds == ((atype,) if atype else ()), (node, src)
            assert kind in BASIC_TYPES and all(k in BASIC_TYPES for k in kinds)
            selector, shape = message_of(node, *[interp.default_value(k) for k in kinds])
            hit = interp.lookup(interp.default_value(kind), shape)
            assert hit is not None and hit[0] == "static" and hit[1][0] is m, (node, src)
    replaceable = [f"r{i}" for i, send in enumerate(sends) if send[4] is not None]
    mutations = data.draw(st.lists(st.sampled_from(replaceable), max_size=3)) + ["add"]
    nil_or = lambda kind: st.one_of(st.just(NIL), basic_values(kind))
    for mutation in [None] + mutations:
        if mutation is not None:
            interp.send(main, [(mutation, [])])
        for i, (node, (rtype, _expr, atype, _sig, _value), leaf) in enumerate(
                zip(nodes, sends, leaves)):
            for _ in range(3):
                recv = data.draw(nil_or(rtype))
                args = [data.draw(nil_or(atype))] if atype else []
                sent_args = [PrimV(atype, LITERALS[atype][1])] \
                    if leaf == "literal" and atype in LITERALS else args
                got = outcome(interp, lambda: interp.send(main, [(f"s{i}:", [recv, *args])]))
                want = outcome(interp, lambda: sent(interp, recv, rtype, leaf,
                                                    message_of(node, *sent_args)[1]))
                assert got == want, (node, leaf, recv, args, mutations, src)


# --- fixed sends: a bound user send runs as the cached send does -----------------

FIXED_TYPES = ("Int", "String", "Any")

# the argument expressions of a send of `f:` and the parameter type, besides
# Any, that a public overload needs to take each; None where any does
FIXED_ARGS = {"1": "Int", '"s"': "String", "nil": None, "any": None}

# what the run does to the receiver `r` between two sends
FIXED_MUTATIONS = {
    "replace": "r.{{f: {t} -> String}}. = [ |:x {t} -> String| ^\"replaced\" ];",
    "replace in A": "A.{{f: {t} -> String}}. = [ |:x {t} -> String| ^\"replaced in A\" ];",
    "attach": "r attachMixin: M;",
    "add to r": "r addMethod: selector: #f: param: Int returnType: String "
                "body: (:self A)[ |:p Int -> String| ^\"added to r\" ];",
    "add to A": "A addMethod: selector: #f: param: Int returnType: String "
                "body: (:self A)[ |:p Int -> String| ^\"added to A\" ];",
}


@st.composite
def fixed_send_programs(draw):
    """A prototype A with overloads of `f:` in a random textual order,
    private ones among them, sub-prototypes B and C that override some of
    the public ones or none, a mixin M with its own `f:`, and a `run` that
    sends `f:` to a receiver `r` of a static type A or B, with arguments of
    each type, nil and an `Any` local among them, and between the sends
    replaces `f:` in r or in A, attaches M to r or adds a body for `f:` to
    r or to A.  Each send reaches r through `id:`, which answers it as its
    static type.  Answers (the source, the source of its oracle, in which
    `id:` answers an Any, so that no send of `f:` can be fixed, and whether
    the sends of `f:` with an argument other than the Any local must be
    fixed: one candidate and no override)."""
    types = draw(st.lists(st.sampled_from(FIXED_TYPES), min_size=1, max_size=3, unique=True))
    private = [draw(st.booleans()) for _ in types]
    private[draw(st.integers(0, len(types) - 1))] = False
    public = [t for t, p in zip(types, private) if not p]
    lines = ["package main", "private object A"]
    lines += [f"    {'private' if p else 'public'} fun f: (:x {t}) -> String "
              f"[ ^\"A {t}{' private' if p else ''}\" ]" for t, p in zip(types, private)]
    overrides, overriding = {}, draw(st.booleans())
    for proto, sup in (("B", "A"), ("C", "B")):
        overrides[proto] = draw(st.lists(st.sampled_from(public), unique=True, max_size=2)) \
            if overriding else []
        lines += ["end", f"private object {proto} extends {sup}"]
        lines += [f"    public override fun f: (:x {t}) -> String [ ^\"{proto} {t}\" ]"
                  for t in overrides[proto]]
    lines += ["end", "private mixin(A) object M",
              "    public fun f: (:x Any) -> String [ ^\"M Any\" ]", "end"]
    static = draw(st.sampled_from(("A", "B")))
    made = draw(st.sampled_from(("A", "B", "C") if static == "A" else ("B", "C")))
    args = [a for a, t in FIXED_ARGS.items() if t is None or t in public or "Any" in public]
    any_value = draw(st.sampled_from(("1", '"s"')))
    body = [f"        :r {static} = {made} new;", f"        :any Any = {any_value};"]
    send = "        Out println: ((self id: r) f: {});"
    for mutation in [None] + draw(st.lists(st.sampled_from(list(FIXED_MUTATIONS)),
                                           unique=True, max_size=3)):
        if mutation is not None:
            body.append("        " + FIXED_MUTATIONS[mutation].format(
                t=draw(st.sampled_from(types))))
        body += [send.format(draw(st.sampled_from(args)))
                 for _ in range(draw(st.integers(1, 2)))]
    source = [
        "\n".join(lines) + "\npublic object Program\n"
        f"    public fun id: (:r {static}) -> {answer} [ ^r ]\n"
        "    public fun run [\n" + "\n".join(body) + "\n    ]\nend\n"
        for answer in (static, "Any")]
    fixed = len(types) == 1 and not overrides["B"] and not overrides["C"]
    return (*source, fixed)


# a family of receivers whose builtin sends the checker fixes: (the
# declarations before `run`, the static type of the receiver `r`, the values
# `r` may start as, the sends to `r`, each with `{a}` for its argument or
# none, the arguments, and what the run may do to `r`); `{x}` is `r` as
# `id:` answers it, whose static type is that of `r`, or Any in the oracle,
# where `{u}` makes a unary send a `?` send, which the checker lets through
BUILTIN_FAMILIES = {
    "In": ("private object MyIn extends In\n@OVERRIDE\nend\n"
           "private mixin(In) object MIn\n"
           "    public override fun readInt -> Int [ ^ 9 ]\nend\n",
           "In", ("In", "MyIn new"), ["Out println: ({x} {u}readInt);"], (), {
               "replace": "r.{readInt -> Int}. = [ ^ 7 ];",
               "add": "In addMethod: selector: #readInt returnType: Int "
                      "body: (:self In)[ | -> Int | ^ 8 ];",
               "attach": "r attachMixin: MIn;"}),
    "tuple": ("", "UTuple<Int, String>", ("UTuple<Int, String> new",),
              ["Out println: ({x} {u}f1);", "{x} f1: {a};"], ("3", "nil", "any"), {
                  "replace": "r.{f1 -> Int}. = [ ^ 8 ];"}),
    "union": ("", "UUnion<Int, String>", ("UUnion<Int, String> new",),
              ["Out println: ({x} contains: {a});", "{x} f2: \"s\";"], ("#f1", "#f2", "nil", "any"),
              {"replace": "r.{contains: CySymbol -> Boolean}. = "
                          "[ |:s CySymbol -> Boolean| ^ true ];"}),
    "array": ("", "Array<Int>", ("{# 1, 2 #}",),
              ["Out println: ({x} {u}size);", "{x} foreach: {a};"],
              ("[ |:e Int| Out print: e, \" \" ]", "nil", "any"), {
                  "replace": "r.{size -> Int}. = [ ^ 5 ];"}),
    # grammar builtins, which no method may override
    "Out": ("private object MyOut extends Out\nend\n"
            "private mixin(Out) object MOut\n"
            "    public fun println: (:x Int) [ Out print: \"mixin \", x, \" \" ]\nend\n",
            "Out", ("Out", "MyOut new"),
            ["{x} println: {a};", "{x} print: {a}, 1;", "{x} selector: #println: param: {a};"],
            ("3", "nil", "any", '"s"'), {
                "add": "Out addMethod: selector: #println: param: Int "
                       "body: (:self Out)[ |:x Int| Out print: \"added \", x, \" \" ];",
                "own": "r addMethod: selector: #print: param: Int, Int "
                       "body: (:self Out)[ |:x Int, :y Int| Out println: \"own\" ];",
                "attach": "r attachMixin: MOut;"}),
}


@st.composite
def builtin_send_programs(draw):
    """A receiver `r` of a family of BUILTIN_FAMILIES, sent its builtins,
    with arguments of their types, nil and an `Any` local, while the run
    replaces a builtin, adds a body for it, to `r` or its prototype, or
    attaches a mixin to `r` that overrides it; for In, `r` may be a MyIn
    that overrides `readInt`, and for Out, a MyOut, sent the grammar
    builtins `println:`, `print:` and `selector:param:`.  Answers
    what `fixed_send_programs` answers for its sends to `id:`'s answer."""
    family = draw(st.sampled_from(list(BUILTIN_FAMILIES)))
    decls, static, values, sends, args, mutations = BUILTIN_FAMILIES[family]
    overriding = family == "In" and draw(st.booleans())
    decls = decls.replace("@OVERRIDE", "    public override fun readInt -> Int [ ^ 40 ]"
                          if overriding else "")
    any_value = draw(st.sampled_from(("1", '"s"')))
    body = [f"        :r {static} = {draw(st.sampled_from(values))};",
            f"        :any Any = {any_value};"]
    for mutation in [None] + draw(st.lists(st.sampled_from(list(mutations)),
                                           unique=True, max_size=2)):
        if mutation is not None:
            body.append("        " + mutations[mutation])
        for _ in range(draw(st.integers(1, 3))):
            send = draw(st.sampled_from(sends))
            body.append("        " + send.replace(
                "{a}", draw(st.sampled_from(args)) if args else ""))
    source = [
        f"package main\n{decls}public object Program\n"
        f"    public fun id: (:r {static}) -> {answer} [ ^r ]\n"
        "    public fun run [\n" + "\n".join(body).replace("{x}", "(self id: r)")
        .replace("{u}", unary) + "\n    ]\nend\n"
        for answer, unary in ((static, ""), ("Any", "?"))]
    return (*source, not overriding)


def run_counts(program, max_steps=100_000):
    """(exit status, stdout, steps, evals) of a run of `program`, whose
    standard input holds a few numbers."""
    interp = Interp(program, stdin_text="1 2 3 4 5 6 7 8 9 10 11 12")
    interp.max_steps = max_steps
    status = interp.run()
    return status, interp.stdout(), interp.steps, interp.evals


@given(st.one_of(fixed_send_programs(), builtin_send_programs()), st.data())
@settings(max_examples=150, deadline=None)
def test_fixed_sends_agree_with_their_opaque_oracle(programs, data):
    """A send to `id:`'s answer is fixed exactly where its message has one
    candidate, a user method or a builtin, a grammar builtin too, on the
    dispatch chains of r's static type and its sub-prototypes and no
    argument is of type Any.
    Whatever the run does to r and to its prototype, and with nil
    arguments, the program gives the stdout, exit status, steps and
    evaluations of its oracle, in which every such send probes its cache;
    so it does with the step budget spent at any step."""
    src, oracle_src, fixed = programs
    program, oracle = compile_src(src), compile_src(oracle_src)
    assert program.ok(), program.reporter.format_all() + src
    assert oracle.ok(), oracle.reporter.format_all() + oracle_src
    run = program.table.get("Program").groups["run"].entries[0].decl
    sends = [node for node in walk(run.body)
             if isinstance(node, (UnarySend, KeywordSend))
             and isinstance(node.receiver, KeywordSend) and node.receiver.message_name == "id:"]
    assert sends, src
    for node in sends:
        args = [a for _s, part in node.parts for a in part] \
            if isinstance(node, KeywordSend) else []
        assert (node.fixed is not None) == (fixed and not any(
            isinstance(a, NameRef) and a.name == "any" for a in args)), (node, src)
    status, out, steps, evals = run_counts(program)
    assert (status, out, steps, evals) == run_counts(oracle), (src, oracle_src)
    for budget in data.draw(st.lists(st.integers(1, steps + evals), max_size=4)):
        assert run_counts(program, budget) == run_counts(oracle, budget), (budget, src)


# --- trees: a body runs as it does with nothing in it proven --------------------

TREE_PROGRAM = '''package main
public object Program
    public fun id: (:x Any) -> Any [ ^x ]
    public fun truth: (:x Any) -> Boolean [ if ( x ) [ return true ]; return false; ]
    public fun tick: (:x {i}) at: (:n Int) -> {i} [ Out println: "t", n, " ", x; ^x ]
    public fun swap [ :t Int = 0; t.{{* Int -> Int}}. = [ |:x Int| ^x + 1 ]; ]
    public fun swapMinus [ :t Int = 0; t.{{- Int -> Int}}. = [ |:x Int| ^x * 2 ]; ]
    public fun f: (:a {i}, :b {i}, :p {b}) -> {i} [
        {decls}
        {body}
        return a;
    ]
    public fun run [
        [ Out println: (self f: {args}); ] catch: [ |:e CyException| Out println: "caught"; ];
        self swap;
        Out println: (self f: {args});
    ]
end
'''


@st.composite
def tree_programs(draw):
    """A program whose method `f:` is a body over the Int parameters `a`
    and `b`, the Boolean `p` and locals of both kinds: proven sends, sends
    of `tick:at:` (a user method that prints where it is sent), one-arm and multi-arm `if`s,
    `return`s, nested literal loops and `while`s over counters, literal
    loops of arithmetic alone, whose turns run fast, and maybe a send of
    `swap`, which replaces `*` on Int, as `run` does between its two sends
    of `f:`, the first of which may throw, or of `swapMinus`, which
    replaces `-` (a replaced `+` would stop the counters).  Answers (its source, the
    source of its oracle): the same program with every operand of a send
    routed through `id:` and every local an `Any`, so that nothing in it
    is proven, each loop test through `truth:` and each loop body
    declaring a local, so that each literal loop sends its blocks."""
    ints, counters, names = ["a", "b"], [], itertools.count()

    def pick(choices):
        return draw(st.sampled_from(choices))

    def int_expr(depth, pure=False):
        """An Int expression and its oracle's; one that is `pure` sends
        nothing but `+ - *`."""
        how = draw(st.integers(0, 5 if depth > 0 else 2 if depth == 0 else 1))
        if pure and how in (2, 3):
            how = 0 if depth <= 0 else 4
        if how < 2:
            x = pick(ints) if how == 0 else pick(["0", "1", "3", "1", "2", "2147483647"])
            return x, x
        if how < 4:
            (x, xo), n = int_expr(depth - 1), next(names)
            return f"(self tick: {x} at: {n})", f"(self tick: {xo} at: {n})"
        op = pick(["+", "-", "*", "*"])
        (x, xo), (y, yo) = int_expr(depth - 1, pure), int_expr(depth - 1, pure)
        return f"({x} {op} {y})", f"((self id: {xo}) {op} (self id: {yo}))"

    def bool_expr(depth):
        how = draw(st.integers(0, 3 if depth else 1))
        if how < 2:
            x = pick(["p", "q0"]) if how == 0 else pick(["true", "false"])
            return x, x
        if how == 2:
            x, xo = bool_expr(depth - 1)
            return f"(!{x})", f"(!(self id: {xo}))"
        op = pick(["<", "==", ">="])
        (x, xo), (y, yo) = int_expr(depth - 1), int_expr(depth - 1)
        return f"({x} {op} {y})", f"((self id: {xo}) {op} (self id: {yo}))"

    def body(depth, scoped, last=()):
        """The statements of a body; one that is `scoped` may declare an Int."""
        saved, stats = len(ints), []
        if scoped and draw(st.booleans()):
            name, (x, xo) = f"y{next(names)}", int_expr(1)
            stats.append((f":{name} Int = {x};", f":{name} Any = {xo};"))
            ints.append(name)
        stats += [stat(depth) for _ in range(draw(st.integers(0, 3)))]
        del ints[saved:]
        stats += last
        return " ".join(s for s, _o in stats), " ".join(o for _s, o in stats)

    def stat(depth):
        how = pick(["print", "assign", "tick", "if"] +
                   (["if", "loop", "loop", "fast", "fast", "return", "swap", "swapMinus"]
                    if depth else []))
        if how == "print":
            x, xo = pick([int_expr, bool_expr])(2)
            return f"Out println: {x};", f"Out println: {xo};"
        if how == "assign":
            (x, xo), name = (int_expr(2), pick(["x0", "x1"])) if draw(st.booleans()) \
                else (bool_expr(2), "q0")
            return f"{name} = {x};", f"{name} = {xo};"
        if how in ("tick", "return"):
            x, xo = int_expr(1)
            form = f"self tick: {{}} at: {next(names)};" if how == "tick" else "return {};"
            return form.format(x), form.format(xo)
        if how in ("swap", "swapMinus"):
            return f"self {how};", f"self {how};"
        if how == "if":
            arms, oracle = [], []
            for _ in range(draw(st.integers(1, 3))):
                (c, co), (s, so) = bool_expr(2), body(depth - 1, True)
                arms.append(f"if ( {c} ) [ {s} ]")
                oracle.append(f"if ( {co} ) [ {so} ]")
            if draw(st.booleans()):
                s, so = body(depth - 1, True)
                arms.append(f"[ {s} ]")
                oracle.append(f"[ {so} ]")
            return " else ".join(arms) + ";", " else ".join(oracle) + ";"
        k, limit, form = f"k{next(names)}", pick(["0", "1", "3"]), \
            pick(["whileTrue:", "whileFalse:", "repeatUntil:"] + ([] if how == "fast"
                                                                  else ["while"]))
        counters.append(k)
        ints.append(k)
        if how == "fast":
            stats = [(f"{name} = {x};", f"{name} = {xo};")
                     for (x, xo), name in [(int_expr(2, True), pick(["x0", "x1"]))
                                           for _ in range(draw(st.integers(1, 2)))]]
            stats.append((f"++{k};", f"++{k};"))
            s, so = " ".join(s for s, _o in stats), " ".join(o for _s, o in stats)
        else:
            s, so = body(depth - 1, False, [(f"++{k};", f"++{k};")])
        ints.remove(k)
        op = "<" if form in ("whileTrue:", "while") else ">="
        test, oracle_test = f"{k} {op} {limit}", f"(self id: {k}) {op} (self id: {limit})"
        local = f":z{next(names)} Int; "
        if form == "while":
            return f"{k} = 0; while ( {test} ) [ {s} ];", \
                f"{k} = 0; while ( {oracle_test} ) [ {so} ];"
        if form == "repeatUntil:":
            return f"{k} = 0; [ {s} ] repeatUntil: [^ {test} ];", \
                f"{k} = 0; [ {local}{so} ] repeatUntil: [^ self truth: ({oracle_test}) ];"
        return f"{k} = 0; [^ {test} ] {form} [ {s} ];", \
            f"{k} = 0; [^ self truth: ({oracle_test}) ] {form} [ {local}{so} ];"

    ints += ["x0", "x1"]
    stats = [stat(2) for _ in range(draw(st.integers(1, 5)))]
    args = ", ".join(pick(choices) for choices in (["0", "3", "-2", "nil"], ["1", "2", "nil"],
                                                     ["true", "false"]))
    return tuple(TREE_PROGRAM.format(
        i=i, b=b, args=args, body=" ".join(s[which] for s in stats),
        decls=f":x0 {i} = 2; :x1 {i} = 5; :q0 {b} = true; " +
        " ".join(f":{k} {i} = 0;" for k in counters))
        for which, i, b in ((0, "Int", "Boolean"), (1, "Any", "Any")))


def run_tree_program(program, max_steps=100_000, proven=True):
    """(exit status, stdout, steps, evals) of a run of `program`; with
    `proven` False, an `addMethod:` body for no prototype makes every proven
    send and literal loop take the send path, which counts alike."""
    interp = Interp(program)
    interp.max_steps = max_steps
    if not proven:
        interp.dyn_methods[("", "")] = None
    status = interp.run()
    return status, interp.stdout(), interp.steps, interp.evals


@given(tree_programs(), st.data())
@settings(max_examples=50, deadline=None)
def test_trees_run_as_bodies_with_nothing_proven(programs, data):
    """A body of proven sends, arms, returns and literal loops gives the
    stdout, the exit status and the trace of its oracle, in which nothing is
    proven.  And with the step budget spent at any step, it gives the
    stdout, trace, steps and evaluations of the send path (the block path
    of each loop): a tree counts and checks, and stacks frames, as sends
    do."""
    src, oracle_src = programs
    program, oracle = compile_src(src), compile_src(oracle_src)
    assert program.ok(), program.reporter.format_all() + src
    assert oracle.ok(), oracle.reporter.format_all() + oracle_src
    status, out, steps, evals = run_tree_program(program)
    assert (status, out) == run_tree_program(oracle)[:2], (src, oracle_src)
    for budget in data.draw(st.lists(st.integers(1, steps + evals), max_size=12)):
        assert run_tree_program(program, budget) == \
            run_tree_program(program, budget, proven=False), (budget, src)


# --- random regexes: the derivation is compositional ---------------------------

def T(n):
    return TypeExpr(n, [])


@st.composite
def regexes(draw, depth=2):
    if depth == 0:
        kind = draw(st.sampled_from(["none", "types", "star"]))
        sel = draw(st.sampled_from(["a:", "b:", "c:"]))
        if kind == "none":
            return GSel(sel, ("none",))
        ty = draw(st.sampled_from(["Int", "String"]))
        if kind == "types":
            return GSel(sel, ("types", [[T(ty)]]))
        return GSel(sel, ("star", [T(ty)]))
    knd = draw(st.sampled_from(["seq", "alt", "star", "plus", "opt", "leaf"]))
    if knd == "leaf":
        return draw(regexes(depth=0))
    if knd in ("seq", "alt"):
        items = draw(st.lists(regexes(depth=depth - 1), min_size=2, max_size=3))
        return GSeq(items) if knd == "seq" else GAlt(items)
    inner = draw(regexes(depth=depth - 1))
    return {"star": GStar, "plus": GPlus, "opt": GOpt}[knd](inner)


@given(regexes())
@settings(max_examples=80, deadline=None)
def test_derivation_is_compositional(regex):
    derived = derive_parameter_type(regex)
    if isinstance(regex, GSeq):
        parts = [derive_parameter_type(x) for x in regex.items]
        want = parts[0].canonical() if len(parts) == 1 else \
            "UTuple<" + ", ".join(p.canonical() for p in parts) + ">"
        assert derived.canonical() == want
    elif isinstance(regex, GAlt):
        parts = [derive_parameter_type(x) for x in regex.items]
        assert derived.canonical() == "UUnion<" + ", ".join(p.canonical() for p in parts) + ">"
    elif isinstance(regex, (GStar, GPlus)):
        inner = derive_parameter_type(regex.item)
        assert derived.canonical() == f"Array<{inner.canonical()}>"
    elif isinstance(regex, GOpt):
        inner = derive_parameter_type(regex.item)
        assert derived.canonical() == f"UUnion<{inner.canonical()}>"


# --- bl monotonicity ------------------------------------------------------------

@given(st.integers(min_value=1, max_value=3), st.booleans())
@settings(max_examples=30, deadline=None)
def test_bl_monotonic(level_of_access, has_return):
    from cyanine.parser import parse_source
    from cyanine.desugar import desugar_units
    from cyanine.block_analysis import analyze_method
    from cyanine.cyast import MethodDecl
    decl_lines = {1: ":a1 = 1;", 2: "", 3: ""}
    access = f"a{level_of_access}"
    ret = "return;" if has_return else ""
    src = f'''package p
object T
public fun test [
    :a1 = 1;
    if ( true ) [
        :a2 = 2;
        if ( true ) [
            :a3 = 3;
            :probe = [ {ret} Out println: {access}; ];
        ];
    ];
]
end
'''
    cu, rep = parse_source(src)
    units, _ = desugar_units(cu.units, rep)
    m = [s for s in units[0].slots if isinstance(s, MethodDecl) and s.name == "test"][0]
    infos = analyze_method(m, rep)
    probe = infos[-1]
    base = 0 if has_return else -1
    assert probe.bl == max(base, level_of_access)


# --- static resolution soundness --------------------------------------------------

def test_statically_checked_sends_never_raise_method_not_found():
    """Exhaustively enumerate runtime receiver/argument types for a statically
    resolved send: a runtime overload is always reachable."""
    hierarchy = '''package main
private object Food end
private object Grass extends Food end
private object FishMeat extends Food end
private object Animal
    public fun eat: (:food Food) -> Int [ return 0 ]
end
private object Cow extends Animal
     public override fun eat: (:food Grass) -> Int [ return 1 ]
end
private object Fish extends Animal
    public override fun eat: (:food FishMeat) -> Int [ return 2 ]
end
public object Program
    public fun run [
        :animal Animal;
        :food Food;
        animal = Cow;
        food = Grass;
        :r = animal eat: food;
    ]
end
'''
    program = compile_src(hierarchy)
    assert not program.reporter.has_errors()
    interp = Interp(program)
    interp.setup()
    table = program.table
    receivers = ["Animal", "Cow", "Fish"]          # runtime subtypes of Animal
    args = ["Food", "Grass", "FishMeat"]           # runtime subtypes of Food
    for recv, arg in itertools.product(receivers, args):
        robj = interp.proto_objects[recv]
        aobj = interp.proto_objects[arg]
        hit = interp.lookup(robj, [("eat:", [aobj])])
        assert hit is not None, (recv, arg)


# --- generic instantiation is referentially transparent -----------------------------

def test_generic_instantiation_referentially_transparent():
    from cyanine.cyast import pp_unit, to_sexpr
    from cyanine.parser import parse_source
    from cyanine.desugar import Desugarer
    from cyanine.diagnostics import Reporter
    src = '''package main
private object Pair<:T>
    public fun set: (:x T) [ kept = x ]
    public fun get -> T [ ^kept ]
    private :kept T
end
public object Program
    public fun run [
        :p = Pair<Int> new;
        p set: 3;
        Out println: (p get);
    ]
end
'''
    program = compile_src(src)
    assert not program.reporter.has_errors(), program.reporter.format_all()
    entry = program.table.get("Pair<Int>")
    assert entry is not None
    # dump the instantiated prototype, re-parse, re-desugar: structurally equal
    printed = "package main\n" + pp_unit(entry.decl).replace("Pair<Int>", "PairInt2")
    cu, rep = parse_source(printed)
    assert not rep.has_errors(), rep.format_all() + printed
    redone = Desugarer(cu.units, Reporter()).run()
    import re as _re
    def norm(units):
        s = to_sexpr(units)
        s = s.replace("PairInt2", "Pair<Int>")
        return _re.sub(r"\$\d+", "$N", s)
    assert norm(redone) == norm([entry.decl])
