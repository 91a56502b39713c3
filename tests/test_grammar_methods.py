"""Grammar methods: the derivation table, canonical names, the selector
automaton, and agreement of possessive matching with a brute-force oracle."""

import itertools

import pytest

from cyanine.cyast import GAlt, GOpt, GPlus, GSel, GSeq, GStar, TypeExpr
from cyanine.diagnostics import Reporter
from cyanine.grammar_methods import (NoMatch, build_automaton, derive_parameter_type,
                                     enumerate_shapes, match_message, method_name_of,
                                     plan_packing)


def T(n):
    return TypeExpr(n, [])


def sel(s, *positions, star=None, plus=None, default=None):
    if star is not None:
        return GSel(s, ("star", [T(x) for x in star]))
    if plus is not None:
        return GSel(s, ("plus", [T(x) for x in plus]))
    if default is not None:
        return GSel(s, ("default", T(default[0]), default[1]))
    if not positions:
        return GSel(s, ("none",))
    return GSel(s, ("types", [[T(x) for x in alts] for alts in positions]))


# every row of the reference derivation table
DERIVATION_ROWS = [
    (sel("add:", ["Int"]), "Int"),
    (sel("add:", ["Int"], ["String"]), "UTuple<Int, String>"),
    (sel("add:", star=["Int"]), "Array<Int>"),
    (sel("add:", plus=["Int"]), "Array<Int>"),
    (GStar(sel("add:", ["Int"])), "Array<Int>"),
    (GPlus(sel("add:", ["Int"])), "Array<Int>"),
    (sel("add:", ["Int", "String"]), "UUnion<Int, String>"),
    (sel("add:", plus=["Int", "String"]), "Array<UUnion<Int, String>>"),
    (GAlt([sel("add:", ["Int"]), sel("add:", ["String"])]), "UUnion<Int, String>"),
    (GSeq([sel("key:", ["Int"]), sel("value:", ["Float"])]), "UTuple<Int, Float>"),
    (GSeq([sel("nameList:", star=["String"]), GOpt(sel("size:", ["Int"]))]),
     "UTuple<Array<String>, UUnion<Int>>"),
    (sel("coke:"), "Any"),
    (GAlt([sel("coke:"), sel("guarana:")]), "UUnion<Any, Any>"),
    (GStar(GAlt([sel("coke:"), sel("guarana:")])), "Array<UUnion<Any, Any>>"),
    (GPlus(GAlt([sel("coke:"), sel("guarana:")])), "Array<UUnion<Any, Any>>"),
    (GOpt(GPlus(GAlt([sel("coke:"), sel("guarana:")]))),
     "UUnion<Array<UUnion<Any, Any>>>"),
    (GPlus(GOpt(GAlt([sel("coke:"), sel("guarana:")]))),
     "Array<UUnion<UUnion<Any, Any>>>"),
    (GSeq([sel("amount:"), GAlt([sel("gas:", ["Float"]), sel("alcohol:", ["Float"])])]),
     "UTuple<Any, UUnion<Float, Float>>"),
]


@pytest.mark.parametrize("regex,expected", DERIVATION_ROWS,
                         ids=[e for _r, e in DERIVATION_ROWS])
def test_derivation_table_row(regex, expected):
    assert derive_parameter_type(regex).canonical() == expected


def test_derivation_compositional():
    # derivation of composite nodes equals the table rule applied to children
    inner = GAlt([sel("coke:"), sel("guarana:")])
    inner_t = derive_parameter_type(inner).canonical()
    assert derive_parameter_type(GStar(inner)).canonical() == f"Array<{inner_t}>"
    assert derive_parameter_type(GOpt(inner)).canonical() == f"UUnion<{inner_t}>"
    two = GSeq([sel("a:", ["Int"]), inner])
    assert derive_parameter_type(two).canonical() == f"UTuple<Int, {inner_t}>"


def test_method_name_of():
    energy = GSeq([sel("add:"),
                   GPlus(GAlt([sel("wattsHour:", ["Float"]), sel("calorie:", ["Float"]),
                               sel("joule:", ["Float"])]))])
    assert method_name_of(energy) == "(add:(wattsHour:|calorie:|joule:)+)"
    namesig = GSeq([sel("name:", ["String"]), GOpt(sel("age:", ["Int"]))])
    assert method_name_of(namesig) == "(name:(age:)?)"
    assert method_name_of(sel("sel:", ["Int"])) == "sel:"


# --- matching --------------------------------------------------------------

def same_type(a):
    return a


def subtype_flat(s, t):
    return s == t or t == "Any"


def match(regex, shape):
    return match_message(build_automaton(regex), shape, same_type, subtype_flat)


def test_single_selector_automaton():
    auto = build_automaton(sel("add:", ["Int"]))
    assert auto.n_states == 2
    tree = match(sel("add:", ["Int"]), [("add:", ["Int"])])
    assert tree.args[0] == (0, 0)     # the first argument, its first alternative
    with pytest.raises(NoMatch):
        match(sel("add:", ["Int"]), [("add:", ["Int", "Int"])])


def test_plus_accepts_one_to_k():
    rx = sel("add:", plus=["Int"])
    for k in range(1, 9):
        match(rx, [("add:", ["Int"] * k)])
    with pytest.raises(NoMatch):
        match(rx, [("add:", [])])


def test_repeated_pair_selector():
    rx = GPlus(GSeq([sel("key:", ["String"]), sel("value:", ["String"])]))
    for reps in range(1, 5):
        shape = [("key:", ["String"]), ("value:", ["String"])] * reps
        match(rx, shape)
    with pytest.raises(NoMatch):
        match(rx, [("key:", ["String"])])


def test_greedy_double_star():
    rx = GSeq([GStar(sel("a:", ["Int"])), GStar(sel("a:", ["Int"]))])
    tree = match(rx, [("a:", ["Int"]), ("a:", ["Int"])])
    first, second = tree.parts
    assert len(first.parts) == 2 and len(second.parts) == 0


def test_possessive_rejects_star_then_same_symbol():
    # "you should not use a symbol that is matched by the previous part"
    rx = GSeq([GStar(sel("a:", ["Int"])), sel("a:", ["Int"])])
    with pytest.raises(NoMatch):
        match(rx, [("a:", ["Int"]), ("a:", ["Int"])])


def test_optional_selector():
    rx = GSeq([sel("name:", ["String"]), GOpt(sel("age:", ["Int"]))])
    t1 = match(rx, [("name:", ["String"]), ("age:", ["Int"])])
    assert t1.parts[1].part is not None
    t2 = match(rx, [("name:", ["String"])])
    assert t2.parts[1].part is None


def test_union_packing_first_supertype_wins():
    rx = sel("addMember:", star=["Manager", "Worker"])

    def sub(s, t):
        return s == t or (s == "Manager" and t == "Worker") or t == "Any"

    tree = match_message(build_automaton(rx), [("addMember:", ["Manager"])],
                         same_type, sub)
    plan = plan_packing(rx, tree)
    union = plan.children[0]
    assert union.op == "union" and union.tag == 0     # first alternative


def test_mixed_union_packing():
    rx = sel("print:", star=["Int", "String"])
    tree = match(rx, [("print:", ["Int", "String"])])
    plan = plan_packing(rx, tree)
    assert [c.tag for c in plan.children] == [0, 1]


def test_empty_star_group_packs_empty_array():
    rx = sel("add:", star=["Int"])
    plan = plan_packing(rx, match(rx, [("add:", [])]))
    assert plan.op == "array" and plan.children == []


def test_default_value_rules():
    from cyanine.parser import parse_source
    from cyanine.grammar_methods import validate_signature
    src = '''package p
object W
    public fun (create: x1: Int (width: Int = 300 height: Int = 100)?) :t [ ]
end
'''
    cu, rep = parse_source(src)
    assert not rep.has_errors()
    validate_signature(cu.units[0].slots[0].sig, rep)
    # two selectors inside one optional default part
    assert any("one selector and one parameter" in d.message for d in rep.items)

    src2 = '''package p
object W
    public fun ((width: Int = 300)+) :t [ ]
end
'''
    cu2, rep2 = parse_source(src2)
    m = cu2.units[0].slots[0]
    validate_signature(m.sig, rep2)
    assert any("cannot use '+' or '*'" in d.message for d in rep2.items)


# --- automaton language equals the regex language ----------------------------

CORPUS_SIGNATURES = [
    sel("add:", plus=["Int"]),
    GPlus(sel("add:", ["Int"])),
    GSeq([GStar(sel("a:", ["Int"])), GStar(sel("a:", ["Int"]))]),
    GPlus(GSeq([sel("key:", ["String"]), sel("value:", ["String"])])),
    GSeq([sel("name:", ["String"]), GOpt(sel("age:", ["Int"]))]),
    GSeq([sel("nameList:", star=["String"]), GOpt(sel("size:", ["Int"]))]),
    GPlus(GAlt([sel("coke:"), sel("guarana:")])),
    GOpt(GPlus(GAlt([sel("coke:"), sel("guarana:")]))),
    GSeq([sel("amount:"), GAlt([sel("gas:", ["Float"]), sel("alcohol:", ["Float"])])]),
    GSeq([sel("switch:"),
          GPlus(GSeq([sel("case:", plus=["Int"]), sel("do:", ["Block"])])),
          GOpt(GSel("else:", ("types", [[T("Block")]])))]),
    GAlt([GSeq([GPlus(sel("catch:", ["Any"])), GOpt(sel("finally:", ["Block"]))]),
          sel("retry:", ["Block"])]),
    GSeq([sel("create:"), sel("x1:", ["Int"]), sel("y1:", ["Int"]),
          GOpt(sel("width:", default=("Int", None))),
          GOpt(sel("height:", default=("Int", None)))]),
]


def declared_args(node):
    spec = node.argspec
    if spec[0] == "none":
        return [[]]
    if spec[0] == "types":
        return [[alts[0].canonical() for alts in spec[1]]]
    if spec[0] in ("star", "plus"):
        t = spec[1][0].canonical()
        lo = 0 if spec[0] == "star" else 1
        return [[t] * k for k in range(lo, lo + 3)]
    if spec[0] == "default":
        return [[spec[1].canonical()]]
    raise ValueError(spec)


def symbols_of(regex):
    out = []
    def visit(n):
        if isinstance(n, GSel):
            out.append(n)
        elif isinstance(n, (GSeq, GAlt)):
            for x in n.items:
                visit(x)
        else:
            visit(n.item)
    visit(regex)
    # distinct (selector, args) shapes
    sym = {}
    for n in out:
        for args in declared_args(n):
            sym[(n.selector, tuple(args))] = (n.selector, list(args))
    return list(sym.values())


def language_shapes(regex, max_len):
    def arg_choices(node):
        return declared_args(node)
    return {tuple((s, tuple(a)) for s, a in shape)
            for shape in enumerate_shapes(regex, max_len, arg_choices)}


@pytest.mark.parametrize("regex", CORPUS_SIGNATURES,
                         ids=[method_name_of(r) for r in CORPUS_SIGNATURES])
def test_automaton_language_equals_regex_language(regex):
    """The NFA accepts exactly the shapes the regex generates (length <= 5)."""
    auto = build_automaton(regex)
    alphabet = symbols_of(regex)
    lang = language_shapes(regex, 5)

    def sym_match(label, sym):
        s, args = sym
        if label.selector != s:
            return False
        spec = label.argspec
        if spec[0] == "none":
            return not args
        if spec[0] == "types":
            return len(args) == len(spec[1]) and all(
                subtype_flat(a, alts[0].canonical()) for a, alts in zip(args, spec[1]))
        if spec[0] in ("star", "plus"):
            lo = 0 if spec[0] == "star" else 1
            return len(args) >= lo and all(
                subtype_flat(a, spec[1][0].canonical()) for a in args)
        if spec[0] == "default":
            return len(args) == 1
        return False

    max_len = 4 if len(alphabet) > 4 else 5
    for length in range(0, max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            shape = [(s, list(a)) for s, a in combo]
            key = tuple((s, tuple(a)) for s, a in shape)
            in_lang = key in lang
            accepted = auto.accepts_symbols([(s, tuple(a)) for s, a in shape], sym_match)
            assert accepted == in_lang, shape


# --- brute-force leftmost-greedy oracle ---------------------------------------

def oracle_possessive(regex, shape, type_of, is_subtype):
    """Independent possessive matcher: an explicit continuation machine over a
    compiled tuple program (contrast: the production matcher recurses over the
    AST).  Returns the end position or None."""
    def compile_node(n):
        if isinstance(n, GSel):
            return ("sym", n)
        if isinstance(n, GSeq):
            return ("seq", [compile_node(x) for x in n.items])
        if isinstance(n, GAlt):
            return ("alt", [compile_node(x) for x in n.items])
        if isinstance(n, GStar):
            return ("rep", compile_node(n.item), 0)
        if isinstance(n, GPlus):
            return ("rep", compile_node(n.item), 1)
        if isinstance(n, GOpt):
            return ("opt", compile_node(n.item))
        raise ValueError(n)

    def sym_ok(node, item):
        selector, args = item
        if node.selector != selector:
            return False
        spec = node.argspec
        if spec[0] == "none":
            return not args
        if spec[0] == "types":
            if len(args) != len(spec[1]):
                return False
            return all(any(is_subtype(type_of(a), alt.canonical()) for alt in alts)
                       for a, alts in zip(args, spec[1]))
        if spec[0] in ("star", "plus"):
            lo = 0 if spec[0] == "star" else 1
            return len(args) >= lo and all(
                any(is_subtype(type_of(a), alt.canonical()) for alt in spec[1])
                for a in args)
        if spec[0] == "default":
            return len(args) == 1 and is_subtype(type_of(args[0]), spec[1].canonical())
        return False

    def run(prog, i):
        kind = prog[0]
        if kind == "sym":
            if i < len(shape) and sym_ok(prog[1], shape[i]):
                return i + 1
            return None
        if kind == "seq":
            for p in prog[1]:
                i = run(p, i)
                if i is None:
                    return None
            return i
        if kind == "alt":
            for p in prog[1]:
                j = run(p, i)
                if j is not None:
                    return j
            return None
        if kind == "rep":
            count = 0
            while True:
                j = run(prog[1], i)
                if j is None or j == i:
                    break
                i = j
                count += 1
            return i if count >= prog[2] else None
        if kind == "opt":
            j = run(prog[1], i)
            return i if j is None else j
        raise ValueError(kind)

    end = run(compile_node(regex), 0)
    return end if end == len(shape) else None


def all_derivations_accept(regex, shape):
    """Pure nondeterministic membership (no greediness): does ANY derivation
    of the regex produce this shape?"""
    def ends(n, i):
        if isinstance(n, GSel):
            if i < len(shape) and shape[i][0] == n.selector:
                spec = n.argspec
                args = shape[i][1]
                ok = {
                    "none": lambda: not args,
                    "types": lambda: len(args) == len(spec[1]),
                    "star": lambda: True,
                    "plus": lambda: len(args) >= 1,
                    "default": lambda: len(args) == 1,
                }[spec[0]]()
                return {i + 1} if ok else set()
            return set()
        if isinstance(n, GSeq):
            cur = {i}
            for item in n.items:
                cur = {k for j in cur for k in ends(item, j)}
            return cur
        if isinstance(n, GAlt):
            return {k for item in n.items for k in ends(item, i)}
        if isinstance(n, (GStar, GPlus)):
            out = set() if isinstance(n, GPlus) else {i}
            frontier = {i}
            while frontier:
                nxt = {k for j in frontier for k in ends(n.item, j) if k != j}
                nxt -= out
                out |= nxt
                frontier = nxt
            return out
        if isinstance(n, GOpt):
            return {i} | ends(n.item, i)
        raise ValueError(n)

    return len(shape) in ends(regex, 0)


@pytest.mark.parametrize("regex", CORPUS_SIGNATURES,
                         ids=[method_name_of(r) for r in CORPUS_SIGNATURES])
def test_matching_agrees_with_bruteforce_oracle(regex):
    """For all shapes up to length 8 over the signature's symbol alphabet, the
    automaton matcher agrees with the independent possessive oracle, and every
    accepted shape is a valid derivation of the regex."""
    auto = build_automaton(regex)
    alphabet = symbols_of(regex)
    max_len = 8
    while len(alphabet) ** max_len > 150_000:
        max_len -= 1
    checked = 0
    for length in range(0, max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            shape = [(s, list(a)) for s, a in combo]
            want = oracle_possessive(regex, shape, same_type, subtype_flat)
            try:
                match_message(auto, shape, same_type, subtype_flat)
                got = len(shape)
            except NoMatch:
                got = None
            assert got == want, shape
            if got is not None:
                assert all_derivations_accept(regex, shape), shape
            checked += 1
    assert checked > 0
