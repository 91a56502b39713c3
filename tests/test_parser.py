import string

from hypothesis import given, settings, strategies as st

from cyanine import cyast as A
from cyanine.lexer import TOKENS, TokenKind
from cyanine.parser import OP_LEVEL as PARSER_LEVELS, parse_expression, parse_source


def expr_of(src):
    e, rep = parse_expression(src)
    assert not rep.has_errors(), rep.format_all()
    return e


def shape(e):
    """Parenthesized rendering for precedence comparisons."""
    if isinstance(e, A.BinarySend):
        return f"({shape(e.left)}{e.op}{shape(e.right)})"
    if isinstance(e, A.UnarySend):
        return f"({shape(e.receiver)} {e.selector})"
    if isinstance(e, A.KeywordSend):
        parts = " ".join(
            sel + " " + ",".join(shape(a) for a in args) for sel, args in e.parts)
        recv = shape(e.receiver) + " " if e.receiver is not None else ""
        return f"({recv}{parts})"
    if isinstance(e, A.PrefixOp):
        return f"({e.op}{shape(e.operand)})"
    if isinstance(e, A.NameRef):
        return e.name
    if isinstance(e, A.Lit):
        return str(e.value)
    return type(e).__name__


def test_precedence_relational_over_additive():
    assert shape(expr_of("x + 1 < y + 2")) == "((x+1)<(y+2))"


def test_unary_selector_binds_tighter_than_keyword():
    e = expr_of("obj a: array size")
    assert shape(e) == "(obj a: (array size))"


def test_unary_chain_left_to_right():
    assert shape(expr_of("club members first name")) == "(((club members) first) name)"


def test_keyword_send_owns_following_selectors():
    e = expr_of('Hashtable put: (MyArray get: i), j')
    assert isinstance(e, A.KeywordSend)
    assert e.message_name == "put:"
    assert len(e.parts[0][1]) == 2


def test_keyword_selectors_merge_into_one_name():
    e = expr_of("obj s1: 1 s2: 1, 2 s3: 1, 2, 3")
    assert e.message_name == "s1:s2:s3:"
    assert [len(args) for _s, args in e.parts] == [1, 2, 3]


def test_interval_precedence():
    # .. binds tighter than comparisons, looser than additive
    assert shape(expr_of("i+1 .. size - 1")) == "((i+1)..(size-1))"


def test_figure_program_parses():
    src = '''package program
import inOut

private object Person
  private var :name String = ""
  public  fun getName -> String [
     ^ self.name
  ]
  public  fun setName:  :name String [
     self.name = name
  ]
end

public object Program
  public fun run [
     :p = Person clone;
     :name String;
     name = In readString;
     p setName: name;
     Out println: (p getName);
  ]
end
'''
    cu, rep = parse_source(src)
    assert not rep.has_errors(), rep.format_all()
    assert cu.package == "program"
    assert [u.name for u in cu.units] == ["Person", "Program"]
    assert cu.units[0].qualifier == "private"


def test_minimal_prototype_defaults_public():
    cu, rep = parse_source("package p\nobject A end")
    assert not rep.has_errors()
    assert cu.units[0].qualifier == "public"
    assert cu.units[0].slots == []


def test_grammar_signature_plus_types():
    src = "package p\nobject S\npublic fun (add: (Int)+) :t [ ]\nend"
    cu, rep = parse_source(src)
    assert not rep.has_errors(), rep.format_all()
    m = cu.units[0].slots[0]
    assert isinstance(m.sig, A.GrammarSig)
    sel = m.sig.regex
    assert isinstance(sel, A.GSel)
    assert sel.argspec[0] == "plus"
    assert m.sig.param_name == "t"
    assert m.sig.param_type is None


def test_block_forms():
    e = expr_of("[ |:x Int| ^x*x ]")
    assert isinstance(e, A.BlockLit)
    assert e.sections[0][0].name == "x"
    e2 = expr_of("[ ]")
    assert isinstance(e2, A.BlockLit) and e2.sections is None and e2.body == []
    e3 = expr_of("(:self Box)[ Out println: get ]")
    assert isinstance(e3, A.BlockLit)
    assert e3.self_type.canonical() == "Box"


def test_empty_tuple_is_illegal():
    _, rep = parse_expression("[. .]")
    assert rep.has_errors()


def test_adjacent_angle_is_generic_use():
    e = expr_of("Stack<Int>")
    assert isinstance(e, A.GenericRef)
    assert e.type_expr().canonical() == "Stack<Int>"
    e2 = expr_of("a < b")
    assert isinstance(e2, A.BinarySend) and e2.op == "<"


def test_short_creation_form():
    e = expr_of('Worker("John", "Professor")')
    assert isinstance(e, A.Creation)
    assert len(e.args) == 2


def test_multiple_assignment_statement():
    src = "package p\nobject A\nfun f [ x, y = [. 1280, 720 .]; ]\nend"
    cu, rep = parse_source(src)
    assert not rep.has_errors(), rep.format_all()
    stat = cu.units[0].slots[0].body[0]
    assert isinstance(stat, A.AssignStat)
    assert len(stat.targets) == 2


def test_pretty_print_roundtrip_program():
    src = '''package main
private object Person
    public fun init: (:name String, :age Int) [
        self.name = name;
        self.age = age;
    ]
    public fun print2 [
        Out println: "name: ", name, " (", age, ")";
    ]
    private :name String
    private :age Int
end
public object Program
    public fun run [
        :p = Person new: "a", 1;
        if ( 1 < 2 ) [ p print2; ] else [ Out println: "no"; ];
        while ( false ) [ ];
    ]
end
'''
    cu1, rep1 = parse_source(src)
    assert not rep1.has_errors()
    printed = A.pp_compilation_unit(cu1)
    cu2, rep2 = parse_source(printed)
    assert not rep2.has_errors(), rep2.format_all() + "\n" + printed
    assert A.to_sexpr(cu1.units) == A.to_sexpr(cu2.units)


# --- property: precedence figure equals a reference precedence-climbing oracle

LEVELS = [["||"], ["~||"], ["&&"], ["==", "<=", "<", ">", ">=", "!="], [".."],
          ["+", "-"], ["/", "*", "%"], ["|", "~|", "&"], ["<.<", ">.>", ">.>>"]]
NONASSOC = {3, 4, 8}
OP_LEVEL = {op: i for i, ops in enumerate(LEVELS) for op in ops}
USER_OP = "$$"      # binds loosest; its right operand is the rest of the expression


def reference_parse(tokens):
    """Independent climber over (name|op) token lists, one recursion per
    level; None where it leaves tokens unconsumed."""
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def parse_level(level):
        if level == len(LEVELS):
            t = peek()
            pos[0] += 1
            return t
        left = parse_level(level + 1)
        first = True
        while True:
            t = peek()
            if level == 0 and t == USER_OP:
                pos[0] += 1
                left = f"({left}{t}{parse_level(0)})"
                continue
            if t is None or OP_LEVEL.get(t) != level:
                return left
            if level in NONASSOC and not first:
                return left
            first = False
            pos[0] += 1
            right = parse_level(level + 1)
            left = f"({left}{t}{right})"

    out = parse_level(0)
    return out if pos[0] == len(tokens) else None


NAMES = st.sampled_from(list("abcxyz"))
OPS = st.sampled_from([op for ops in LEVELS for op in ops] + [USER_OP])


@given(st.lists(st.tuples(OPS, NAMES), min_size=0, max_size=6), NAMES)
@settings(max_examples=500)
def test_operator_precedence_matches_reference(pairs, first):
    tokens = [first]
    for op, name in pairs:
        tokens.extend([op, name])
    want = reference_parse(tokens)
    src = " ".join(tokens)
    e, rep = parse_expression(src)
    if want is None:    # a second operator of a non-associative level
        assert rep.has_errors(), src
    else:
        assert not rep.has_errors(), src
        assert shape(e) == want, src


def test_level_map_and_token_table_list_the_same_binary_operators():
    operators = {lexeme for lexeme, kind in TOKENS.items() if kind is TokenKind.OPERATOR}
    assert set(PARSER_LEVELS) == operators - {"++", "--", "!", "~", "?"}
