"""AST node definitions, the s-expression dump, and a Cyan-ish pretty printer.

Surface nodes come out of the parser; the desugar pass rewrites them into the
core subset (no ++/--, no nil-safe sends, no interpolation segments, no short
creation, no multiple assignment, no public variable declarations, no mixin
clauses, no context parameters).  Core-only nodes: AssignExpr, IfExpr, LetExpr.

Node classes are slotted: a pass can write only the fields declared here.
Notes (`note()` fields) are what one pass leaves on a node for a later one;
they stay out of equality, `repr`, `match` positions, `children` and the dumps.
The notes, by the pass that writes them:

    parser, desugar  KeywordSend.part_modes; PrototypeDecl.filename and
                     InterfaceDecl.filename (a generated unit has the file of
                     the unit it comes from)
    desugar          PrototypeDecl.is_ctx_block, .ctx_self_type, .mixin_host_base;
                     MethodDecl.synthetic, .is_stub, .ctx_self_field; Lit.step
                     (the `1` that `++` or `--` adds or subtracts, an Int
                     literal to which the checker gives the kind of the
                     integer it steps)
    prototype table  TypeExpr.resolved (grammar-method signatures; `canonical()`
                     returns it); VarDecl.resolved_type (declared types)
    block analysis   BlockLit.info (level bl(B), r/u class, the locals its body
                     keeps in cells); MethodDecl.cells (the locals its body
                     keeps in cells)
    checker          VarDecl.resolved_type (inferred types); ArrayLit.resolved_type,
                     TupleLit.resolved_type, VarDeclStat.resolved_types (one per
                     name), BlockLit.runtime_type, GenericRef.resolved,
                     MethodAccess.resolved_type (the method object's block type),
                     SigRef.resolved (its parameter types and its return type,
                     None if not written);
                     Lit.runtime_value (immutable kinds), IfStat.scoped and
                     WhileStat.scoped (a body that declares no variable runs in
                     the enclosing scope); NameRef.binding (what a bare name
                     denotes, one of the bindings below: SEND on the target of
                     an assignment makes the write a send of the setter of a
                     public or protected variable); .builtin of a send
                     node (UnarySend, KeywordSend, BinarySend, PrefixOp) that
                     resolved to a builtin method: (that method, the static
                     type of the receiver, the tuple of the arguments' types);
                     .fixed of a send node of those four kinds that
                     class-hierarchy analysis binds to one user method
                     (`Checker._fixed`): (that method, the frozenset of the
                     names of the prototypes the analysis allowed)
    compiler         MethodDecl.code, MethodDecl.fn, VarDecl.code, GSel.code,
                     BlockLit.code (the code of the bodies, see `compiler`);
                     .site of a send node (those above, and a NameRef that
                     is a self-send or the target of a setter send) that the
                     compile step does not bind to a builtin: the number of
                     its inline cache, which a fixed send probes only where
                     its guard fails
"""

from dataclasses import dataclass, field, fields
from functools import cache


def note(default=None):
    """A field one pass writes for a later pass to read (see the module doc)."""
    return field(default=default, kw_only=True, compare=False, repr=False,
                 metadata={"note": True})


@dataclass(slots=True)
class Node:
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)

    def pos(self):
        return self.line, self.col


@cache
def _syntax_fields(cls):
    return tuple(f.name for f in fields(cls)
                 if f.name not in ("line", "col") and not f.metadata.get("note"))


def children(node):
    """(name, value) of each syntax field of `node`: every field but `line`,
    `col` and the notes.  A value is a node, a list or tuple, or a leaf."""
    return [(name, getattr(node, name)) for name in _syntax_fields(type(node))]


# ---------------------------------------------------------------------------
# types

@dataclass(slots=True)
class TypeExpr(Node):
    name: str = ""
    groups: list = field(default_factory=list)   # list of list[TypeExpr]
    resolved: str = note()

    def canonical(self):
        if self.resolved is not None:
            return self.resolved
        out = self.name
        for g in self.groups:
            out += "<" + ", ".join(a.canonical() for a in g) + ">"
        return out

    def __repr__(self):
        return f"TypeExpr({self.canonical()})"


def tname(name, *groups, line=0, col=0):
    return TypeExpr(name, [list(g) for g in groups], line=line, col=col)


# ---------------------------------------------------------------------------
# compilation units and program units

@dataclass(slots=True)
class MetaCall(Node):
    name: str = ""
    text: str = None          # raw delimited argument text, or None


@dataclass(slots=True)
class CompilationUnit(Node):
    package: str = ""
    imports: list = field(default_factory=list)
    units: list = field(default_factory=list)      # PrototypeDecl | InterfaceDecl
    filename: str = "<source>"


@dataclass(slots=True)
class TemplateParam(Node):
    name: str = ""            # formal name, or "" when the slot is a concrete type
    bound: TypeExpr = None
    concrete: TypeExpr = None  # set for declarations like Set<Int>

    @property
    def is_formal(self):
        return self.concrete is None


@dataclass(slots=True)
class CtxParam(Node):
    name: str = ""
    mode: str = "%"           # '%' copy, '&' reference, '*' instance variable
    type: TypeExpr = None
    qualifier: str = "private"


@dataclass(slots=True)
class PrototypeDecl(Node):
    qualifier: str = "public"
    modifier: str = None      # None | 'abstract' | 'final' | 'mixin'
    mixin_base: TypeExpr = None
    name: str = ""
    template_params: list = field(default_factory=list)
    context_params: list = field(default_factory=list)
    extends: TypeExpr = None
    mixin_list: list = field(default_factory=list)
    implements: list = field(default_factory=list)
    slots: list = field(default_factory=list)
    meta_calls: list = field(default_factory=list)
    hidden: bool = False      # compiler-generated (mixin flattening, context blocks)
    is_ctx_block: bool = note(False)
    ctx_self_type: TypeExpr = note()
    mixin_host_base: str = note()
    filename: str = note("<source>")


@dataclass(slots=True)
class InterfaceDecl(Node):
    qualifier: str = "public"
    name: str = ""
    template_params: list = field(default_factory=list)
    extends: list = field(default_factory=list)
    sigs: list = field(default_factory=list)       # MethodDecl with body None
    meta_calls: list = field(default_factory=list)
    filename: str = note("<source>")


# ---------------------------------------------------------------------------
# slots

@dataclass(slots=True)
class VarDecl(Node):
    qualifier: str = "private"
    is_shared: bool = False
    is_const: bool = False
    is_final: bool = False
    name: str = ""
    type: TypeExpr = None
    init: object = None
    meta_calls: list = field(default_factory=list)
    resolved_type: str = note()
    code: object = note()


@dataclass(slots=True)
class Param(Node):
    name: str = ""
    type: TypeExpr = None


@dataclass(slots=True)
class SelectorPart(Node):
    selector: str = ""        # including the ':'
    params: list = field(default_factory=list)


@dataclass(slots=True)
class UnarySig(Node):
    name: str = ""


@dataclass(slots=True)
class KeywordSig(Node):
    parts: list = field(default_factory=list)      # SelectorPart
    indexing: bool = False    # declared as `[] at: ...`

    @property
    def name(self):
        return "".join(p.selector for p in self.parts)


@dataclass(slots=True)
class OperatorSig(Node):
    name: str = ""
    param: Param = None       # None for prefix(!-started or bare) operators


# grammar-method signature regex -------------------------------------------

@dataclass(slots=True)
class GSel(Node):
    selector: str = ""
    argspec: tuple = ("none",)
    # ('none',) | ('types', [alts...]) | ('star', alts) | ('plus', alts)
    # | ('default', TypeExpr, Expr); alts = list[TypeExpr]
    code: object = note()


@dataclass(slots=True)
class GSeq(Node):
    items: list = field(default_factory=list)


@dataclass(slots=True)
class GAlt(Node):
    items: list = field(default_factory=list)


@dataclass(slots=True)
class GStar(Node):
    item: object = None


@dataclass(slots=True)
class GPlus(Node):
    item: object = None


@dataclass(slots=True)
class GOpt(Node):
    item: object = None


@dataclass(slots=True)
class GrammarSig(Node):
    regex: object = None
    param_name: str = ""
    param_type: TypeExpr = None


@dataclass(slots=True)
class MethodDecl(Node):
    qualifier: str = "public"
    is_override: bool = False
    is_abstract: bool = False
    is_final: bool = False
    sig: object = None
    return_type: TypeExpr = None
    body: list = None         # list of statements, or None
    body_expr: object = None  # `fun sig = expr` form
    meta_calls: list = field(default_factory=list)
    synthetic: bool = note(False)
    is_stub: bool = note(False)
    ctx_self_field: str = note()
    cells: set = note()
    code: object = note()
    fn: object = note()

    @property
    def name(self):
        s = self.sig
        if isinstance(s, (UnarySig, OperatorSig)):
            return s.name
        if isinstance(s, KeywordSig):
            return s.name
        if isinstance(s, GrammarSig):
            from .grammar_methods import method_name_of
            return method_name_of(s.regex)
        return "?"


# ---------------------------------------------------------------------------
# statements

@dataclass(slots=True)
class ExprStat(Node):
    expr: object = None


@dataclass(slots=True)
class AssignStat(Node):
    targets: list = field(default_factory=list)
    value: object = None


@dataclass(slots=True)
class VarDeclStat(Node):
    decls: list = field(default_factory=list)      # (name, TypeExpr|None, init|None)
    resolved_types: list = note()


@dataclass(slots=True)
class ReturnStat(Node):
    value: object = None
    is_caret: bool = False


@dataclass(slots=True)
class IfStat(Node):
    arms: list = field(default_factory=list)       # (cond, body)
    else_body: list = None
    scoped: list = note()     # per arm, then else: the body declares a variable


@dataclass(slots=True)
class WhileStat(Node):
    cond: object = None
    body: list = field(default_factory=list)
    scoped: bool = note()     # the body declares a variable


@dataclass(slots=True)
class EmptyStat(Node):
    pass


@dataclass(slots=True)
class MetaStat(Node):
    call: MetaCall = None


# ---------------------------------------------------------------------------
# expressions

@dataclass(slots=True)
class Lit(Node):
    kind: str = "Int"   # Int Byte Short Long Float Double Char Boolean String RawString Symbol Nil NoObject
    value: object = None
    runtime_value: object = note()   # the one shared value, unless a String or Symbol
    step: bool = note(False)          # the `1` of a `++` or `--`


@dataclass(slots=True)
class ArrayLit(Node):
    elems: list = field(default_factory=list)
    resolved_type: str = note()


@dataclass(slots=True)
class TupleLit(Node):
    items: list = field(default_factory=list)      # (field name | None, expr)
    resolved_type: str = note()


# NameRef.binding is one of these four (the interpreter tests them by
# identity), or ("static", owner) for a shared variable or constant, with
# owner the name of the entry that declares it
LOCAL = ("local", None)
FIELD = ("field", None)     # an instance variable of the frame's fields owner
PROTO = ("proto", None)     # a prototype
SEND = ("send", None)       # an implicit unary self-send, or on an assignment
                            # target, a self-send of the variable's setter


@dataclass(slots=True)
class NameRef(Node):
    name: str = ""
    package: str = None
    binding: tuple = note()
    site: int = note()


@dataclass(slots=True)
class GenericRef(Node):
    name: str = ""
    groups: list = field(default_factory=list)
    resolved: str = note()

    def type_expr(self):
        return TypeExpr(self.name, self.groups, line=self.line, col=self.col)


@dataclass(slots=True)
class SelfRef(Node):
    field_name: str = None


@dataclass(slots=True)
class SuperRef(Node):
    pass


@dataclass(slots=True)
class UnarySend(Node):
    receiver: object = None
    selector: str = ""
    mode: str = ""            # '' checked | '?' dynamic | '?.' nil-safe
    builtin: tuple = note()
    fixed: tuple = note()
    site: int = note()


@dataclass(slots=True)
class KeywordSend(Node):
    receiver: object = None   # None means implicit self
    parts: list = field(default_factory=list)      # (selector, [args])
    mode: str = ""
    part_modes: list = note()
    builtin: tuple = note()
    fixed: tuple = note()
    site: int = note()

    @property
    def message_name(self):
        return "".join(sel for sel, _ in self.parts)


@dataclass(slots=True)
class BinarySend(Node):
    left: object = None
    op: str = ""
    right: object = None
    builtin: tuple = note()
    fixed: tuple = note()
    site: int = note()


@dataclass(slots=True)
class PrefixOp(Node):
    op: str = ""
    operand: object = None
    builtin: tuple = note()
    fixed: tuple = note()
    site: int = note()


@dataclass(slots=True)
class IndexGet(Node):
    receiver: object = None
    index: object = None
    nil_safe: bool = False


@dataclass(slots=True)
class Creation(Node):
    callee: object = None     # NameRef | GenericRef
    args: list = field(default_factory=list)


@dataclass(slots=True)
class BlockLit(Node):
    sections: list = None     # list of list[Param]; None = no parameter bar
    return_type: TypeExpr = None
    body: list = field(default_factory=list)
    self_type: TypeExpr = None      # context block `(:self T)[...]`
    info: object = note()           # BlockInfo
    runtime_type: str = note()
    code: object = note()

    @property
    def param_sections(self):
        return self.sections or []


@dataclass(slots=True)
class SigRef(Node):
    kind: str = "unary"       # 'unary' | 'keyword' | 'operator'
    name: str = ""
    param_types: list = field(default_factory=list)
    return_type: TypeExpr = None
    resolved: tuple = note()


@dataclass(slots=True)
class MethodAccess(Node):
    receiver: object = None
    sig: SigRef = None
    resolved_type: str = note()


@dataclass(slots=True)
class PercentRef(Node):
    name: str = ""


# core-only nodes ------------------------------------------------------------

@dataclass(slots=True)
class AssignExpr(Node):
    target: object = None
    value: object = None


@dataclass(slots=True)
class IfExpr(Node):
    cond: object = None
    then: object = None
    otherwise: object = None


@dataclass(slots=True)
class LetExpr(Node):
    name: str = ""
    init: object = None
    body: object = None


# ---------------------------------------------------------------------------
# construction helpers used by the desugar pass

def unary(recv, sel, line=0, col=0):
    return UnarySend(recv, sel, "", line=line, col=col)


def kwsend(recv, parts, line=0, col=0):
    return KeywordSend(recv, parts, "", line=line, col=col)


def send1(recv, sel, arg, line=0, col=0):
    return kwsend(recv, [(sel, [arg])], line=line, col=col)


# ---------------------------------------------------------------------------
# s-expression dump (--dump-ast)

def to_sexpr(node, indent=0):
    pad = "  " * indent
    if node is None:
        return pad + "nil"
    if isinstance(node, (str, int, float, bool)):
        return pad + repr(node)
    if isinstance(node, tuple):
        inner = [to_sexpr(x, indent + 1) for x in node]
        return pad + "(tuple\n" + "\n".join(inner) + ")"
    if isinstance(node, list):
        if not node:
            return pad + "()"
        inner = [to_sexpr(x, indent + 1) for x in node]
        return pad + "(list\n" + "\n".join(inner) + ")"
    if isinstance(node, TypeExpr):
        return pad + f"(type {node.canonical()})"
    if isinstance(node, Node):
        parts = [pad + "(" + type(node).__name__]
        for name, val in children(node):
            if val in (None, [], False, "") and name != "kind":
                continue
            parts.append(pad + "  :" + name)
            parts.append(to_sexpr(val, indent + 2))
        return "\n".join(parts) + ")"
    return pad + repr(node)


# ---------------------------------------------------------------------------
# Cyan-ish pretty printer (--dump-desugar)

def _pp_type(t):
    return t.canonical() if t is not None else None


def _pp_params(params):
    return "(" + ", ".join(f":{p.name} {_pp_type(p.type)}" for p in params) + ")"


def pp_expr(e):
    if e is None:
        return "nil"
    match e:
        case Lit(kind="String", value=v):
            return '"' + str(v).replace('"', '\\"') + '"'
        case Lit(kind="RawString", value=v):
            return '@"' + str(v) + '"'
        case Lit(kind="Symbol", value=v):
            return "#" + str(v)
        case Lit(kind="Char", value=v):
            return "'" + str(v) + "'"
        case Lit(kind="Boolean", value=v):
            return "true" if v else "false"
        case Lit(kind="Nil"):
            return "nil"
        case Lit(kind="NoObject"):
            return "noObject"
        case Lit(value=v):
            return str(v)
        case ArrayLit(elems=elems):
            return "{# " + ", ".join(pp_expr(x) for x in elems) + " #}"
        case TupleLit(items=items):
            body = ", ".join((f"{n}: " if n else "") + pp_expr(x) for n, x in items)
            return "[. " + body + " .]"
        case NameRef(name=n, package=p):
            return f"{p}.{n}" if p else n
        case GenericRef():
            return e.type_expr().canonical()
        case SelfRef(field_name=f):
            return f"self.{f}" if f else "self"
        case SuperRef():
            return "super"
        case UnarySend(receiver=r, selector=s, mode=m):
            return f"({pp_expr(r)} {m}{s})"
        case KeywordSend(receiver=r, parts=parts, mode=m):
            chunks = []
            for sel, args in parts:
                chunks.append(m + sel + (" " + ", ".join(pp_expr(a) for a in args) if args else ""))
            head = (pp_expr(r) + " ") if r is not None else ""
            return "(" + head + " ".join(chunks) + ")"
        case BinarySend(left=l, op=op, right=r):
            return f"({pp_expr(l)} {op} {pp_expr(r)})"
        case PrefixOp(op=op, operand=x):
            return f"({op}{pp_expr(x)})"
        case IndexGet(receiver=r, index=i, nil_safe=ns):
            return f"{pp_expr(r)}?[{pp_expr(i)}]?" if ns else f"{pp_expr(r)}[{pp_expr(i)}]"
        case Creation(callee=c, args=args):
            return pp_expr(c) + "(" + ", ".join(pp_expr(a) for a in args) + ")"
        case BlockLit():
            return pp_block(e)
        case MethodAccess(receiver=r, sig=s):
            return f"{pp_expr(r)}.{{{s.name}}}."
        case PercentRef(name=n):
            return "%" + n
        case AssignExpr(target=t, value=v):
            return f"({pp_expr(t)} = {pp_expr(v)})"
        case IfExpr(cond=c, then=t, otherwise=o):
            return f"(if ({pp_expr(c)}) [ {pp_expr(t)} ] else [ {pp_expr(o)} ])"
        case LetExpr(name=n, init=i, body=b):
            return f"(:{n} = {pp_expr(i)} in {pp_expr(b)})"
    return repr(e)


def pp_block(b, indent=0):
    header = ""
    if b.self_type is not None:
        header = f"(:self {_pp_type(b.self_type)})"
    sig = ""
    if b.sections is not None or b.return_type is not None:
        bits = []
        sections = b.sections or []
        if len(sections) == 1:
            bits.append(" ".join(f":{p.name} {_pp_type(p.type)}" for p in sections[0]))
        else:
            for sec in sections:
                bits.append("eval: " + _pp_params(sec))
        if b.return_type is not None:
            bits.append(f"-> {_pp_type(b.return_type)}")
        sig = "|" + " ".join(x for x in bits if x) + "| "
    stats = "; ".join(pp_stat(s, 0).strip() for s in b.body)
    return f"{header}[ {sig}{stats} ]"


def pp_stat(s, indent=1):
    pad = "    " * indent

    def body_of(stats, ind):
        inner = "".join(pp_stat(x, ind + 1) + ";\n" for x in stats)
        return "[\n" + inner + "    " * ind + "]"

    match s:
        case ExprStat(expr=e):
            return pad + pp_expr(e)
        case AssignStat(targets=ts, value=v):
            return pad + ", ".join(pp_expr(t) for t in ts) + " = " + pp_expr(v)
        case VarDeclStat(decls=ds):
            bits = []
            for name, ty, init in ds:
                out = ":" + name
                if ty is not None:
                    out += " " + _pp_type(ty)
                if init is not None:
                    out += " = " + pp_expr(init)
                bits.append(out)
            return pad + "; ".join(bits)
        case ReturnStat(value=v, is_caret=c):
            kw = "^" if c else "return"
            return pad + (f"{kw} {pp_expr(v)}" if v is not None else kw)
        case IfStat(arms=arms, else_body=eb):
            out = ""
            for k, (cond, body) in enumerate(arms):
                lead = "if" if k == 0 else "else if"
                out += (pad if k == 0 else " ") + f"{lead} ( {pp_expr(cond)} ) " + body_of(body, indent)
            if eb is not None:
                out += " else " + body_of(eb, indent)
            return out
        case WhileStat(cond=c, body=body):
            return pad + f"while ( {pp_expr(c)} ) " + body_of(body, indent)
        case EmptyStat():
            return pad
        case MetaStat(call=mc):
            return pad + "@" + mc.name + (f"({mc.text})" if mc.text is not None else "")
    return pad + repr(s)


def pp_method(m, indent=1):
    pad = "    " * indent
    words = [m.qualifier]
    if m.is_override:
        words.append("override")
    if m.is_final:
        words.append("final")
    if m.is_abstract:
        words.append("abstract")
    words.append("fun")
    sig = m.sig
    if isinstance(sig, UnarySig):
        words.append(sig.name)
    elif isinstance(sig, OperatorSig):
        words.append(sig.name)
        if sig.param is not None:
            words.append(f"(:{sig.param.name} {_pp_type(sig.param.type)})")
    elif isinstance(sig, KeywordSig):
        bits = []
        if sig.indexing:
            bits.append("[]")
        for part in sig.parts:
            bits.append(part.selector)
            if part.params:
                bits.append(_pp_params(part.params))
        words.append(" ".join(bits))
    elif isinstance(sig, GrammarSig):
        from .grammar_methods import render_regex
        words.append("(" + render_regex(sig.regex, with_types=True) + ")")
        words.append(":" + sig.param_name + ((" " + _pp_type(sig.param_type)) if sig.param_type else ""))
    if m.return_type is not None:
        words.append("-> " + _pp_type(m.return_type))
    head = pad + " ".join(words)
    if m.body_expr is not None:
        return head + " = " + pp_expr(m.body_expr)
    if m.body is None:
        return head
    inner = "".join(pp_stat(st, indent + 1) + ";\n" for st in m.body)
    return head + " [\n" + inner + pad + "]"


def pp_unit(decl):
    if isinstance(decl, InterfaceDecl):
        head = f"{decl.qualifier} interface {decl.name}"
        if decl.extends:
            head += " extends " + ", ".join(t.canonical() for t in decl.extends)
        lines = [head]
        for s in decl.sigs:
            lines.append(pp_method(s))
        lines.append("end")
        return "\n".join(lines)
    words = [decl.qualifier]
    if decl.modifier == "mixin":
        words.append("mixin" + (f"({decl.mixin_base.canonical()})" if decl.mixin_base else ""))
    elif decl.modifier:
        words.append(decl.modifier)
    words.append("object")
    name = decl.name
    if decl.template_params:
        args = ", ".join((":" + tp.name if tp.is_formal else tp.concrete.canonical())
                         for tp in decl.template_params)
        name += f"<{args}>"
    words.append(name)
    if decl.extends is not None:
        words.append("extends " + decl.extends.canonical())
    if decl.mixin_list:
        words.append("mixin " + ", ".join(t.canonical() for t in decl.mixin_list))
    if decl.implements:
        words.append("implements " + ", ".join(t.canonical() for t in decl.implements))
    lines = [" ".join(words)]
    for slot in decl.slots:
        if isinstance(slot, VarDecl):
            bits = ["    " + slot.qualifier]
            if slot.is_shared:
                bits.append("shared")
            if slot.is_const:
                bits.append("const")
            if slot.is_final:
                bits.append("final")
            bits.append(":" + slot.name + ((" " + _pp_type(slot.type)) if slot.type else ""))
            if slot.init is not None:
                bits.append("= " + pp_expr(slot.init))
            lines.append(" ".join(bits))
        else:
            lines.append(pp_method(slot))
    lines.append("end")
    return "\n".join(lines)


def pp_compilation_unit(cu):
    out = [f"package {cu.package}"]
    for imp in cu.imports:
        out.append(f"import {imp}")
    for u in cu.units:
        out.append("")
        out.append(pp_unit(u))
    return "\n".join(out)


def walk(node):
    """Yield every AST node reachable from `node` (pre-order)."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, (list, tuple)):
            stack.extend(cur)
        elif isinstance(cur, Node):
            yield cur
            stack.extend(value for _name, value in children(cur))
