"""Block levels and restricted/unrestricted classification.

A method body is the level-1 scope; every nested statement body or literal
block opens the next level.  Parameters live at level -1; there is no level 0
variable.  For a literal block B:

    bl(B) = -1  if B accesses external locals only through %, has no return
    bl(B) = 0   if B has a return statement and no bare external-local access
    bl(B) = max level of bare-accessed external locals otherwise

Access counts anywhere between the block's delimiters, including nested
blocks; instance variables and parameters never matter.

The same walk notes, for the compile step, which locals the code of a body
keeps in cells (`cells` of the method decl and of each BlockInfo): those a
block literal in the body names, parameters too, its %-variables, and those
passed to a context object's `new:` or `bind:` (`BINDERS`), which binds
their cells.  No other code can see any other local.
"""

from dataclasses import dataclass, field

from .cyast import (AssignExpr, AssignStat, BlockLit, ExprStat, GrammarSig, IfExpr, IfStat,
                    KeywordSend, KeywordSig, LetExpr, NameRef, Node, OperatorSig, PercentRef,
                    ReturnStat, TypeExpr, VarDeclStat, WhileStat, children)

# the selectors of a context object's sends that bind its `&` and `*`
# parameters to what the arguments refer to
BINDERS = ("new:", "bind:")


@dataclass
class BlockInfo:
    declared_at_level: int = 1
    accessed: dict = field(default_factory=dict)    # name -> level (bare external locals)
    percent_vars: dict = field(default_factory=dict)  # name -> level
    has_return: bool = False
    bl: int = -1
    restricted: bool = False
    interface_type: str = None                      # filled by the checker
    line: int = 0
    col: int = 0
    names: set = field(default_factory=set)         # locals and parameters named inside
    cells: set = field(default_factory=set)         # see the module doc

    def classify(self):
        if self.accessed:
            self.bl = max(self.accessed.values())
        elif self.has_return:
            self.bl = 0
        else:
            self.bl = -1
        self.restricted = self.bl >= 0
        return self


class _Scope:
    """`owner` is the BlockInfo, or the method's, whose body holds the
    scope."""

    def __init__(self, parent, level, owner=None):
        self.parent = parent
        self.level = level
        self.names = {}
        self.owner = owner or parent.owner

    def declare(self, name):
        self.names[name] = self.level

    def lookup(self, name):
        cur = self
        while cur is not None:
            if name in cur.names:
                return cur.names[name]
            cur = cur.parent
        return None


def analyze_method(decl, reporter):
    """Attach a BlockInfo to every literal block of a method body.

    Returns the list of BlockInfos in source order."""
    infos = []
    if decl.body is None:
        return infos
    owner = BlockInfo()
    top = _Scope(None, 1, owner)
    params = _Scope(None, -1, owner)
    sig = decl.sig
    if isinstance(sig, KeywordSig):
        for part in sig.parts:
            for p in part.params:
                params.declare(p.name)
    elif isinstance(sig, OperatorSig) and sig.param is not None:
        params.declare(sig.param.name)
    elif isinstance(sig, GrammarSig):
        params.declare(sig.param_name)
    top.parent = params
    _walk_stats(decl.body, top, [], infos, reporter)
    decl.cells = owner.cells
    return infos


def _walk_stats(stats, scope, enclosing, infos, reporter):
    for st in stats:
        _walk_stat(st, scope, enclosing, infos, reporter)


def _walk_stat(st, scope, enclosing, infos, reporter):
    if isinstance(st, VarDeclStat):
        for name, _ty, init in st.decls:
            if init is not None:
                _walk_expr(init, scope, enclosing, infos, reporter)
            scope.declare(name)
        return
    if isinstance(st, AssignStat):
        for t in st.targets:
            _walk_expr(t, scope, enclosing, infos, reporter)
        _walk_expr(st.value, scope, enclosing, infos, reporter)
        return
    if isinstance(st, ReturnStat):
        if not st.is_caret:
            for info in enclosing:
                info.has_return = True
        if st.value is not None:
            _walk_expr(st.value, scope, enclosing, infos, reporter)
        return
    if isinstance(st, IfStat):
        for cond, body in st.arms:
            _walk_expr(cond, scope, enclosing, infos, reporter)
            _walk_stats(body, _Scope(scope, scope.level + 1), enclosing, infos, reporter)
        if st.else_body is not None:
            _walk_stats(st.else_body, _Scope(scope, scope.level + 1), enclosing, infos, reporter)
        return
    if isinstance(st, WhileStat):
        _walk_expr(st.cond, scope, enclosing, infos, reporter)
        _walk_stats(st.body, _Scope(scope, scope.level + 1), enclosing, infos, reporter)
        return
    if isinstance(st, ExprStat):
        _walk_expr(st.expr, scope, enclosing, infos, reporter)
        return


def _record_access(name, scope, enclosing, percent):
    level = scope.lookup(name)
    if level is None or level == -1:
        return level                      # unknown names and parameters never affect bl
    for info in enclosing:
        # external to a block iff declared in one of its enclosing scopes
        if level <= info.declared_at_level:
            if percent:
                info.percent_vars[name] = level
            else:
                info.accessed[name] = max(info.accessed.get(name, level), level)
    return level


def _direct_percent_names(stats):
    """Percent variables used directly in these statements (not inside nested
    literal blocks)."""
    names = []

    def visit(node):
        if isinstance(node, (list, tuple)):
            for x in node:
                visit(x)
        elif isinstance(node, PercentRef):
            names.append(node)
        elif isinstance(node, Node) and not isinstance(node, BlockLit):
            for _name, value in children(node):
                visit(value)

    visit(stats)
    return names


def _walk_expr(e, scope, enclosing, infos, reporter):
    if e is None:
        return
    if isinstance(e, NameRef):
        level = _record_access(e.name, scope, enclosing, percent=False)
        if level is not None:
            for info in enclosing:
                info.names.add(e.name)
        if enclosing and e.name in enclosing[-1].percent_vars \
                and level == enclosing[-1].declared_at_level + 1:
            reporter.error(e.line, e.col,
                           f"it is illegal to use both '{e.name}' and '%{e.name}' in one block")
        return
    if isinstance(e, PercentRef):
        if not enclosing:
            reporter.error(e.line, e.col, "'%' can only be used inside a block")
        return   # validated when the enclosing block pre-scanned its % names
    if isinstance(e, BlockLit):
        info = BlockInfo(declared_at_level=scope.level, line=e.line, col=e.col)
        e.info = info
        infos.append(info)
        for pref in _direct_percent_names(e.body):
            level = scope.lookup(pref.name)
            if level is None:
                reporter.error(pref.line, pref.col,
                               f"'%{pref.name}' does not name a visible local variable")
            elif level == -1:
                reporter.error(pref.line, pref.col, "it is illegal to use '%' with a parameter")
            else:
                info.percent_vars[pref.name] = level
        pscope = _Scope(scope, -1, info)
        for sec in e.param_sections:
            for p in sec:
                pscope.declare(p.name)
        body_scope = _Scope(pscope, scope.level + 1, info)
        for name in info.percent_vars:
            body_scope.declare(name)      # the block-local %-copies shadow the real ones
        _walk_stats(e.body, body_scope, enclosing + [info], infos, reporter)
        info.classify()
        # the enclosing body's code sees what the block names
        owner = scope.owner
        owner.cells |= info.names
        owner.cells.update(info.percent_vars)
        return
    if isinstance(e, LetExpr):
        _walk_expr(e.init, scope, enclosing, infos, reporter)
        inner = _Scope(scope, scope.level)
        inner.declare(e.name)
        _walk_expr(e.body, inner, enclosing, infos, reporter)
        return
    if isinstance(e, IfExpr):
        _walk_expr(e.cond, scope, enclosing, infos, reporter)
        _walk_expr(e.then, scope, enclosing, infos, reporter)
        _walk_expr(e.otherwise, scope, enclosing, infos, reporter)
        return
    if type(e) is KeywordSend and len(e.parts) == 1 and e.parts[0][0] in BINDERS:
        scope.owner.cells.update(a.name for a in e.parts[0][1]
                                 if isinstance(a, NameRef) and scope.lookup(a.name) is not None)
    if isinstance(e, AssignExpr):
        _walk_expr(e.target, scope, enclosing, infos, reporter)
        _walk_expr(e.value, scope, enclosing, infos, reporter)
        return
    # generic traversal for sends, literals, etc.
    for _name, value in children(e):
        _walk_any(value, scope, enclosing, infos, reporter)


def _walk_any(v, scope, enclosing, infos, reporter):
    if isinstance(v, (list, tuple)):
        for x in v:
            _walk_any(x, scope, enclosing, infos, reporter)
    elif isinstance(v, Node) and not isinstance(v, TypeExpr):
        _walk_expr(v, scope, enclosing, infos, reporter)


def dump_blocks(infos):
    lines = []
    for info in infos:
        cls = "r-block" if info.restricted else "u-block"
        iface = info.interface_type or "?"
        lines.append(f"{info.line}:{info.col} level={info.declared_at_level} "
                     f"bl={info.bl} {cls} {iface}")
    return "\n".join(lines)
