"""Recursive-descent parser for the Cyan core subset.

Binary operators are parsed by one precedence-climbing loop over the levels
of the reference figure (low to high): || < ~|| < && < relational < .. <
additive < multiplicative < bit < shift < unary.  The relational, interval
and shift levels are non-associative: one operator each, and a second one of
the same level ends the expression.  User-defined binary operators bind
loosest and take the whole rest of the expression as their right operand.  A
keyword message owns every selector that follows it and is not shielded by
parentheses; its arguments are parsed at binary-expression level.
"""

from .cyast import *
from .diagnostics import Reporter
from .lexer import Token, TokenKind, tokenize

K = TokenKind

# binary operator -> its level in the precedence figure, loosest first
OP_LEVEL = {
    "||": 0,
    "~||": 1,
    "&&": 2,
    "==": 3, "<=": 3, "<": 3, ">": 3, ">=": 3, "!=": 3,
    "..": 4,
    "+": 5, "-": 5,
    "/": 6, "*": 6, "%": 6,
    "|": 7, "~|": 7, "&": 7,
    "<.<": 8, ">.>": 8, ">.>>": 8,
}
TOP_LEVEL = max(OP_LEVEL.values())
NONASSOC_LEVELS = {3, 4, 8}
USERDEF_LEVEL = -1   # user-defined binary operators bind loosest
PREFIX_OPS = {"+", "-", "++", "--", "!", "~"}


# Expressions and statement lists nest at most this deep; a nested block or
# parenthesis takes one or two levels.  Deeper input gets one diagnostic.
MAX_NESTING = 256


class ParseError(Exception):
    pass


class NestingTooDeep(Exception):
    """Past MAX_NESTING levels: the parse of the file ends, without recovery."""


class Parser:
    def __init__(self, tokens, reporter=None, filename="<source>"):
        self.toks = tokens + tokens[-1:] * 2     # `tok(k)` looks two past the EOF
        self.pos = 0
        self.depth = 0
        self.reporter = reporter if reporter is not None else Reporter(filename)

    # -- primitives ---------------------------------------------------------

    def tok(self, k=0):
        return self.toks[self.pos + k]

    def at_eof(self):
        return self.tok().kind is K.EOF

    def advance(self):
        t = self.tok()
        if t.kind is not K.EOF:
            self.pos += 1
        return t

    def error(self, msg, tok=None):
        t = tok or self.tok()
        self.reporter.error(t.line, t.col, msg)
        raise ParseError(msg)

    def expect_punct(self, text, what=None):
        t = self.tok()
        if not t.is_punct(text):
            self.error(f"expected '{text}'" + (f" {what}" if what else "") + f", found '{t.lexeme or 'end of file'}'")
        return self.advance()

    def expect_kw(self, word):
        t = self.tok()
        if not t.is_kw(word):
            self.error(f"expected '{word}', found '{t.lexeme or 'end of file'}'")
        return self.advance()

    def expect_ident(self, what="identifier"):
        t = self.tok()
        if t.kind is not K.IDENT:
            self.error(f"expected {what}, found '{t.lexeme or 'end of file'}'")
        return self.advance()

    def nested(self, parse, *args):
        """`parse(*args)` one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            t = self.tok()
            self.reporter.error(t.line, t.col,
                                f"expressions and blocks nest deeper than {MAX_NESTING} levels")
            raise NestingTooDeep
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1

    def mark(self):
        return self.pos, len(self.reporter.items)

    def reset(self, m):
        self.pos, n = m
        del self.reporter.items[n:]

    def adjacent(self, a, b):
        return a.line == b.line and a.end_col == b.col

    def comma_list(self, parse):
        """`parse()`, and again after each ','."""
        items = [parse()]
        while self.tok().is_punct(","):
            self.advance()
            items.append(parse())
        return items

    def colon_names(self, what):
        """A name, and each further `, :name`: the names of one declaration."""
        names = [self.expect_ident(what).lexeme]
        while self.tok().is_punct(",") and self.tok(1).is_punct(":"):
            self.advance()
            self.advance()
            names.append(self.expect_ident(what).lexeme)
        return names

    # -- compilation unit -----------------------------------------------------

    def parse_unit(self, filename="<source>"):
        cu = CompilationUnit(filename=filename)
        try:
            self._parse_unit_into(cu)
        except NestingTooDeep:
            pass
        for u in cu.units:
            u.filename = filename
        public_like = [u for u in cu.units if u.qualifier in ("public", "protected")]
        if len(public_like) > 1:
            u = public_like[1]
            self.reporter.error(u.line, u.col,
                                "a file must declare exactly one public or protected program unit")
        return cu

    def _parse_unit_into(self, cu):
        try:
            self.expect_kw("package")
            cu.package = self.parse_dotted_name()
            while self.tok().is_kw("import"):
                self.advance()
                cu.imports.append(self.parse_dotted_name())
                while self.tok().is_punct(","):
                    self.advance()
                    cu.imports.append(self.parse_dotted_name())
        except ParseError:
            self.recover_to_unit()
        while not self.at_eof():
            metas = self.parse_meta_calls()
            try:
                cu.units.append(self.parse_program_unit(metas))
            except ParseError:
                self.recover_to_unit()

    def parse_dotted_name(self):
        parts = [self.expect_ident("package name").lexeme]
        while self.tok().is_punct(".") and self.tok(1).kind is K.IDENT:
            self.advance()
            parts.append(self.advance().lexeme)
        return ".".join(parts)

    def recover_to_unit(self):
        while not self.at_eof():
            t = self.tok()
            if t.is_kw("end"):
                self.advance()
                return
            if t.is_kw("object") or t.is_kw("interface"):
                return
            self.advance()

    def parse_meta_calls(self):
        calls = []
        while self.tok().kind in (K.META_AT, K.META_AT_AT):
            at = self.advance()
            name_tok = self.tok()
            if name_tok.kind is not K.IDENT:
                self.error("metaobject name expected")
            self.advance()
            text = None
            if self.tok().kind is K.META_TEXT:
                text = self.advance().lexeme
            calls.append(MetaCall(name_tok.lexeme, text, line=at.line, col=at.col))
        return calls

    def parse_program_unit(self, metas):
        qualifier = "public"
        t = self.tok()
        if t.kind is K.KEYWORD and t.lexeme in ("public", "private", "protected"):
            qualifier = self.advance().lexeme
        modifier = None
        mixin_base = None
        t = self.tok()
        if t.is_kw("mixin"):
            self.advance()
            modifier = "mixin"
            if self.tok().is_punct("("):
                self.advance()
                mixin_base = self.parse_type()
                self.expect_punct(")")
        elif t.is_kw("abstract"):
            self.advance()
            modifier = "abstract"
        elif t.is_kw("final"):
            self.advance()
            modifier = "final"
        t = self.tok()
        if t.is_kw("interface"):
            decl = self.parse_interface(qualifier)
        elif t.is_kw("object"):
            decl = self.parse_prototype(qualifier, modifier, mixin_base)
        else:
            self.error("expected 'object' or 'interface' declaration")
        decl.meta_calls = metas
        return decl

    def parse_template_groups(self):
        params = []
        while self.tok().is_op("<"):
            self.advance()
            while True:
                if self.tok().is_punct(":"):
                    colon = self.advance()
                    name = self.expect_ident("generic parameter name").lexeme
                    bound = None
                    if self.tok().kind is K.IDENT:
                        bound = self.parse_type()
                    params.append(TemplateParam(name, bound, None, line=colon.line, col=colon.col))
                else:
                    ty = self.parse_type()
                    params.append(TemplateParam("", None, ty, line=ty.line, col=ty.col))
                if self.tok().is_punct(","):
                    self.advance()
                    continue
                break
            if not self.tok().is_op(">"):
                self.error("expected '>' closing generic parameter list")
            self.advance()
        return params

    def parse_prototype(self, qualifier, modifier, mixin_base):
        kw = self.expect_kw("object")
        name = self.expect_ident("prototype name").lexeme
        decl = PrototypeDecl(qualifier, modifier, mixin_base, name, line=kw.line, col=kw.col)
        decl.template_params = self.parse_template_groups()
        if self.tok().is_punct("("):
            decl.context_params = self.parse_context_params()
        if self.tok().is_kw("extends"):
            self.advance()
            decl.extends = self.parse_type()
        if self.tok().is_kw("mixin"):
            self.advance()
            decl.mixin_list = self.comma_list(self.parse_type)
        if self.tok().is_kw("implements"):
            self.advance()
            decl.implements = self.comma_list(self.parse_type)
        while not self.tok().is_kw("end"):
            if self.at_eof():
                self.error(f"missing 'end' of prototype {name}")
            start = self.pos
            try:
                slot = self.parse_slot()
                decl.slots.extend(slot if isinstance(slot, list) else [slot])
            except ParseError:
                self.recover_in_body(start)
        self.advance()
        return decl

    def parse_context_params(self):
        self.expect_punct("(")
        out = []
        while True:
            qualifier = None
            t = self.tok()
            if t.kind is K.KEYWORD and t.lexeme in ("public", "private", "protected"):
                qualifier = self.advance().lexeme
            colon = self.expect_punct(":")
            names = self.colon_names("context parameter name")
            mode = "%"
            t = self.tok()
            if t.kind is K.OPERATOR and t.lexeme in ("%", "&", "*"):
                mode = self.advance().lexeme
            ty = self.parse_type()
            for nm in names:
                out.append(CtxParam(nm, mode, ty, qualifier or "private", line=colon.line, col=colon.col))
            if self.tok().is_punct(","):
                self.advance()
                continue
            break
        self.expect_punct(")")
        return out

    def parse_interface(self, qualifier):
        kw = self.expect_kw("interface")
        name = self.expect_ident("interface name").lexeme
        decl = InterfaceDecl(qualifier, name, line=kw.line, col=kw.col)
        decl.template_params = self.parse_template_groups()
        if self.tok().is_kw("extends"):
            self.advance()
            decl.extends = self.comma_list(self.parse_type)
        while not self.tok().is_kw("end"):
            if self.at_eof():
                self.error(f"missing 'end' of interface {name}")
            start = self.pos
            try:
                fk = self.expect_kw("fun")
                sig, ret = self.parse_inter_meth_sig()
                decl.sigs.append(MethodDecl("public", sig=sig, return_type=ret,
                                            line=fk.line, col=fk.col))
            except ParseError:
                self.recover_in_body(start)
        self.advance()
        return decl

    def recover_in_body(self, start):
        """Skip to the next slot of a body after a parse error in a slot
        that began at token `start`.  It never stops at `start` itself, so a
        body loop cannot fail at the same token again."""
        depth = 0
        while not self.at_eof():
            t = self.tok()
            if t.is_punct("["):
                depth += 1
            elif t.is_punct("]"):
                if depth == 0:
                    self.advance()
                    return
                depth -= 1
            elif depth == 0 and (t.is_kw("end") or t.is_kw("fun") or t.is_kw("public")
                                 or t.is_kw("private") or t.is_kw("protected")):
                if self.pos == start:
                    self.advance()
                return
            self.advance()

    # -- slots ----------------------------------------------------------------

    def parse_slot(self):
        metas = self.parse_meta_calls()
        qualifier = None
        t = self.tok()
        if t.kind is K.KEYWORD and t.lexeme in ("public", "private", "protected"):
            qualifier = self.advance().lexeme
        flags = {"override": False, "final": False, "abstract": False}
        while self.tok().kind is K.KEYWORD and self.tok().lexeme in flags and not flags[self.tok().lexeme]:
            flags[self.advance().lexeme] = True
        t = self.tok()
        if t.is_kw("fun"):
            decl = self.parse_method(qualifier or "public", flags)
            decl.meta_calls = metas
            return decl
        if t.is_kw("const"):
            decls = self.parse_var_slot(qualifier or "public", is_const=True, flags=flags)
        elif t.is_kw("shared") or t.is_kw("var") or t.is_punct(":"):
            decls = self.parse_var_slot(qualifier or "private", is_const=False, flags=flags)
        else:
            self.error("expected slot declaration (variable, constant, or method)")
        decls[0].meta_calls = metas
        return decls

    def parse_var_slot(self, qualifier, is_const, flags):
        start = self.tok()
        is_shared = False
        if self.tok().is_kw("const"):
            self.advance()
        if self.tok().is_kw("shared"):
            self.advance()
            is_shared = True
        if self.tok().is_kw("var"):
            self.advance()
        self.expect_punct(":", "before variable name")
        names = self.colon_names("variable name")
        ty = None
        if self.tok().kind is K.IDENT or self.tok().is_kw("type"):
            ty = self.parse_type()
        init = None
        if self.tok().is_punct("="):
            self.advance()
            init = self.parse_expr()
        if ty is None and init is None and not is_const:
            self.error("a variable declaration needs a type or an initial value", start)
        if init is not None and len(names) > 1:
            self.error("an initializer is not allowed on a multi-variable declaration", start)
        return [VarDecl(qualifier, is_shared, is_const, flags["final"], nm, ty, init,
                        line=start.line, col=start.col) for nm in names]

    def parse_method(self, qualifier, flags):
        fk = self.expect_kw("fun")
        sig = self.parse_method_sig()
        ret = None
        if self.tok().is_punct("->"):
            self.advance()
            ret = self.parse_type()
        body = None
        body_expr = None
        if self.tok().is_punct("["):
            body = self.parse_stat_block()
        elif self.tok().is_punct("="):
            self.advance()
            body_expr = self.parse_expr()
        elif not flags["abstract"]:
            self.error("method body expected")
        return MethodDecl(qualifier, flags["override"], flags["abstract"], flags["final"],
                          sig, ret, body, body_expr, line=fk.line, col=fk.col)

    def parse_method_sig(self):
        t = self.tok()
        if t.is_punct("("):
            return self.parse_grammar_sig()
        if t.is_punct("[") and self.tok(1).is_punct("]"):
            self.advance(); self.advance()
            return self.parse_keyword_sig(indexing=True)
        if t.kind is K.ID_COLON:
            return self.parse_keyword_sig(indexing=False)
        if t.kind is K.IDENT:
            name = self.advance().lexeme
            return UnarySig(name, line=t.line, col=t.col)
        if t.kind in (K.OPERATOR, K.USER_OPERATOR):
            name = self.advance().lexeme
            param = None
            if name.startswith("!") and len(name) > 1:
                return OperatorSig(name, None, line=t.line, col=t.col)
            if self.tok().is_punct("("):
                self.advance()
                param = self.parse_single_param()
                self.expect_punct(")")
            elif self.tok().is_punct(":"):
                param = self.parse_single_param()
            return OperatorSig(name, param, line=t.line, col=t.col)
        self.error("method signature expected")

    def parse_single_param(self):
        colon = self.expect_punct(":")
        name = self.expect_ident("parameter name").lexeme
        ty = self.parse_type()
        return Param(name, ty, line=colon.line, col=colon.col)

    def parse_param_group(self):
        """ParamDec list: (:a, :b T, :c U) or the bare form :a, :b T."""
        params = []
        paren = False
        if self.tok().is_punct("("):
            paren = True
            self.advance()
        while True:
            colon = self.expect_punct(":", "before parameter name")
            names = self.colon_names("parameter name")
            ty = self.parse_type()
            for nm in names:
                params.append(Param(nm, ty, line=colon.line, col=colon.col))
            if self.tok().is_punct(","):
                self.advance()
                continue
            break
        if paren:
            self.expect_punct(")")
        return params

    def parse_keyword_sig(self, indexing):
        parts = []
        while self.tok().kind is K.ID_COLON:
            sel = self.advance()
            params = []
            if self.tok().is_punct("(") or self.tok().is_punct(":"):
                params = self.parse_param_group()
            parts.append(SelectorPart(sel.lexeme, params, line=sel.line, col=sel.col))
        if not parts:
            self.error("keyword selector expected")
        return KeywordSig(parts, indexing, line=parts[0].line, col=parts[0].col)

    # grammar-method signatures ------------------------------------------------

    def parse_grammar_sig(self):
        opening = self.tok()
        regex = self.parse_selector_group()
        colon = self.expect_punct(":", "before the grammar method parameter")
        pname = self.expect_ident("parameter name").lexeme
        ptype = None
        if self.tok().kind is K.IDENT:
            ptype = self.parse_type()
        return GrammarSig(regex, pname, ptype, line=opening.line, col=opening.col)

    def parse_selector_group(self):
        lp = self.expect_punct("(")
        node = self.parse_selector_unit_seq()
        self.expect_punct(")")
        t = self.tok()
        if t.is_op("*"):
            self.advance()
            node = GStar(node, line=lp.line, col=lp.col)
        elif t.is_op("+"):
            self.advance()
            node = GPlus(node, line=lp.line, col=lp.col)
        elif t.kind is K.OPERATOR and t.lexeme == "?":
            self.advance()
            node = GOpt(node, line=lp.line, col=lp.col)
        elif t.kind is K.INTER_ID or t.kind is K.INTER_ID_COLON:
            # '?selector' directly after ')' is the optional quantifier plus a selector
            node = GOpt(node, line=lp.line, col=lp.col)
            self.toks[self.pos] = Token(
                K.ID_COLON if t.kind is K.INTER_ID_COLON else K.IDENT,
                t.lexeme[1:], t.line, t.col + 1, None, t.end_col)
        return node

    def parse_selector_unit_seq(self):
        first = self.parse_selector_unit()
        if self.tok().is_op("|"):
            items = [first]
            while self.tok().is_op("|"):
                self.advance()
                items.append(self.parse_selector_unit())
            return GAlt(items, line=first.line, col=first.col)
        items = [first]
        while self.tok().is_punct("(") or self.tok().kind is K.ID_COLON:
            items.append(self.parse_selector_unit())
        if len(items) == 1:
            return first
        return GSeq(items, line=first.line, col=first.col)

    def parse_selector_unit(self):
        t = self.tok()
        if t.is_punct("("):
            return self.parse_selector_group()
        if t.kind is not K.ID_COLON:
            self.error("selector or group expected in grammar method signature")
        sel = self.advance()
        argspec = ("none",)
        nxt = self.tok()
        if nxt.is_punct("(") and self.tok(1).is_punct(":"):
            # named parameters: sel: (:name T, :other U); names are cosmetic,
            # the grammar method still receives one packed parameter
            self.advance()
            items = []
            while True:
                self.expect_punct(":")
                self.expect_ident("parameter name")
                items.append([self.parse_type()])
                if self.tok().is_punct(","):
                    self.advance()
                    continue
                break
            self.expect_punct(")")
            argspec = ("types", items)
        elif nxt.is_punct("("):
            probe = self.mark()
            self.advance()
            try:
                alts = self.parse_type_alternatives()
                if self.tok().is_punct(")") and (self.tok(1).is_op("*") or self.tok(1).is_op("+")):
                    self.advance()
                    q = self.advance().lexeme
                    argspec = ("star" if q == "*" else "plus", alts)
                else:
                    raise ParseError("not a starred type group")
            except ParseError:
                self.reset(probe)   # nested selector group; this selector has no arguments
        elif nxt.kind is K.IDENT:
            alts = self.parse_type_alternatives()
            if self.tok().is_punct("="):
                self.advance()
                default = self.parse_binary_expr()
                if len(alts) != 1:
                    self.error("a default value needs a single parameter type", sel)
                argspec = ("default", alts[0], default)
            else:
                items = [alts]
                while self.tok().is_punct(","):
                    self.advance()
                    items.append(self.parse_type_alternatives())
                argspec = ("types", items)
        return GSel(sel.lexeme, argspec, line=sel.line, col=sel.col)

    def parse_type_alternatives(self):
        alts = [self.parse_type()]
        # a '|' followed by a selector alternates whole units, not types
        while self.tok().is_op("|") and self.tok(1).kind is not K.ID_COLON:
            self.advance()
            alts.append(self.parse_type())
        return alts

    # interface method signatures ----------------------------------------------

    def parse_inter_meth_sig(self):
        t = self.tok()
        if t.is_punct("[") and self.tok(1).is_punct("]"):
            self.advance(); self.advance()
            sig = self.parse_inter_keyword_sig(indexing=True)
        elif t.kind is K.ID_COLON:
            sig = self.parse_inter_keyword_sig(indexing=False)
        elif t.kind is K.IDENT:
            self.advance()
            sig = UnarySig(t.lexeme, line=t.line, col=t.col)
        elif t.kind in (K.OPERATOR, K.USER_OPERATOR):
            self.advance()
            param = None
            if self.tok().is_punct("(") or self.tok().is_punct(":") or self.tok().kind is K.IDENT:
                paren = self.tok().is_punct("(")
                if paren:
                    self.advance()
                param = self.parse_inter_param()
                if paren:
                    self.expect_punct(")")
            sig = OperatorSig(t.lexeme, param, line=t.line, col=t.col)
        else:
            self.error("interface method signature expected")
        ret = None
        if self.tok().is_punct("->"):
            self.advance()
            ret = self.parse_type()
        return sig, ret

    def parse_inter_param(self, index=1):
        if self.tok().is_punct(":"):
            self.advance()
            name = self.expect_ident("parameter name").lexeme
            return Param(name, self.parse_type())
        ty = self.parse_type()
        return Param(f"p{index}", ty, line=ty.line, col=ty.col)

    def parse_inter_keyword_sig(self, indexing):
        parts = []
        while self.tok().kind is K.ID_COLON:
            sel = self.advance()
            params = []
            paren = self.tok().is_punct("(")
            if paren:
                self.advance()
            idx = 1
            while self.tok().is_punct(":") or self.tok().kind is K.IDENT:
                params.append(self.parse_inter_param(idx))
                idx += 1
                if self.tok().is_punct(","):
                    self.advance()
                    continue
                break
            if paren:
                self.expect_punct(")")
            parts.append(SelectorPart(sel.lexeme, params, line=sel.line, col=sel.col))
        return KeywordSig(parts, indexing, line=parts[0].line, col=parts[0].col)

    # -- types ------------------------------------------------------------------

    def parse_type(self):
        t = self.tok()
        if t.is_kw("type"):
            self.advance()
            self.expect_punct("(")
            inner = self.expect_ident("variable name").lexeme
            self.expect_punct(")")
            return TypeExpr(f"type({inner})", [], line=t.line, col=t.col)
        name_tok = self.expect_ident("type name")
        name = name_tok.lexeme
        while self.tok().is_punct(".") and self.tok(1).kind is K.IDENT:
            self.advance()
            name += "." + self.advance().lexeme
        return TypeExpr(name, self.parse_type_args(), line=name_tok.line, col=name_tok.col)

    def parse_type_args(self):
        """The groups of type arguments: `<T, U><V>`."""
        groups = []
        while self.tok().is_op("<"):
            self.advance()
            groups.append(self.comma_list(self.parse_type))
            if not self.tok().is_op(">"):
                self.error("expected '>' closing type arguments")
            self.advance()
        return groups

    # -- statements ---------------------------------------------------------------

    def parse_stat_block(self):
        self.expect_punct("[")
        stats = self.parse_statements_until("]")
        self.expect_punct("]")
        return stats

    def parse_statements_until(self, closer):
        return self.nested(self._statements_until, closer)

    def _statements_until(self, closer):
        stats = []
        while not self.tok().is_punct(closer) and not self.tok().is_kw("end") and not self.at_eof():
            try:
                stats.append(self.parse_statement())
            except ParseError:
                while not self.at_eof() and not self.tok().is_punct(";") \
                        and not self.tok().is_punct(closer) and not self.tok().is_kw("end"):
                    self.advance()
            if self.tok().is_punct(";"):
                self.advance()
            elif not self.tok().is_punct(closer) and not self.tok().is_kw("end") and not self.at_eof():
                self.error("expected ';' between statements")
        return stats

    def parse_statement(self):
        t = self.tok()
        if t.is_punct(";"):
            return EmptyStat(line=t.line, col=t.col)
        if t.is_kw("if"):
            return self.parse_if()
        if t.is_kw("while"):
            self.advance()
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            body = self.parse_stat_block()
            return WhileStat(cond, body, line=t.line, col=t.col)
        if t.is_kw("return") or t.is_punct("^"):
            self.advance()
            value = None
            if not (self.tok().is_punct(";") or self.tok().is_punct("]") or self.tok().is_kw("end")):
                value = self.parse_expr()
            return ReturnStat(value, t.is_punct("^"), line=t.line, col=t.col)
        if t.is_punct(":"):
            return self.parse_var_decl_stat()
        if t.kind in (K.META_AT, K.META_AT_AT):
            calls = self.parse_meta_calls()
            return MetaStat(calls[0], line=t.line, col=t.col)
        expr = self.parse_expr()
        if self.tok().is_punct(","):
            targets = [expr]
            while self.tok().is_punct(","):
                self.advance()
                targets.append(self.parse_binary_expr())
            self.expect_punct("=", "in multiple assignment")
            value = self.parse_expr()
            return AssignStat(targets, value, line=t.line, col=t.col)
        if self.tok().is_punct("="):
            self.advance()
            value = self.parse_expr()
            return AssignStat([expr], value, line=t.line, col=t.col)
        return ExprStat(expr, line=t.line, col=t.col)

    def parse_if(self):
        start = self.expect_kw("if")
        arms = []
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        arms.append((cond, self.parse_stat_block()))
        else_body = None
        while self.tok().is_kw("else"):
            self.advance()
            if self.tok().is_kw("if"):
                self.advance()
                self.expect_punct("(")
                cond = self.parse_expr()
                self.expect_punct(")")
                arms.append((cond, self.parse_stat_block()))
            else:
                else_body = self.parse_stat_block()
                break
        return IfStat(arms, else_body, line=start.line, col=start.col)

    def parse_var_decl_stat(self):
        start = self.expect_punct(":")
        decls = []
        names = self.colon_names("variable name")
        ty = None
        if self.tok().kind is K.IDENT or self.tok().is_kw("type"):
            ty = self.parse_type()
        init = None
        if self.tok().is_punct("="):
            self.advance()
            init = self.parse_expr()
        if ty is None and init is None:
            self.error("a variable declaration needs a type or an initial value", start)
        if init is not None and len(names) > 1:
            self.error("only one variable can be declared with an initializer", start)
        for nm in names:
            decls.append((nm, ty, init))
        return VarDeclStat(decls, line=start.line, col=start.col)

    # -- expressions -----------------------------------------------------------

    SELECTOR_KINDS = (K.ID_COLON, K.INTER_ID_COLON, K.INTER_DOT_ID_COLON)

    def parse_expr(self):
        """Full expression: binary/unary operand plus an optional keyword message."""
        t = self.tok()
        if t.kind in self.SELECTOR_KINDS:
            return self.parse_keyword_send(None, t)   # implicit self receiver
        left = self.parse_binary_expr()
        if self.tok().kind in self.SELECTOR_KINDS:
            return self.parse_keyword_send(left, self.tok())
        return left

    def parse_keyword_send(self, receiver, first):
        parts = []
        modes = []
        while self.tok().kind in self.SELECTOR_KINDS:
            sel = self.advance()
            if sel.kind is K.ID_COLON:
                mode, text = "", sel.lexeme
            elif sel.kind is K.INTER_ID_COLON:
                mode, text = "?", sel.lexeme[1:]
            else:
                mode, text = "?.", sel.lexeme[2:]
            args = self.comma_list(self.parse_binary_expr) if self.starts_expression() else []
            parts.append((text, args))
            modes.append(mode)
        return KeywordSend(receiver, parts, modes[0], part_modes=modes,
                           line=first.line, col=first.col)

    def starts_expression(self):
        t = self.tok()
        if t.kind in (K.INT, K.BYTE, K.SHORT, K.LONG, K.FLOAT, K.DOUBLE, K.CHAR,
                      K.STRING, K.RAW_STRING, K.SYMBOL, K.BOOLEAN, K.IDENT):
            return True
        if t.kind is K.KEYWORD and t.lexeme in ("self", "super", "nil", "noObject", "type"):
            return True
        if t.is_punct("(") or t.is_punct("[") or t.is_punct("{#") or t.is_punct("[."):
            return True
        if t.kind is K.OPERATOR and (t.lexeme in PREFIX_OPS or t.lexeme == "%"):
            return True
        if t.kind is K.USER_OPERATOR and t.lexeme.startswith("!"):
            return True
        return False

    def parse_binary_expr(self):
        return self.nested(self._binary_expr, USERDEF_LEVEL)

    def _binary_expr(self, lowest):
        """Operands joined by operators of level `lowest` or tighter.  A level
        above `top` has ended: a tighter operator refused the token, or a
        non-associative level took its one operator; seeing an operator of an
        ended level ends every enclosing expression too."""
        left = self.parse_unary_expr()
        top = TOP_LEVEL
        while True:
            op = self.tok()
            if op.kind is K.OPERATOR:
                level = OP_LEVEL.get(op.lexeme)
            elif op.kind is K.USER_OPERATOR and not op.lexeme.startswith("!"):
                level = USERDEF_LEVEL
            else:
                return left
            if level is None or not lowest <= level <= top:
                return left
            self.advance()
            if level == USERDEF_LEVEL:
                right = self.parse_binary_expr()
            else:
                right = self._binary_expr(level + 1)
            left = BinarySend(left, op.lexeme, right, line=op.line, col=op.col)
            top = level - 1 if level in NONASSOC_LEVELS else level

    def parse_unary_expr(self):
        t = self.tok()
        if t.kind is K.OPERATOR and t.lexeme in PREFIX_OPS:
            self.advance()
            operand = self.nested(self.parse_unary_expr)
            return PrefixOp(t.lexeme, operand, line=t.line, col=t.col)
        if t.kind is K.USER_OPERATOR and t.lexeme.startswith("!"):
            self.advance()
            operand = self.nested(self.parse_unary_expr)
            return PrefixOp(t.lexeme, operand, line=t.line, col=t.col)
        prim = self.parse_primary_indexed()
        return self.parse_unary_chain_on(prim)

    def parse_unary_chain_on(self, expr):
        while True:
            t = self.tok()
            if t.kind is K.IDENT:
                self.advance()
                expr = UnarySend(expr, t.lexeme, "", line=t.line, col=t.col)
            elif t.kind is K.INTER_ID:
                self.advance()
                expr = UnarySend(expr, t.lexeme[1:], "?", line=t.line, col=t.col)
            elif t.kind is K.INTER_DOT_ID:
                self.advance()
                expr = UnarySend(expr, t.lexeme[2:], "?.", line=t.line, col=t.col)
            elif t.is_punct(".{"):
                expr = MethodAccess(expr, self.parse_sig_ref(), line=t.line, col=t.col)
            elif t.is_punct("[") or t.is_punct("?["):
                expr = self.parse_indexing(expr)
            else:
                return expr

    def parse_primary_indexed(self):
        prim = self.parse_primary()
        t = self.tok()
        if t.is_punct("[") or t.is_punct("?["):
            prim = self.parse_indexing(prim)
        return prim

    def parse_indexing(self, receiver):
        t = self.advance()
        nil_safe = t.lexeme == "?["
        index = self.parse_expr()
        if nil_safe:
            self.expect_punct("]?")
        else:
            self.expect_punct("]")
        return IndexGet(receiver, index, nil_safe, line=t.line, col=t.col)

    def parse_sig_ref(self):
        start = self.expect_punct(".{")
        t = self.tok()
        kind = "unary"
        name = ""
        param_types = []
        if t.kind is K.ID_COLON:
            kind = "keyword"
            while self.tok().kind is K.ID_COLON:
                name += self.advance().lexeme
                while self.tok().kind is K.IDENT or self.tok().is_punct(":"):
                    param_types.append(self.parse_inter_param(len(param_types) + 1).type)
                    if self.tok().is_punct(","):
                        self.advance()
                        continue
                    break
        elif t.kind is K.IDENT:
            name = self.advance().lexeme
        elif t.kind in (K.OPERATOR, K.USER_OPERATOR):
            kind = "operator"
            name = self.advance().lexeme
            if self.tok().kind is K.IDENT:
                param_types.append(self.parse_type())
        else:
            self.error("method signature expected inside '.{ }.'")
        ret = None
        if self.tok().is_punct("->"):
            self.advance()
            ret = self.parse_type()
        self.expect_punct("}.")
        return SigRef(kind, name, param_types, ret, line=start.line, col=start.col)

    def parse_primary(self):
        t = self.tok()
        # literals
        lit_kinds = {K.INT: "Int", K.BYTE: "Byte", K.SHORT: "Short", K.LONG: "Long",
                     K.FLOAT: "Float", K.DOUBLE: "Double", K.CHAR: "Char",
                     K.STRING: "String", K.RAW_STRING: "RawString", K.SYMBOL: "Symbol",
                     K.BOOLEAN: "Boolean"}
        if t.kind in lit_kinds:
            self.advance()
            return Lit(lit_kinds[t.kind], t.value, line=t.line, col=t.col)
        if t.is_kw("nil"):
            self.advance()
            return Lit("Nil", None, line=t.line, col=t.col)
        if t.is_kw("noObject"):
            self.advance()
            return Lit("NoObject", None, line=t.line, col=t.col)
        if t.is_kw("self"):
            self.advance()
            field_name = None
            if self.tok().is_punct(".") and self.tok(1).kind is K.IDENT:
                self.advance()
                field_name = self.advance().lexeme
            return SelfRef(field_name, line=t.line, col=t.col)
        if t.is_kw("super"):
            self.advance()
            return SuperRef(line=t.line, col=t.col)
        if t.kind is K.OPERATOR and t.lexeme == "%" and self.tok(1).kind is K.IDENT \
                and self.adjacent(t, self.tok(1)):
            self.advance()
            name = self.advance().lexeme
            return PercentRef(name, line=t.line, col=t.col)
        if t.is_punct("{#"):
            self.advance()
            elems = [] if self.tok().is_punct("#}") else self.comma_list(self.parse_binary_expr)
            self.expect_punct("#}")
            return ArrayLit(elems, line=t.line, col=t.col)
        if t.is_punct("[."):
            return self.parse_tuple_lit()
        if t.is_punct("["):
            return self.parse_block_lit()
        if t.is_punct("("):
            if self.tok(1).is_punct(":") and self.tok(2).is_kw("self"):
                return self.parse_context_block()
            self.advance()
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        if t.kind is K.IDENT:
            return self.parse_name_or_generic()
        if t.is_kw("type"):
            self.advance()
            self.expect_punct("(")
            name = self.expect_ident("variable name").lexeme
            self.expect_punct(")")
            return NameRef(f"type({name})", line=t.line, col=t.col)
        self.error(f"expression expected, found '{t.lexeme or 'end of file'}'")

    def parse_tuple_lit(self):
        start = self.expect_punct("[.")
        items = []
        named = self.tok().kind is K.ID_COLON
        while True:
            if named:
                sel = self.advance()
                if sel.kind is not K.ID_COLON:
                    self.error("field name expected in named tuple")
                items.append((sel.lexeme[:-1], self.parse_binary_expr()))
            else:
                items.append((None, self.parse_binary_expr()))
            if self.tok().is_punct(","):
                self.advance()
                continue
            break
        self.expect_punct(".]")
        if not items:
            self.error("an empty tuple is illegal", start)
        return TupleLit(items, line=start.line, col=start.col)

    def parse_name_or_generic(self):
        t = self.advance()
        name = t.lexeme
        package = None
        # package-qualified reference: pkg.Name
        if self.tok().is_punct(".") and self.tok(1).kind is K.IDENT \
                and self.tok(1).lexeme[:1].isupper() and name[:1].islower():
            self.advance()
            package = name
            t2 = self.advance()
            name = t2.lexeme
            t = t2
        expr = NameRef(name, package, line=t.line, col=t.col)
        # adjacent '<' means generic instantiation, per the space rule
        if self.tok().is_op("<") and self.adjacent(t, self.tok()):
            probe = self.mark()
            try:
                expr = GenericRef(name, self.parse_type_args(), line=t.line, col=t.col)
            except ParseError:
                self.reset(probe)   # no closing '>': a comparison
        # adjacent '(' is the short creation form P(args)
        if self.tok().is_punct("(") and self.adjacent(self.toks[self.pos - 1], self.tok()):
            lp = self.advance()
            args = [] if self.tok().is_punct(")") else self.comma_list(self.parse_binary_expr)
            self.expect_punct(")")
            return Creation(expr, args, line=lp.line, col=lp.col)
        return expr

    def parse_block_lit(self):
        start = self.expect_punct("[")
        sections = None
        return_type = None
        if self.tok().is_op("|"):
            self.advance()
            sections, return_type = self.parse_block_signature()
        body = self.parse_statements_until("]")
        self.expect_punct("]")
        return BlockLit(sections, return_type, body, line=start.line, col=start.col)

    def parse_block_signature(self):
        sections = []
        if self.tok().kind is K.ID_COLON:
            while self.tok().kind is K.ID_COLON:
                sel = self.advance()
                if sel.lexeme != "eval:":
                    self.error("block selectors must be 'eval:'", sel)
                sections.append(self.parse_param_group())
        elif self.tok().is_punct(":"):
            params = []
            while self.tok().is_punct(":"):
                colon = self.advance()
                names = self.colon_names("parameter name")
                ty = None
                if self.tok().kind is K.IDENT:
                    ty = self.parse_type()
                for nm in names:
                    params.append(Param(nm, ty, line=colon.line, col=colon.col))
                if self.tok().is_punct(",") and self.tok(1).is_punct(":"):
                    self.advance()      # comma between parameter groups
            sections.append(params)
        return_type = None
        if self.tok().is_punct("->"):
            self.advance()
            return_type = self.parse_type()
        if not self.tok().is_op("|"):
            self.error("expected '|' closing the block parameters")
        self.advance()
        return (sections if sections else [[]]), return_type

    def parse_context_block(self):
        start = self.expect_punct("(")
        self.expect_punct(":")
        self.expect_kw("self")
        self_type = self.parse_type()
        self.expect_punct(")")
        block = self.parse_block_lit()
        block.self_type = self_type
        block.line, block.col = start.line, start.col
        return block


def parse_source(source, filename="<source>"):
    """Lex+parse; returns (CompilationUnit, Reporter)."""
    reporter = Reporter(filename)
    tokens, _ = tokenize(source, reporter)
    parser = Parser(tokens, reporter, filename)
    unit = parser.parse_unit(filename)
    return unit, reporter


def parse_expression(source, reporter=None):
    """Parse a standalone expression (used by string interpolation)."""
    rep = reporter if reporter is not None else Reporter()
    tokens, _ = tokenize(source, rep)
    parser = Parser(tokens, rep)
    try:
        expr = parser.parse_expr()
        if not parser.at_eof():
            parser.error(f"end of expression expected, found '{parser.tok().lexeme}'")
    except (ParseError, NestingTooDeep):
        expr = Lit("Nil", None)
    return expr, rep
