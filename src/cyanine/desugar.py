"""Rewriting of surface constructs into the core AST.

Pass order per prototype set:
  1. context-object parameter lowering (fields + native new:/bind: markers)
  2. public/protected variable expansion (hidden _var plus accessors)
  3. @init metaobject expansion
  4. mixin flattening (hidden chain prototypes)
  5. context-block lowering (generated ContextObject prototypes)
  6. init -> new synthesis, default init
  7. sugar rewriting inside bodies (++/--, nil-safe sends, indexing, Elvis
     stays a send, string interpolation, short creation, multiple assignment)

Unknown metaobject calls parse, warn, and are dropped.
"""

import copy

from .cyast import *
from .diagnostics import Reporter
from .grammar_methods import all_nodes

CTX_NEW = "$ctx_new"
CTX_BIND = "$ctx_bind"
CTX_NEWOBJECT = "$ctx_newobject"


class Desugarer:
    def __init__(self, units, reporter):
        self.units = units          # list of PrototypeDecl | InterfaceDecl
        self.reporter = reporter
        self.tmp_counter = 0
        self.ctx_counter = 0
        self.generated = []
        # name -> {'ctx_modes': [...], 'decl': proto}
        self.proto_info = {}
        # proto name -> {varname: qualifier} for accessor-expanded variables
        self.visible_vars = {}

    def fork(self, reporter):
        """A desugarer for further units that sees what this one has
        desugared (prototypes, accessor registries) and continues
        its temporary numbering, without writing to this one's state."""
        d = Desugarer([], reporter)
        d.proto_info = dict(self.proto_info)
        d.visible_vars = dict(self.visible_vars)
        d.tmp_counter = self.tmp_counter
        d.ctx_counter = self.ctx_counter
        return d

    def fresh(self, base="t"):
        self.tmp_counter += 1
        return f"{base}${self.tmp_counter}"

    # -- entry point ----------------------------------------------------------

    def run(self):
        protos = [u for u in self.units if isinstance(u, PrototypeDecl)]
        for p in protos:
            self.proto_info[p.name] = p
        for p in self.each(protos):
            self.lower_context_declarations(p)
        for p in self.each(protos):
            self.expand_visible_variables(p)
        for p in self.each(protos):
            self.expand_init_metaobject(p)
        self.units = self.flatten_mixins(self.units)
        protos = [u for u in self.units if isinstance(u, PrototypeDecl)]
        for p in self.each(protos):
            self.synthesize_core_methods(p)
        for p in self.each(protos):
            self.rewrite_prototype(p)
        self.drop_unknown_metas()
        return self.units + self.generated

    def each(self, units):
        """Each of `units`, with the diagnostics of its pass named after its file."""
        for u in units:
            with self.reporter.file(u.filename):
                yield u

    # -- context objects --------------------------------------------------------

    def lower_context_declarations(self, proto):
        if not proto.context_params:
            return
        params = proto.context_params
        star = [cp for cp in params if cp.mode == "*"]
        fields = []
        for cp in params:
            qual = cp.qualifier if cp.mode == "%" else "private"
            fields.append(VarDecl(qual, False, False, False, cp.name, cp.type, None,
                                  line=cp.line, col=cp.col))
        new_params = [Param(cp.name, cp.type, line=cp.line, col=cp.col) for cp in params]
        if star:
            new_params.append(Param("otherSelf$", TypeExpr("Any"), line=proto.line, col=proto.col))
        ret = TypeExpr(proto.name, [[TypeExpr(tp.name)] for tp in proto.template_params]
                       if proto.template_params else [])
        new_m = MethodDecl("public", sig=KeywordSig([SelectorPart("new:", new_params)]),
                           return_type=ret, body=[ExprStat(NameRef(CTX_NEW))],
                           synthetic=True, line=proto.line, col=proto.col)
        bind_m = MethodDecl("public", sig=KeywordSig([SelectorPart("bind:", list(new_params))]),
                            return_type=None, body=[ExprStat(NameRef(CTX_BIND))],
                            synthetic=True, line=proto.line, col=proto.col)
        proto.slots = [new_m, bind_m] + fields + proto.slots

    # -- public/protected variables ----------------------------------------------

    def expand_visible_variables(self, proto):
        registry = {}
        out = []
        for slot in proto.slots:
            if not isinstance(slot, VarDecl) or slot.is_const or slot.is_shared \
                    or slot.qualifier not in ("public", "protected"):
                out.append(slot)
                continue
            name = slot.name
            hidden = "_" + name
            if any(isinstance(s, MethodDecl) and s.name in (name, name + ":") for s in proto.slots):
                self.reporter.error(slot.line, slot.col,
                                    f"variable '{name}' collides with an accessor method name")
            registry[name] = slot.qualifier
            ty = slot.type
            getter = MethodDecl(slot.qualifier, is_final=slot.is_final,
                                sig=UnarySig(name), return_type=ty,
                                body=[ReturnStat(NameRef(hidden), False)],
                                synthetic=True, line=slot.line, col=slot.col)
            setter = MethodDecl(slot.qualifier, is_final=slot.is_final,
                                sig=KeywordSig([SelectorPart(name + ":",
                                                             [Param("newValue$", ty)])]),
                                body=[AssignStat([NameRef(hidden)], NameRef("newValue$"))],
                                synthetic=True, line=slot.line, col=slot.col)
            hidden_var = VarDecl("private", False, False, False, hidden, ty, slot.init,
                                 line=slot.line, col=slot.col)
            hidden_var.meta_calls = slot.meta_calls
            out.extend([getter, setter, hidden_var])
        proto.slots = out
        self.visible_vars[proto.name] = registry

    # -- @init ---------------------------------------------------------------------

    def expand_init_metaobject(self, proto):
        calls = list(proto.meta_calls)
        for slot in proto.slots:
            calls.extend(slot.meta_calls)
        init_calls = [c for c in calls if c.name == "init"]
        if not init_calls:
            return
        call = init_calls[0]
        ivars = [s for s in proto.slots if isinstance(s, VarDecl)
                 and not s.is_shared and not s.is_const]

        def public_name(var):
            return var.name[1:] if var.name.startswith("_") else var.name

        if call.text is None or not call.text.strip():
            chosen = ivars
        else:
            wanted = [x.strip() for x in call.text.split(",") if x.strip()]
            by_name = {public_name(v): v for v in ivars}
            chosen = []
            for w in wanted:
                if w not in by_name:
                    self.reporter.error(call.line, call.col,
                                        f"@init names unknown instance variable '{w}'")
                    return
                chosen.append(by_name[w])
        if not chosen:
            return
        parts = []
        assigns = []
        params = []
        # a variable the prototype makes visible is written through its
        # setter, any other straight into the field: a bare name could mean
        # a visible variable of an ancestor, whose setter may be this method
        visible = self.visible_vars.get(proto.name, {})
        for k, var in enumerate(chosen):
            pub = public_name(var)
            pname = f"p${k + 1}"
            params.append((pname, var.type))
            parts.append(SelectorPart(pub + ":", [Param(pname, var.type)]))
            if pub in visible:
                assigns.append(ExprStat(send1(None, pub + ":", NameRef(pname))))
            else:
                assigns.append(AssignStat([SelfRef(var.name)], NameRef(pname)))
        initializer_name = "".join(p.selector for p in parts)
        if not self._method_exists(proto, initializer_name, len(parts)):
            proto.slots.append(MethodDecl("public", sig=KeywordSig(parts), body=assigns,
                                          synthetic=True, line=call.line, col=call.col))
        if not self._method_exists(proto, "new:", 1, arity=len(chosen)):
            new_body = [
                VarDeclStat([("newObj$", None, unary(SelfRef(), "primitiveNew"))]),
                ExprStat(KeywordSend(NameRef("newObj$"),
                                     [(p.selector, [NameRef(nm)])
                                      for p, (nm, _) in zip(parts, params)])),
                ReturnStat(NameRef("newObj$"), False),
            ]
            sig = KeywordSig([SelectorPart("new:", [Param(nm, ty) for nm, ty in params])])
            proto.slots.append(MethodDecl(
                "public", sig=sig, return_type=TypeExpr(proto.name),
                body=new_body, synthetic=True, line=call.line, col=call.col))

    def _method_exists(self, proto, name, n_selectors, arity=None):
        for s in proto.slots:
            if isinstance(s, MethodDecl) and s.name == name:
                if arity is None:
                    return True
                if isinstance(s.sig, KeywordSig) and \
                        sum(len(p.params) for p in s.sig.parts) == arity:
                    return True
        return False

    # -- mixin flattening -------------------------------------------------------------

    def flatten_mixins(self, units):
        # mixins desugared before a fork stay usable after it
        decls = {name: d for name, d in self.proto_info.items()
                 if d.modifier == "mixin" and not d.template_params}
        decls.update((u.name, u) for u in units if isinstance(u, PrototypeDecl))
        out = []
        for unit in self.each(units):
            if not isinstance(unit, PrototypeDecl) or not unit.mixin_list:
                out.append(unit)
                continue
            out.extend(self._flatten_one(unit, decls))
        return out

    def _mixin_ancestry(self, mdecl, decls, chain):
        """Mixin plus its mixin ancestors, topmost first."""
        if mdecl.extends is not None:
            parent = decls.get(mdecl.extends.name)
            if parent is not None and parent.modifier == "mixin":
                self._mixin_ancestry(parent, decls, chain)
        chain.append(mdecl)
        return chain

    def _flatten_one(self, proto, decls):
        chain = []
        ok = True
        for mt in proto.mixin_list:
            mdecl = decls.get(mt.name)
            if mdecl is None or mdecl.modifier != "mixin":
                self.reporter.error(mt.line, mt.col, f"'{mt.canonical()}' is not a mixin prototype")
                ok = False
                continue
            if mt.groups:
                self.reporter.error(mt.line, mt.col,
                                    "generic mixins are not supported in a mixin clause")
                ok = False
                continue
            self._mixin_ancestry(mdecl, decls, chain)
        if not ok:
            proto.mixin_list = []
            return [proto]
        seen = {}
        for m in chain:
            has_ivars = any(isinstance(s, VarDecl) and not s.is_shared and not s.is_const
                            for s in m.slots)
            if m.name in seen and has_ivars:
                self.reporter.error(proto.line, proto.col,
                                    f"mixin '{m.name}' declares instance variables and cannot be"
                                    f" inherited twice in '{proto.name}'")
                proto.mixin_list = []
                return [proto]
            seen[m.name] = True

        base = PrototypeDecl(proto.qualifier, None, None, f"{proto.name}'1",
                             filename=proto.filename, line=proto.line, col=proto.col)
        base.extends = proto.extends
        base.implements = proto.implements
        base.slots = proto.slots
        base.hidden = True
        base.meta_calls = proto.meta_calls
        # empty stubs so self-sends to mixin methods resolve statically
        own_names = {s.name for s in proto.slots if isinstance(s, MethodDecl)}
        for m in chain:
            for s in m.slots:
                if isinstance(s, MethodDecl) and s.name not in own_names \
                        and not s.name.startswith(("init", "new")):
                    stub = MethodDecl(s.qualifier, sig=copy.deepcopy(s.sig),
                                      return_type=copy.deepcopy(s.return_type),
                                      body=[], synthetic=True, is_stub=True,
                                      line=s.line, col=s.col)
                    base.slots.append(stub)
                    own_names.add(s.name)

        # the base keeps the host's registry, which the last clone's name
        # takes over below
        self.visible_vars[base.name] = dict(self.visible_vars.get(proto.name, {}))
        result = [base]
        prev = base
        for i, m in enumerate(chain):
            last = i == len(chain) - 1
            name = proto.name if last else f"{proto.name}'{i + 2}"
            clone = PrototypeDecl(proto.qualifier, None, None, name, extends=TypeExpr(prev.name),
                                  slots=copy.deepcopy(m.slots), hidden=not last,
                                  mixin_host_base=m.mixin_base.name if m.mixin_base else None,
                                  filename=proto.filename, line=m.line, col=m.col)
            result.append(clone)
            prev = clone
            # the mixin body was already accessor-expanded; share its registry
            self.visible_vars[clone.name] = dict(self.visible_vars.get(m.name, {}))
            self.proto_info[clone.name] = clone
        self.proto_info[base.name] = base
        return result

    # -- init -> new synthesis -----------------------------------------------------------

    def synthesize_core_methods(self, proto):
        if proto.modifier == "mixin":
            return
        is_ctx = any(isinstance(s, MethodDecl) and s.body and
                     isinstance(s.body[0], ExprStat) and
                     isinstance(s.body[0].expr, NameRef) and s.body[0].expr.name == CTX_NEW
                     for s in proto.slots)
        inits = [s for s in proto.slots if isinstance(s, MethodDecl)
                 and (s.name == "init" or s.name.startswith("init:"))]
        news = [s for s in proto.slots if isinstance(s, MethodDecl)
                and (s.name == "new" or s.name.startswith("new:"))]
        user_news = [s for s in news if not s.synthetic]
        for ini in inits:
            if ini.synthetic:
                continue
            for un in user_news:
                if self._same_params(ini, un):
                    self.reporter.error(ini.line, ini.col,
                                        "illegal to declare an 'init' method with the same"
                                        " signature as a user-defined 'new' method")
        if not inits and not user_news and not is_ctx and proto.modifier != "abstract":
            default_init = MethodDecl("public", sig=UnarySig("init"), body=[],
                                      synthetic=True, line=proto.line, col=proto.col)
            proto.slots.append(default_init)
            inits = [default_init]
        if proto.modifier == "abstract":
            return
        for ini in inits:
            if any(self._same_params(ini, n) for n in news):
                continue    # a matching new already exists (re-entrant desugar)
            proto.slots.append(self._new_from_init(proto, ini))

    def _same_params(self, a, b):
        pa = self._flat_params(a)
        pb = self._flat_params(b)
        return len(pa) == len(pb) and all(
            (x.type.canonical() if x.type else None) == (y.type.canonical() if y.type else None)
            for x, y in zip(pa, pb))

    @staticmethod
    def _flat_params(m):
        sig = m.sig
        if isinstance(sig, KeywordSig):
            return [p for part in sig.parts for p in part.params]
        return []

    def _new_from_init(self, proto, ini):
        params = self._flat_params(ini)
        fresh = [Param(f"a${k}", p.type) for k, p in enumerate(params)]
        if isinstance(ini.sig, UnarySig):
            sig = UnarySig("new")
            call = UnarySend(NameRef("newObj$"), "init")
        else:
            sig = KeywordSig([SelectorPart("new:", fresh)])
            parts = []
            i = 0
            for part in ini.sig.parts:
                args = [NameRef(f"a${i + k}") for k in range(len(part.params))]
                i += len(part.params)
                parts.append((part.selector, args))
            call = KeywordSend(NameRef("newObj$"), parts)
        body = [
            VarDeclStat([("newObj$", None, unary(SelfRef(), "primitiveNew"))]),
            ExprStat(call),
            ReturnStat(NameRef("newObj$"), False),
        ]
        m = MethodDecl("public", sig=sig, return_type=TypeExpr(proto.name), body=body,
                       synthetic=True, line=ini.line, col=ini.col)
        return m

    # -- sugar rewriting ------------------------------------------------------------------

    def rewrite_prototype(self, proto):
        self.current_proto = proto
        for slot in proto.slots:
            if isinstance(slot, VarDecl) and slot.init is not None:
                slot.init = self.rx(slot.init)
            elif isinstance(slot, MethodDecl):
                if isinstance(slot.sig, GrammarSig):
                    self.rewrite_defaults(slot.sig)
                if slot.body is not None:
                    carets_return(slot.body)
                    slot.body = self.rx_stats(slot.body)
                if slot.body_expr is not None:
                    slot.body_expr = self.rx(slot.body_expr)

    def rewrite_defaults(self, sig):
        """The default values of a grammar signature, which run in the
        prototype, where the method's parameter is not visible."""
        for node in all_nodes(sig.regex):
            if isinstance(node, GSel) and node.argspec[0] == "default":
                kind, texpr, expr = node.argspec
                node.argspec = (kind, texpr, self.rx(expr))

    def rx_stats(self, stats):
        out = []
        for st in stats:
            res = self.rx_stat(st)
            out.extend(res if isinstance(res, list) else [res])
        return out

    def rx_stat(self, st):
        match st:
            case ExprStat(expr=e):
                st.expr = self.rx(e)
                return st
            case VarDeclStat(decls=ds):
                st.decls = [(name, ty, self.rx(init)) for name, ty, init in ds]
                return st
            case ReturnStat(value=v):
                if v is not None:
                    st.value = self.rx(v)
                return st
            case IfStat(arms=arms, else_body=eb):
                st.arms = [(self.rx(c), self.rx_stats(b)) for c, b in arms]
                if eb is not None:
                    st.else_body = self.rx_stats(eb)
                return st
            case WhileStat(cond=c, body=b):
                st.cond = self.rx(c)
                st.body = self.rx_stats(b)
                return st
            case AssignStat():
                return self.rx_assign(st)
            case MetaStat(call=mc):
                self.reporter.warning(st.line, st.col,
                                      f"unknown metaobject '@{mc.name}' ignored")
                return EmptyStat(line=st.line, col=st.col)
            case EmptyStat():
                return st
        return st

    def rx_assign(self, st):
        st.value = self.rx(st.value)
        targets = st.targets
        if len(targets) == 1:
            return self.single_assign(targets[0], st.value, st)
        # multiple assignment: v1, ..., vn = tuple
        tmp = self.fresh()
        out = [VarDeclStat([(tmp, None, st.value)], line=st.line, col=st.col)]
        for i in range(len(targets) - 1, -1, -1):
            field_get = unary(NameRef(tmp), f"f{i + 1}", line=st.line, col=st.col)
            out.append(self.single_assign(targets[i], field_get, st))
        return out

    def single_assign(self, target, value, st):
        target = self.rx_target(target)
        if isinstance(target, KeywordSend) and target.message_name == "at:":
            # v[e] = x   ->   v at: e put: x
            target.parts.append(("put:", [value]))
            return ExprStat(target, line=st.line, col=st.col)
        return AssignStat([target], value, line=st.line, col=st.col)

    def rx_target(self, t):
        if isinstance(t, IndexGet):
            return self.rx(t)
        if isinstance(t, MethodAccess):
            t.receiver = self.rx(t.receiver)
            return t
        return t

    def rx(self, e):
        match e:
            case None:
                return None
            case Lit(kind="String", value=v):
                return self.rewrite_interpolation(e, v)
            case Lit():
                return e
            case ArrayLit(elems=xs):
                e.elems = [self.rx(x) for x in xs]
                return e
            case TupleLit(items=items):
                e.items = [(n, self.rx(x)) for n, x in items]
                return e
            case NameRef() | SelfRef() | SuperRef() | PercentRef() | GenericRef():
                return e
            case UnarySend(receiver=r, mode=m):
                e.receiver = self.rx(r)
                if m == "?.":
                    return self.nil_safe(e)
                return e
            case KeywordSend(receiver=r, parts=parts):
                e.receiver = self.rx(r)
                e.parts = [(sel, [self.rx(a) for a in args]) for sel, args in parts]
                if e.mode == "?." and e.receiver is not None:
                    return self.nil_safe(e)
                return e
            case BinarySend(left=l, right=r):
                e.left = self.rx(l)
                e.right = self.rx(r)
                return e
            case PrefixOp(op=op, operand=x):
                if op in ("++", "--"):
                    return self.rewrite_incr(e)
                e.operand = self.rx(x)
                return e
            case IndexGet(receiver=r, index=i, nil_safe=ns):
                r = self.rx(r)
                i = self.rx(i)
                get = send1(r, "at:", i, line=e.line, col=e.col)
                if not ns:
                    return get
                tmp = self.fresh()
                guarded = IfExpr(
                    BinarySend(NameRef(tmp), "!=", Lit("Nil", None)),
                    send1(NameRef(tmp), "at:", i), Lit("Nil", None),
                    line=e.line, col=e.col)
                return LetExpr(tmp, r, guarded, line=e.line, col=e.col)
            case Creation(callee=c, args=args):
                return self.rewrite_creation(e)
            case BlockLit():
                return self.rewrite_block(e)
            case MethodAccess(receiver=r):
                e.receiver = self.rx(r)
                return e
            case AssignExpr(target=t, value=v):
                e.target = self.rx(t)
                e.value = self.rx(v)
                return e
            case IfExpr(cond=c, then=t, otherwise=o):
                e.cond = self.rx(c)
                e.then = self.rx(t)
                e.otherwise = self.rx(o)
                return e
            case LetExpr(init=i, body=b):
                e.init = self.rx(i)
                e.body = self.rx(b)
                return e
        return e

    def nil_safe(self, send):
        recv = send.receiver
        tmp = self.fresh()
        send.receiver = NameRef(tmp)
        send.mode = ""
        if isinstance(send, KeywordSend):
            send.part_modes = [""] * len(send.parts)
        guarded = IfExpr(BinarySend(NameRef(tmp), "!=", Lit("Nil", None)),
                         send, Lit("Nil", None), line=send.line, col=send.col)
        return LetExpr(tmp, recv, guarded, line=send.line, col=send.col)

    def rewrite_incr(self, e):
        op = "+" if e.op == "++" else "-"
        target = e.operand
        at = {"line": e.line, "col": e.col}     # every node built here is at `e`
        one = Lit("Int", 1, step=True, **at)
        if isinstance(target, IndexGet):
            # ++v[e]:  :t1 = e; :t2 = v[t1] + 1; v[t1] = t2; value t2
            recv = self.rx(target.receiver)
            idx = self.rx(target.index)
            t1, t2 = self.fresh(), self.fresh()
            get = send1(recv, "at:", NameRef(t1, **at), **at)
            put = KeywordSend(copy.deepcopy(recv),
                              [("at:", [NameRef(t1, **at)]), ("put:", [NameRef(t2, **at)])],
                              **at)
            return LetExpr(t1, idx,
                           LetExpr(t2, BinarySend(get, op, one, **at),
                                   LetExpr(self.fresh(), put, NameRef(t2, **at), **at), **at),
                           **at)
        return AssignExpr(target, BinarySend(copy.deepcopy(target), op, one, **at), **at)

    def rewrite_creation(self, e):
        callee = e.callee
        args = [self.rx(a) for a in e.args]
        base = callee.name
        decl = self.proto_info.get(base)
        if decl is not None and decl.context_params and \
                any(cp.mode == "*" for cp in decl.context_params):
            args = args + [SelfRef(line=e.line, col=e.col)]
        if not args:
            return unary(callee, "new", line=e.line, col=e.col)
        return kwsend(callee, [("new:", args)], line=e.line, col=e.col)

    def rewrite_block(self, block):
        block.body = self.rx_stats(block.body)
        if block.self_type is not None:
            return self.lower_context_block(block)
        return block

    def lower_context_block(self, block):
        """(:self T)[...] becomes a hidden prototype implementing ContextObject."""
        self.ctx_counter += 1
        name = f"ContextObject${self.ctx_counter}"
        t = block.self_type
        proto = PrototypeDecl("private", None, None, name, hidden=True, is_ctx_block=True,
                              ctx_self_type=t, filename=self.current_proto.filename,
                              line=block.line, col=block.col)
        proto.slots.append(VarDecl("private", False, False, False, "newSelf$", t, None,
                                   line=block.line, col=block.col))
        new_params = [Param("newSelf$", t)]
        proto.slots.append(MethodDecl(
            "public", sig=KeywordSig([SelectorPart("new:", list(new_params))]),
            return_type=TypeExpr(name), body=[ExprStat(NameRef(CTX_NEW))],
            synthetic=True, line=block.line, col=block.col))
        proto.slots.append(MethodDecl(
            "public", sig=KeywordSig([SelectorPart("bind:", list(new_params))]),
            body=[ExprStat(NameRef(CTX_BIND))], synthetic=True,
            line=block.line, col=block.col))
        proto.slots.append(MethodDecl(
            "public", sig=KeywordSig([SelectorPart("newObject:", list(new_params))]),
            body=[ExprStat(NameRef(CTX_NEWOBJECT))], synthetic=True,
            line=block.line, col=block.col))
        sections = block.param_sections
        if not sections or not any(sections):
            sig = UnarySig("eval")
        else:
            sig = KeywordSig([SelectorPart("eval:", list(sec)) for sec in sections if sec])
        carets_return(block.body)       # the block body becomes a method body
        proto.slots.append(MethodDecl("public", sig=sig, return_type=block.return_type,
                                      body=block.body, ctx_self_field="newSelf$",
                                      line=block.line, col=block.col))
        self.generated.append(proto)
        return NameRef(name, line=block.line, col=block.col)

    # -- string interpolation ------------------------------------------------------

    def rewrite_interpolation(self, lit, text):
        segments = split_interpolation(text, self.reporter, lit.line, lit.col)
        if segments is None:
            return lit
        if len(segments) == 1 and segments[0][0] == "text":
            lit.value = segments[0][1]
            return lit
        from .parser import parse_expression
        expr = None
        for kind, payload in segments:
            if kind == "text":
                piece = Lit("String", payload, line=lit.line, col=lit.col)
            else:
                sub, rep = parse_expression(payload)
                if rep.has_errors():
                    for d in rep.errors:
                        self.reporter.error(lit.line, lit.col,
                                            f"in string interpolation: {d.message}")
                    return lit
                for node in walk(sub):      # its diagnostics point at the literal
                    node.line, node.col = lit.line, lit.col
                piece = unary(self.rx(sub), "asString", line=lit.line, col=lit.col)
            expr = piece if expr is None else BinarySend(expr, "+", piece,
                                                         line=lit.line, col=lit.col)
        return expr

    # -- unknown metaobject calls -----------------------------------------------------

    def drop_unknown_metas(self):
        for unit in self.each(self.units + self.generated):
            for mc in unit.meta_calls:
                if mc.name != "init":
                    self.reporter.warning(mc.line, mc.col,
                                          f"unknown metaobject '@{mc.name}' ignored")
            unit.meta_calls = []
            slots = unit.slots if isinstance(unit, PrototypeDecl) else unit.sigs
            for s in slots:
                for mc in s.meta_calls:
                    if mc.name != "init":
                        self.reporter.warning(mc.line, mc.col,
                                              f"unknown metaobject '@{mc.name}' ignored")
                s.meta_calls = []


def carets_return(stats):
    """'^ e' in the statements of a method body, also in their `if` and
    `while` bodies, acts as `return e`; a block literal's stay its own."""
    for st in stats:
        if isinstance(st, ReturnStat):
            st.is_caret = False
        elif isinstance(st, IfStat):
            for _cond, body in st.arms:
                carets_return(body)
            if st.else_body is not None:
                carets_return(st.else_body)
        elif isinstance(st, WhileStat):
            carets_return(st.body)


def split_interpolation(text, reporter, line, col):
    """Split a decoded string literal at unescaped '#'.  Returns a list of
    ('text', str) | ('expr', str) segments, or None on error."""
    out = []
    buf = []
    i = 0
    n = len(text)
    has_interp = False
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n and text[i + 1] == "#":
            buf.append("#")
            i += 2
            continue
        if ch == "#":
            j = i + 1
            if j < n and text[j] == "{":
                depth = 1
                k = j + 1
                while k < n and depth:
                    if text[k] == "{":
                        depth += 1
                    elif text[k] == "}":
                        depth -= 1
                    k += 1
                if depth:
                    reporter.error(line, col, "unterminated '#{' in string")
                    return None
                out.append(("text", "".join(buf)))
                buf = []
                out.append(("expr", text[j + 1:k - 1]))
                has_interp = True
                i = k
                continue
            k = j
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            if k == j:
                reporter.error(line, col,
                               "'#' in a string must be followed by an identifier or '{'")
                return None
            out.append(("text", "".join(buf)))
            buf = []
            out.append(("expr", text[j:k]))
            has_interp = True
            i = k
            continue
        buf.append(ch)
        i += 1
    out.append(("text", "".join(buf)))
    if not has_interp:
        return [("text", "".join(x[1] for x in out if x[0] == "text"))]
    return [seg for seg in out if seg[0] == "expr" or seg[1] != ""]


def desugar_units(units, reporter=None):
    rep = reporter if reporter is not None else Reporter()
    d = Desugarer(units, rep)
    return d.run(), rep
