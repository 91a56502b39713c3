"""Static checks: declaration validation (overloads, overrides, interfaces,
abstract/final), body checking with static message resolution, and the
restricted-block rules (letters refer to the r-block rule list):

  (a) no restriction on UBlock types
  (b) instance variables cannot have a restricted type
  (c) methods and blocks cannot return a restricted type
  (d) a level-k restricted variable accepts only sources of level m <= k
  (e) restricted-type parameters act as level-0 variables, any-level arguments
  (f) unrestricted targets (Any included) never receive an r-block
"""

from .cyast import *
from .block_analysis import analyze_method, block_interface_type
from .grammar_methods import all_nodes
from .prototypes import split_generic
from .values import literal_value

class _Env:
    def __init__(self, parent=None, level=1):
        self.parent = parent
        self.level = level
        self.names = {}       # name -> (type, level, is_param)

    def declare(self, name, ty, is_param=False, level=None):
        self.names[name] = (ty, self.level if level is None else level, is_param)

    def lookup(self, name):
        cur = self
        while cur is not None:
            if name in cur.names:
                return cur.names[name]
            cur = cur.parent
        return None

    def child(self, bump=1):
        return _Env(self, self.level + bump)


class Checker:
    def __init__(self, table, reporter):
        self.table = table
        self.reporter = reporter
        self.block_infos = {}    # (proto, sequence) -> [BlockInfo]
        self._body_counter = 0
        self.host = self.self_chain = None     # set by `enter` for a mixin
        self.grammar_param = None     # a read-only grammar parameter in scope
        self.blocks = 0               # how many literal blocks the check is in

    def error(self, node, msg):
        self.reporter.error(node.line, node.col, msg)

    # ======================================================================
    # prototype-level checks

    def check_entry(self, entry):
        if entry.builtin or isinstance(entry.decl, InterfaceDecl):
            return
        self.enter(entry)
        if not entry.is_mixin:
            # a mixin's prototype-level rules hold for its flattened copies,
            # which sit in a real inheritance chain
            self.check_prototype(entry)
        self.infer_constant_types(entry)
        for slot in entry.decl.slots:
            if isinstance(slot, VarDecl):
                self.check_var_slot(entry, slot)
        for m in entry.methods:
            if m.decl is not None:
                self.check_body(entry, m)

    def enter(self, entry):
        """Check the slots and bodies of `entry` next.  A mixin's own bodies
        run once it is attached, with `self` its host: the type named in
        `mixin(T)`, or Any.  There a self-send finds the mixin's methods
        first, then the host's, and `super` starts at the host."""
        self.current_entry = entry
        self.host = self.self_chain = None
        if entry.is_mixin:
            table = self.table
            self.host = table.resolve_type(entry.mixin_base) if entry.mixin_base else "Any"
            self.self_chain = [e for e in table.chain(entry.name) if e.is_mixin] \
                + table.dispatch_chain(self.host)
        self.super_type = self.host or entry.supertype or "Any"

    def infer_constant_types(self, entry):
        for group in (entry.consts, entry.shared_vars, entry.ivars):
            for slot in group:
                if slot.resolved_type is None and slot.init is not None:
                    ty = self.type_of_slot_init(entry, slot)
                    slot.resolved_type = "Any" if ty == "Nil" else ty

    def type_of_slot_init(self, entry, slot):
        self.current_method = self.grammar_param = None
        self.current_self_type = self.host or entry.name
        return self.type_of(slot.init, _Env())

    def check_var_slot(self, entry, slot):
        ty = slot.resolved_type
        if ty is None:
            if slot.init is None:
                self.error(slot, f"variable '{slot.name}' needs a type or an initial value")
                slot.resolved_type = "Any"
            return
        if ty == "Void":
            self.error(slot, "'Void' is not a legal variable type")
        if not slot.is_const and not slot.is_shared and self.table.is_restricted(ty):
            self.error(slot, f"instance variables cannot have the restricted type"
                             f" '{ty}' [rule b]")
        self.check_block_shaped_type(ty, slot)
        if slot.init is not None and ty != "Void":
            ity = self.type_of_slot_init(entry, slot)
            self.check_assign_types(slot, slot.init, ity, ty, 10 ** 6)

    def check_block_shaped_type(self, ty, node):
        """Rule (c) on the spelled-out type: a block type whose return part is
        restricted cannot be declared anywhere."""
        base, groups = split_generic(ty)
        if base in ("Block", "UBlock", "AnyBlock", "AnyUBlock") and groups:
            ret = groups[-1][0]
            if self.table.is_restricted(ret):
                self.error(node, f"a block cannot have the restricted type '{ret}'"
                                 f" as its return type [rule c]")

    def check_prototype(self, entry):
        decl = entry.decl
        table = self.table
        chain = table.chain(entry.supertype) if entry.supertype else []
        if isinstance(decl, InterfaceDecl):
            return
        # overload contiguity and same-return
        seen = {}
        last = None
        for m in entry.methods:
            if m.synthetic:
                continue
            if m.name in seen and last != m.name:
                self.error(m.decl or decl,
                           f"all overloads of '{m.name}' should appear in sequence")
            seen.setdefault(m.name, m)
            last = m.name
            first = seen[m.name]
            if first is not m and first.return_type != m.return_type:
                self.error(m.decl or decl,
                           f"overloads of '{m.name}' should have the same return value type")
        # per-method declaration rules
        for m in entry.methods:
            d = m.decl or decl
            if m.is_abstract and not entry.is_abstract:
                self.error(d, f"abstract method '{m.name}' in non-abstract"
                              f" prototype '{entry.name}'")
            if m.return_type != "Void" and table.is_restricted(m.return_type) \
                    and m.ctx_marker is None and not m.synthetic:
                self.error(d, f"a method cannot return the restricted type"
                              f" '{m.return_type}' [rule c]")
            if m.return_type != "Void":
                self.check_block_shaped_type(m.return_type, d)
            if m.indexing:
                np = len(m.param_types)
                if not ((m.name == "at:" and np == 1) or (m.name == "at:put:" and np == 2)):
                    self.error(d, "only three signatures are allowed after '[]':"
                                  " 'at: T', 'at: T put: W', and 'at: T put: W -> V'")
            if m.name == "init" or m.name.startswith("init:"):
                if not m.synthetic:
                    if m.return_type != "Void":
                        self.error(d, "'init' methods cannot declare a return value type")
                    if m.qualifier != "public":
                        self.error(d, "'init' methods should be public")
                    if entry.ctx_params:
                        self.error(d, "a context object cannot define 'init' methods")
            if m.name in ("new", "clone") or m.name.startswith("new:"):
                if not m.synthetic and entry.ctx_params:
                    self.error(d, f"a context object cannot define '{m.name}' methods")
                if (m.name == "new" or m.name.startswith("new:")) and not m.synthetic \
                        and m.return_type != entry.name:
                    self.error(d, f"'new' methods must return '{entry.name}'")
            # override bookkeeping
            if m.synthetic or m.name.startswith(("init", "new")) or m.name == "initOnce":
                continue
            inherited = []
            for anc in chain:
                g = anc.groups.get(m.name)
                if g is not None:
                    inherited.extend(x for x in g.entries
                                     if x.qualifier in ("public", "protected"))
            if inherited:
                if any(x.is_final for x in inherited):
                    self.error(d, f"the final method '{m.name}' cannot be redefined")
                if not m.is_override and not m.is_abstract and not inherited[0].synthetic:
                    self.error(d, f"method '{m.name}' redefines an inherited method and"
                                  f" should be declared with the word 'override'")
                sup_ret = inherited[0].return_type
                if sup_ret != "Void" and not table.is_subtype(m.return_type, sup_ret):
                    self.error(d, f"the return type of '{m.name}' must be '{sup_ret}'"
                                  f" or a subtype of it")
            elif m.is_override:
                self.error(d, f"method '{m.name}' is declared 'override' but does not"
                              f" redefine an inherited method")
            # grammar methods are final
            for anc in chain:
                for g in anc.methods:
                    if g.kind == "grammar" and g.automaton is not None \
                            and self._shape_in_grammar(m, g):
                        self.error(d, f"'{m.name}' matches the grammar method"
                                      f" '{g.name}' of '{anc.name}'; it is not possible"
                                      f" to override grammar methods")
        # instance variable names vs method names
        method_names = {m.name for m in entry.methods}
        for var in entry.ivars + entry.shared_vars + entry.consts:
            if var.name in method_names:
                self.error(var, f"variable '{var.name}' has the same name as a method")
        # abstract completeness
        if not entry.is_abstract and entry.kind == "prototype":
            pending = {}
            for anc in reversed(chain):
                for m in anc.methods:
                    if m.is_abstract:
                        pending[(m.name, tuple(m.param_types))] = m
                    else:
                        pending.pop((m.name, tuple(m.param_types)), None)
            for m in entry.methods:
                pending.pop((m.name, tuple(m.param_types)), None)
            for (name, _), m in pending.items():
                self.error(decl, f"'{entry.name}' must define the inherited abstract"
                                 f" method '{name}' or be declared abstract")
        # interface completeness
        if not entry.is_abstract and entry.kind == "prototype" and not entry.is_mixin:
            for iname in self._interface_closure(entry):
                ie = table.get(iname)
                if ie is None or ie.kind == "blockInterface":
                    continue
                for req in ie.methods:
                    if not self._implements(entry, req):
                        self.error(decl, f"'{entry.name}' should implement method"
                                         f" '{req.name}' of interface '{iname}'")
        # mixin host compatibility
        host_base = decl.mixin_host_base
        if host_base and entry.supertype:
            if not table.is_subtype(entry.supertype, host_base) and \
                    not table.is_subtype(entry.name, host_base):
                self.error(decl, f"mixin requires a host compatible with '{host_base}'")

    def _interface_closure(self, entry):
        out = []
        work = list(entry.interfaces)
        cur = entry.supertype
        while cur:
            e = self.table.get(cur)
            if e is None:
                break
            work.extend(e.interfaces)
            cur = e.supertype
        seen = set()
        while work:
            i = work.pop()
            if i in seen or i in ("AnyInterface", "ContextObject"):
                continue
            seen.add(i)
            out.append(i)
            ie = self.table.get(i)
            if ie is not None:
                work.extend(ie.interfaces)
        return out

    def _implements(self, entry, req):
        for anc in self.table.chain(entry.name):
            g = anc.groups.get(req.name)
            if g is None:
                continue
            for m in g.entries:
                if len(m.param_types) == len(req.param_types) and all(
                        a == b for a, b in zip(m.param_types, req.param_types)) \
                        and self.table.is_subtype(m.return_type, req.return_type):
                    return True
        return False

    def _shape_in_grammar(self, m, g):
        if m.kind != "keyword":
            return False
        shape = m.sel_arity

        def match(label, sym):
            sel, count = sym
            if label.selector != sel:
                return False
            spec = label.argspec
            if spec[0] == "none":
                return count == 0
            if spec[0] == "types":
                return count == len(spec[1])
            if spec[0] == "star":
                return True
            if spec[0] == "plus":
                return count >= 1
            if spec[0] == "default":
                return count == 1
            return False

        return g.automaton.accepts_symbols(shape, match)

    # ======================================================================
    # body checking

    def check_body(self, entry, m):
        decl = m.decl
        self.current_method = m
        infos = analyze_method(decl, self.reporter)
        self._body_counter += 1
        self.block_infos[(entry.name, self._body_counter)] = infos
        env = _Env(level=1)
        params = _Env(level=-1)
        for name, ty in zip(m.param_names, m.param_types):
            params.declare(name, ty, is_param=True, level=-1)
        env.parent = params
        if m.kind == "grammar":
            params.declare(m.param_names[0], m.derived, is_param=True, level=-1)
            self.grammar_param = m.param_names[0] if \
                self.table.is_restricted(m.derived) or "Block" in m.derived else None
        else:
            self.grammar_param = None
        if m.ctx_marker is not None or m.is_stub:
            return
        if m.ctx_self_field is not None:
            # context-block body: self is the bound object
            self.current_self_type = entry.ctx_self_type_name
        else:
            self.current_self_type = self.host or entry.name
        if m.kind == "grammar":
            self.check_defaults(m)
        if decl.body is not None:
            self.check_stats(decl.body, env)
            if m.return_type != "Void" and not m.is_abstract and not m.synthetic \
                    and not self._always_returns(decl.body):
                self.error(decl, f"method '{m.name}' must return a value of type"
                                 f" '{m.return_type}'")
        elif decl.body_expr is not None:
            ty = self.type_of(decl.body_expr, env)
            want = self.table.block_type(None, m.return_type, restricted=False,
                                         groups=[[t] for t in m.param_types]
                                         if m.param_types else [])
            if not self.table.is_subtype(ty, want):
                self.error(decl, f"the expression assigned to '{m.name}' has type"
                                 f" '{ty}' which does not implement '{want}'")

    def check_defaults(self, m):
        """Type the default values in a grammar method's signature: the
        interpreter evaluates one when a send leaves its part out."""
        for node in all_nodes(m.regex):
            if isinstance(node, GSel) and node.argspec[0] == "default":
                _kind, texpr, expr = node.argspec
                self.check_assign_types(node, expr, self.type_of(expr, _Env()),
                                        texpr.canonical(), 10 ** 6)

    def _always_returns(self, stats):
        for st in stats:
            if isinstance(st, ReturnStat):
                return True
            if isinstance(st, IfStat) and st.else_body is not None:
                if all(self._always_returns(b) for _c, b in st.arms) and \
                        self._always_returns(st.else_body):
                    return True
        return False

    # -- statements -------------------------------------------------------------

    def check_stats(self, stats, env, rets=None):
        """Check `stats`; in a block, `rets` collects (type, node) of each
        value the block returns with `^`, and is None in a method."""
        for st in stats:
            self.check_stat(st, env, rets)

    def check_stat(self, st, env, rets):
        match st:
            case ExprStat(expr=e):
                self.type_of(e, env)
            case VarDeclStat(decls=ds):
                st.resolved_types = []
                for name, texpr, init in ds:
                    declared = self.resolve_var_type(texpr, env) if texpr is not None else None
                    self.guard_grammar_param(init, st)
                    ity = self.type_of(init, env) if init is not None else None
                    if declared is None:
                        declared = "Any" if ity in (None, "Nil") else ity
                        if ity == "Void":
                            self.error(st, f"expression assigned to '{name}' has no value")
                            declared = "Any"
                    elif declared == "Void":
                        self.error(st, "'Void' is not a legal variable type")
                        declared = "Any"
                    elif ity is not None:
                        self.check_assign_types(st, init, ity, declared, env.level)
                    self.check_block_shaped_type(declared, st)
                    if env.lookup(name) is not None:
                        self.error(st, f"redeclaration of variable '{name}'")
                    env.declare(name, declared)
                    st.resolved_types.append(declared)
            case AssignStat(targets=ts, value=v):
                self.check_assign_target(st, ts[0], self.type_of(v, env), env)
            case ReturnStat(value=v, is_caret=True):
                rets.append((self.type_of(v, env) if v is not None else "Void", st))
            case ReturnStat(value=v):
                ret = self.current_method.return_type if self.current_method else "Void"
                self.guard_grammar_param(v, st)
                vty = self.type_of(v, env) if v is not None else "Void"
                if ret == "Void":
                    if v is not None:
                        self.error(st, "a 'return' with a value is not allowed in a"
                                       " method returning Void")
                elif v is None:
                    self.error(st, f"'return' needs a value of type '{ret}'")
                elif not self.table.is_subtype(vty, ret):
                    self.error(st, f"cannot return '{vty}' from a method declared"
                                   f" to return '{ret}'")
            case IfStat(arms=arms, else_body=eb):
                _note_scopes(st)
                for cond, body in arms:
                    cty = self.type_of(cond, env)
                    if cty not in ("Boolean", "Any", "Nil"):
                        self.error(st, f"the 'if' condition must be a Boolean, not '{cty}'")
                    self.check_stats(body, env.child(), rets)
                if eb is not None:
                    self.check_stats(eb, env.child(), rets)
            case WhileStat(cond=c, body=b):
                _note_scopes(st)
                cty = self.type_of(c, env)
                if cty not in ("Boolean", "Any", "Nil"):
                    self.error(st, f"the 'while' condition must be a Boolean, not '{cty}'")
                self.check_stats(b, env.child(), rets)
            case EmptyStat():
                pass

    def check_assign_target(self, st, target, vty, env):
        """Check the write of a value of type `vty` to `target`, deciding what
        a bare name there denotes: a local, a public or protected variable of
        self, whose write is a send of its setter, a field or a static.
        Answers the type of what the assignment answers."""
        if isinstance(target, (NameRef, PercentRef)):
            name = target.name
            hit = env.lookup(name)
            if hit is None and type(target) is NameRef and self._visible_var(name):
                target.binding = SEND
                # resolved as the send `name: value` written where `st` is
                setter = send1(None, name + ":", st.value, line=st.line, col=st.col)
                return self.resolve_send(self.current_self_type, [(name + ":", [vty])],
                                         setter)[0]
            self.guard_grammar_param(st.value, st)
            if hit is not None:
                ty, level, is_param = hit
                if is_param:
                    self.error(st, f"parameters are read-only: cannot assign to '{name}'")
                else:
                    if type(target) is NameRef:
                        target.binding = LOCAL
                    self.check_assign_types(st, None, vty, ty, level, source_expr=st.value)
            else:
                owner, var = self._find_field(name)
                if var is None:
                    self.error(st, f"unknown variable '{name}' in assignment")
                elif var.is_const:
                    self.error(st, f"cannot assign to the constant '{name}'")
                elif type(target) is PercentRef:
                    self.no_percent_local(target)
                else:
                    target.binding = _var_binding(owner, var)
                    self.check_assign_types(st, None, vty, var.resolved_type or "Any", 10 ** 6,
                                            source_expr=st.value)
        elif isinstance(target, SelfRef) and target.field_name is not None:
            _owner, var = self._find_field(target.field_name)
            if var is None:
                self.error(st, f"'{self.current_entry.name}' has no instance variable"
                               f" '{target.field_name}'")
            else:
                self.check_assign_types(st, None, vty, var.resolved_type or "Any", 10 ** 6,
                                        source_expr=st.value)
        elif isinstance(target, MethodAccess):
            # the value runs as the method: it takes the method's arguments
            # and answers its return type ("Any": no such method, reported)
            mty = self.check_method_access(target, env)[0]
            if mty != "Any":
                self.check_assign_types(st, None, vty, mty, 10 ** 6, source_expr=st.value)
        else:
            self.error(st, "illegal assignment target")
        return vty

    def _visible_var(self, name):
        """Whether `name` is a public or protected variable of self: of the
        checked prototype, or in a context block's body, of its self type."""
        entry = self.current_entry
        return any(name in e.visible_vars
                   for e in self.table.chain(entry.ctx_self_type_name or entry.name))

    def no_percent_local(self, e):
        """Report the %-variable `e`, which names no visible local, in the
        words of block analysis (which checks method bodies, not initial
        values and grammar defaults)."""
        self.error(e, f"'%{e.name}' does not name a visible local variable" if self.blocks
                   else "'%' can only be used inside a block")

    def check_assign_types(self, node, _init, src_type, dst_type, dst_level, source_expr=None):
        table = self.table
        if not table.is_subtype(src_type, dst_type):
            if table.is_restricted(src_type) and not table.is_restricted(dst_type):
                self.error(node, f"an r-block of type '{src_type}' cannot flow into the"
                                 f" unrestricted type '{dst_type}' [rule f]")
            else:
                self.error(node, f"'{src_type}' is not a subtype of '{dst_type}'")
            return
        if table.is_restricted(dst_type):
            src = source_expr if source_expr is not None else _init
            m = self._source_level(src)
            if m is not None and m > dst_level:
                self.error(node, f"a restricted value of level {m} cannot be assigned to"
                                 f" a variable of level {dst_level} [rule d]")

    def _source_level(self, expr):
        """Lifetime level of a restricted source; None when unknown/always fine."""
        if expr is None:
            return None
        if isinstance(expr, BlockLit) and expr.info is not None:
            return expr.info.bl
        if isinstance(expr, NameRef):
            hit = self.env_hint.lookup(expr.name) if self.env_hint else None
            if hit is not None:
                ty, level, is_param = hit
                return 0 if is_param else level
        if isinstance(expr, KeywordSend) and expr.parts and expr.parts[0][0] == "new:":
            recv = expr.receiver
            base = recv.name if isinstance(recv, (NameRef, GenericRef)) else None
            entry = self.table.get(self._entry_name_for(recv)) if base else None
            if entry is not None and entry.ctx_params:
                level = -1
                for cp, arg in zip(entry.ctx_params, expr.parts[0][1]):
                    if cp.mode == "&" and isinstance(arg, NameRef) and self.env_hint:
                        hit = self.env_hint.lookup(arg.name)
                        if hit is not None:
                            level = max(level, hit[1])
                return level
        return None

    def _entry_name_for(self, recv):
        if isinstance(recv, GenericRef):
            return self.table.resolve_type(recv.type_expr())
        if isinstance(recv, NameRef):
            return recv.name
        return None

    def _find_field(self, name):
        """(declaring entry, variable) of the instance, shared or constant
        variable `name` visible here, or (None, None): an ancestor's private
        instance variable is hidden."""
        entry = self.current_entry
        for anc in self.table.chain(entry.name):
            for var in anc.ivars + anc.shared_vars + anc.consts:
                if var.name == name:
                    if anc is not entry and var.qualifier == "private" and not var.is_shared \
                            and not var.is_const:
                        return None, None
                    return anc, var
        return None, None

    def resolve_var_type(self, texpr, env):
        if texpr is None:
            return None
        if texpr.name.startswith("type(") and texpr.name.endswith(")"):
            inner = texpr.name[5:-1]
            hit = env.lookup(inner)
            if hit is None:
                self.error(texpr, f"'type({inner})' does not name a visible local variable")
                return "Any"
            return hit[0]
        return self.table.resolve_type(texpr)

    # -- expressions -----------------------------------------------------------------

    LIT_TYPES = {"Int": "Int", "Byte": "Byte", "Short": "Short", "Long": "Long",
                 "Float": "Float", "Double": "Double", "Char": "Char",
                 "Boolean": "Boolean", "String": "String", "RawString": "String",
                 "Symbol": "CySymbol", "Nil": "Nil", "NoObject": "Void"}

    def type_of(self, e, env):
        self.env_hint = env
        match e:
            case None:
                return "Void"
            case Lit(kind=k):
                e.runtime_value = literal_value(k, e.value)
                return self.LIT_TYPES[k]
            case ArrayLit(elems=xs):
                if not xs:
                    e.resolved_type = self.table.instantiate_generic("Array", [["Any"]], e.pos())
                    return e.resolved_type
                types = [self.type_of(x, env) for x in xs]
                elem = types[0] if types[0] != "Nil" else "Any"
                for k, t in enumerate(types[1:], 1):
                    if not self.table.is_subtype(t, elem):
                        self.error(xs[k], f"array element {k + 1} has type '{t}', not a"
                                          f" subtype of the first element's type '{elem}'")
                e.resolved_type = self.table.instantiate_generic("Array", [[elem]], e.pos())
                return e.resolved_type
            case TupleLit(items=items):
                types = [self.type_of(x, env) for _n, x in items]
                types = [("Any" if t == "Nil" else t) for t in types]
                if items[0][0] is None:
                    e.resolved_type = self.table.instantiate_generic("UTuple", [types], e.pos())
                    return e.resolved_type
                args = []
                for (n, _x), t in zip(items, types):
                    args.extend([n, t])
                e.resolved_type = self.table.instantiate_generic("Tuple", [args], e.pos())
                return e.resolved_type
            case NameRef():
                return self.type_of_name(e, env)
            case GenericRef():
                e.resolved = self.table.resolve_type(e.type_expr())
                return e.resolved
            case SelfRef(field_name=f):
                if f is None:
                    return self.current_self_type
                _owner, var = self._find_field(f)
                if var is None:
                    self.error(e, f"'{self.current_entry.name}' has no instance"
                                  f" variable '{f}'")
                    return "Any"
                return var.resolved_type or "Any"
            case SuperRef():
                self.error(e, "'super' can only be used as a message receiver")
                return "Any"
            case PercentRef(name=n):
                hit = env.lookup(n)
                if hit is None:
                    self.no_percent_local(e)
                    return "Any"
                return hit[0]
            case UnarySend():
                return self.check_unary_send(e, env)
            case KeywordSend():
                return self.check_keyword_send(e, env)
            case BinarySend():
                return self.check_binary_send(e, env)
            case PrefixOp(op=op, operand=x):
                rty = self.type_of(x, env)
                if rty == "Any":
                    return "Any"
                return self.resolve_send(rty, [(op, [])], e)[0]
            case BlockLit():
                return self.check_block_lit(e, env)
            case MethodAccess():
                return self.check_method_access(e, env)[0]
            case AssignExpr(target=t, value=v):
                fake = AssignStat([t], v, line=e.line, col=e.col)
                return self.check_assign_target(fake, t, self.type_of(v, env), env)
            case IfExpr(cond=c, then=t, otherwise=o):
                self.type_of(c, env)
                tty = self.type_of(t, env)
                self.type_of(o, env)
                return tty
            case LetExpr(name=n, init=i, body=b):
                ity = self.type_of(i, env)
                inner = env.child(0)
                inner.declare(n, "Any" if ity == "Nil" else ity)
                return self.type_of(b, inner)
            case Creation():
                self.error(e, "internal: creation expression survived desugaring")
                return "Any"
            case IndexGet():
                self.error(e, "internal: indexing expression survived desugaring")
                return "Any"
        self.error(e, f"cannot type expression {type(e).__name__}")
        return "Any"

    def type_of_name(self, e, env):
        """The type of a bare name, which the checker alone resolves: the
        interpreter reads what it denotes from `e.binding`."""
        name = e.name
        if e.package is not None and self.table.get(name) is not None:
            e.binding = PROTO    # package-qualified prototype reference
            return name
        hit = env.lookup(name)
        if hit is not None:
            e.binding = LOCAL
            return hit[0]
        owner, var = self._find_field(name)
        if var is not None:
            e.binding = _var_binding(owner, var)
            return var.resolved_type or "Any"
        if self.table.get(name) is not None:
            e.binding = PROTO
            return name
        # implicit unary self-send
        ret, m = self.resolve_send(self.current_self_type, [(name, [])], e, quiet=True)
        if m is not None:
            e.binding = SEND
            return ret
        self.error(e, f"unknown identifier '{name}'")
        return "Any"

    def guard_grammar_param(self, expr, node):
        """A grammar parameter with a Block anywhere in its derived type is
        read-only: no field of it may be stored or returned."""
        if self.grammar_param is None or expr is None:
            return
        if self.root_name(expr) == self.grammar_param:
            self.error(node, f"the grammar parameter '{self.grammar_param}' mentions a"
                             f" restricted Block type and is read-only: its fields"
                             f" cannot be stored or returned")

    def root_name(self, expr):
        while True:
            if isinstance(expr, (UnarySend, KeywordSend, MethodAccess)):
                expr = expr.receiver
            elif isinstance(expr, BinarySend):
                expr = expr.left
            elif isinstance(expr, NameRef):
                return expr.name
            else:
                return None

    def check_unary_send(self, e, env):
        if isinstance(e.receiver, SuperRef):
            return self.resolve_send(self.super_type, [(e.selector, [])], e)[0]
        rty = self.type_of(e.receiver, env)
        if e.mode == "?":
            return "Any"
        if self._abstract_proto_receiver(e.receiver):
            self.error(e, f"cannot send a message to the abstract prototype"
                          f" '{e.receiver.name}'")
        ret, m = self.resolve_send(rty, [(e.selector, [])], e)
        if m is not None and m.builtin in ("clone", "prototype") and m.owner == "Any":
            return rty
        if m is not None and m.builtin == "primitive_new":
            if not isinstance(e.receiver, SelfRef):
                self.error(e, "'primitiveNew' is private: send it to 'self'")
            return self.current_entry.name
        return ret

    def _abstract_proto_receiver(self, recv):
        if isinstance(recv, NameRef):
            entry = self.table.get(recv.name)
            return entry is not None and entry.is_abstract and entry.kind == "prototype" \
                and self.env_hint.lookup(recv.name) is None
        return False

    def check_binary_send(self, e, env):
        lty = self.type_of(e.left, env)
        rty = self.type_of(e.right, env)
        if e.op == "..":
            if lty in ("Byte", "Short", "Int", "Long", "Char", "Boolean") and rty == lty:
                return self.table.instantiate_generic("Interval", [[lty]], e.pos())
            self.error(e, f"'..' needs two equal discrete basic types, found"
                          f" '{lty}' and '{rty}'")
            return "Any"
        if lty == "Any":
            return "Any"
        return self.resolve_send(lty, [(e.op, [rty])], e)[0]

    def check_keyword_send(self, e, env):
        modes = e.part_modes or [e.mode] * len(e.parts)
        if len(set(modes)) > 1:
            self.error(e, "selectors of one message send must be all checked or all"
                          " '?'-prefixed")
        arg_types = []
        for _sel, args in e.parts:
            arg_types.append([self.type_of(a, env) for a in args])
        name = e.message_name
        if e.receiver is None:
            rty = self.current_self_type
            recv_expr = SelfRef(line=e.line, col=e.col)
        elif isinstance(e.receiver, SuperRef):
            rty = self.super_type
            recv_expr = e.receiver
        else:
            rty = self.type_of(e.receiver, env)
            recv_expr = e.receiver
            if e.mode != "?" and self._abstract_proto_receiver(e.receiver):
                self.error(e, f"cannot send a message to the abstract prototype"
                              f" '{e.receiver.name}'")
        if e.mode == "?":
            return "Any"
        shape = [(sel, ats) for (sel, _a), ats in zip(e.parts, arg_types)]
        # init-call restriction
        if name == "init" or name.startswith("init:"):
            cur = self.current_method
            caller_is_init = cur is not None and (cur.synthetic or cur.name == "init"
                                                  or cur.name.startswith("init:"))
            if not caller_is_init or not isinstance(e.receiver, (SuperRef, type(None))):
                if not (cur is not None and cur.synthetic):
                    self.error(e, "'init' methods can only be called from 'init' methods"
                                  " of the same prototype or a direct sub-prototype")
        if (name == "new" or name.startswith("new:")) and not (
                self.current_method is not None and self.current_method.synthetic):
            if not (isinstance(recv_expr, (NameRef, GenericRef))
                    and self.table.get(self._entry_name_for(recv_expr)) is not None
                    and self.env_hint.lookup(recv_expr.name) is None):
                self.error(e, "'new' methods are only accessible through prototypes")
        if rty == "Any":
            return "Any"
        ret, m = self.resolve_send(rty, shape, e)
        if m is None:
            return ret
        # metaobject-backed special checks
        if m.builtin == "if_nil":
            aty = arg_types[0][0]
            if not self.table.is_subtype(aty, rty):
                self.error(e, f"the argument of 'ifNil:' must have the receiver type"
                              f" '{rty}', found '{aty}'")
            return rty
        if m.builtin == "cast":
            if not isinstance(recv_expr, (NameRef, GenericRef)) or \
                    self.env_hint.lookup(recv_expr.name) is not None:
                self.error(e, "'cast:' can only be sent to a prototype")
                return "Any"
            return rty
        if m.builtin == "is_a":
            arg = e.parts[0][1][0]
            if not (isinstance(arg, (NameRef, GenericRef))
                    and self.table.get(self._entry_name_for(arg)) is not None
                    and self.env_hint.lookup(arg.name) is None):
                self.error(e, "the argument of 'isA:' must be a prototype or interface")
            return "Boolean"
        if m.builtin == "throw":
            aty = arg_types[0][0]
            entry = self.table.get(aty)
            if entry is not None and entry.restricted:
                self.error(e, "a restricted context object cannot be thrown")
        if m.builtin in ("t_f", "f_t"):
            a1, a2 = arg_types[0][0], arg_types[1][0]
            if a1 != a2 and "Nil" not in (a1, a2):
                self.error(e, f"the arguments of 'T:F:' must have the same type,"
                              f" found '{a1}' and '{a2}'")
            return a1 if a1 != "Nil" else a2
        if m.builtin == "switch":
            for (sel, args), ats in zip(e.parts, arg_types):
                if sel == "case:":
                    for aty, aexpr in zip(ats, args):
                        if aty != rty and not self.table.is_subtype(aty, rty):
                            self.error(aexpr, f"'case:' expressions must have the"
                                              f" receiver type '{rty}', found '{aty}'")
        if m.builtin == "catch_family":
            self._check_catch_args(e, arg_types)
        if m.builtin == "attach_mixin":
            arg = e.parts[0][1][0]
            aentry = self.table.get(self._entry_name_for(arg) or "")
            if aentry is None or not aentry.is_mixin:
                self.error(e, "the argument of 'attachMixin:' must be a mixin prototype")
            elif aentry.mixin_base is not None:
                base = self.table.resolve_type(aentry.mixin_base)
                if not self.table.is_subtype(rty, base):
                    self.error(e, f"mixin '{aentry.name}' can only be attached to"
                                  f" '{base}' objects")
        if m.builtin in ("clone", "prototype") and m.owner == "Any":
            return rty
        return ret

    def _check_catch_args(self, e, arg_types):
        for (sel, args), ats in zip(e.parts, arg_types):
            if sel != "catch:":
                continue
            for aty, aexpr in zip(ats, args):
                if not self._is_catch_object(aty):
                    self.error(aexpr, f"a 'catch:' argument must have an 'eval:' method"
                                      f" taking a CyException; '{aty}' has none")

    def _is_catch_object(self, ty):
        for anc in self.table.chain(ty):
            g = anc.groups.get("eval:")
            if g is None:
                continue
            for m in g.entries:
                if len(m.param_types) == 1 and \
                        self.table.is_subtype(m.param_types[0], "CyException"):
                    return True
        e = self.table.get(ty)
        if e is not None:
            for i in e.interfaces:
                if self._is_catch_object(i):
                    return True
        return False

    def check_block_lit(self, e, env):
        info = e.info
        sections = []
        for sec in e.param_sections:
            group = []
            for p in sec:
                if p.type is None:
                    self.error(p, f"block parameter '{p.name}' needs a type")
                    group.append("Any")
                else:
                    group.append(self.table.resolve_type(p.type))
            sections.append(group)
        inner = env.child()
        pscope = _Env(env, -1)
        for sec, tysec in zip(e.param_sections, sections):
            for p, t in zip(sec, tysec):
                pscope.declare(p.name, t, is_param=True, level=-1)
        for name in (info.percent_vars if info else {}):
            hit = env.lookup(name)
            pscope.declare(name, hit[0] if hit else "Any", is_param=False,
                           level=inner.level)
        inner.parent = pscope
        rets = []
        self.blocks += 1
        self.check_stats(e.body, inner, rets)
        self.blocks -= 1
        declared = self.table.resolve_type(e.return_type) if e.return_type is not None else None
        if declared is not None:
            for ty, node in rets:
                if not self.table.is_subtype(ty, declared):
                    self.error(node, f"the block returns '{ty}' but declares '{declared}'")
            ret = declared
        elif rets:
            ret = rets[0][0]
            if ret == "Nil":
                ret = "Any"
            for ty, node in rets[1:]:
                if not self.table.is_subtype(ty, ret):
                    self.error(node, "all values returned by a block should have the"
                                     " same type")
            if self.table.is_restricted(ret):
                self.error(e, f"a block cannot return the restricted type '{ret}'"
                              f" [rule c]")
        else:
            ret = "Void"
        restricted = info.restricted if info is not None else False
        param_groups = [g for g in sections if g] if any(sections) else []
        iface = block_interface_type(self.table, param_groups, ret, restricted)
        if info is not None:
            info.interface_type = iface
        e.runtime_type = self.table.literal_block_proto(param_groups, ret, restricted)
        return e.runtime_type

    def check_method_access(self, e, env):
        """The block type of the method object `e` denotes, and its method: the
        one with the signature `e.sig`.  The resolved types go on
        `e.sig.resolved`, for the run to search again from the receiver's
        run-time type."""
        sig = e.sig
        rty = self.type_of(e.receiver, env)
        ret = self.table.resolve_type(sig.return_type) if sig.return_type else None
        ptypes = [self.table.resolve_type(t) for t in sig.param_types]
        sig.resolved = (ptypes, ret)
        found = self.table.find_signature(rty, sig.name, ptypes, ret)
        if found is None:
            self.error(e, f"'{rty}' has no method with signature '{sig.name}'")
            return "Any", None
        groups = []
        if found.kind == "keyword":
            i = 0
            for _sel, n in found.sel_arity:
                groups.append(found.param_types[i:i + n])
                i += n
        elif found.param_types:
            groups = [list(found.param_types)]
        e.resolved_type = self.table.block_type(None, found.return_type, restricted=False,
                                                groups=groups)
        return e.resolved_type, found

    # -- resolution ------------------------------------------------------------------

    def resolve_send(self, recv_type, shape, node, quiet=False):
        """Static method resolution starting at the declared receiver type.
        shape: [(selector, [argument type, ...]), ...].  A send node that
        resolves to a builtin notes it with the types it was resolved for."""
        chain = self.self_chain if self.self_chain is not None and _sent_to_self(node) \
            else self.table.dispatch_chain(recv_type)
        hit = self.table.find_method(chain, shape, lambda t: t, self._param_test)
        if hit is not None:
            m = hit[0]
            if m.builtin is not None and type(node) is not NameRef:
                types = shape[0][1] if len(shape) == 1 else [t for _s, ts in shape for t in ts]
                node.builtin = (m, recv_type, tuple(types))
            return m.return_type, m
        if not quiet:
            rule_f = self._rule_f(chain, shape)
            if rule_f is not None:
                self.error(node, f"an r-block of type '{rule_f[0]}' cannot be the"
                                 f" argument of a parameter of type '{rule_f[1]}' [rule f]")
            else:
                pretty = " ".join(f"{sel}{'' if not args else ' _' * len(args)}"
                                  for sel, args in shape)
                self.error(node, f"'{recv_type}' has no method matching '{pretty.strip()}'")
        return "Any", None

    def _param_test(self, m, owner_entry):
        """The static parameter test of `m`, or None if it is not visible here.
        An argument of type Any passes, and the catch family takes restricted
        blocks for its Any parameters."""
        if not self._private_ok(m, owner_entry):
            return None
        return self._fits_lenient if m.lenient_restricted else self._fits

    def _fits(self, s, t):
        return s == "Any" or self.table.is_subtype(s, t)

    def _fits_lenient(self, s, t):
        return t == "Any" or self.table.is_subtype(s, t)

    def _rule_f(self, chain, shape):
        """(argument type, parameter type) of the last method of the message
        that fits it but for r-block arguments of unrestricted parameters
        [rule f], or None."""
        table = self.table
        name = "".join(sel for sel, _ in shape)
        types = [t for _s, ts in shape for t in ts]
        found = None
        for anc in chain:
            g = anc.groups.get(name)
            for m in g.entries if g is not None else ():
                if not m.arity_matches(shape):
                    continue
                bad = [(a, p) for a, p in zip(types, m.param_types) if not self._fits(a, p)]
                if bad and all(table.is_restricted(a) and not table.is_restricted(p)
                               for a, p in bad):
                    found = bad[0]
        return found

    def _private_ok(self, m, owner_entry):
        if m.qualifier == "private":
            return owner_entry.name == self.current_entry.name or m.builtin is not None
        if m.qualifier == "protected":
            return self.table.is_subtype(self.current_entry.name, owner_entry.name) \
                or owner_entry in (self.self_chain or ())
        return True


def _note_scopes(st):
    """Which bodies of an `if` or `while` need a scope of their own: only a
    variable declaration adds to a scope."""
    def declares(body):
        return body is not None and any(isinstance(s, VarDeclStat) for s in body)
    if isinstance(st, IfStat):
        st.scoped = [declares(body) for _c, body in st.arms] + [declares(st.else_body)]
    else:
        st.scoped = declares(st.body)


def _var_binding(owner, var):
    return ("static", owner.name) if var.is_shared or var.is_const else FIELD


def _sent_to_self(node):
    """Whether the send `node` goes to self: an implicit unary self-send, a
    keyword send without a receiver, or a send to `self`."""
    match node:
        case NameRef() | KeywordSend(receiver=None):
            return True
        case UnarySend(receiver=r) | KeywordSend(receiver=r) | BinarySend(left=r) \
                | PrefixOp(operand=r):
            return isinstance(r, SelfRef) and r.field_name is None
    return False

