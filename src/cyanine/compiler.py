"""The compile step: after the checker, every body the interpreter runs
becomes a tree of Python closures, once, left in the `code` note of the node
that owns the body.  A method's runner takes (interp, m, recv, args, shape,
mixin=None), a block's (interp, block value, args); every other closure takes
(interp, env, frame) and holds no run-time state, so the world's code serves
every program and interpreter.  A statement's closure answers True when a
return ended it (the value is in `frame.result`); an expression statement is
its expression's closure, whose value is never True.

Locals live in envs, lists [parent env, cell, ...]: one per activation of a
method or block, per `if`/`while` body that declares a variable, per `let`,
and per <init>, <fields> or <default> frame; a local's address is (depth,
slot).  Each local keeps its own Cell, which dies when its env is left, for
the dead-cell check.

Two kinds of send are bound here, from what the checker proved:

- A send the checker resolved to a builtin for a receiver and at most one
  argument of basic types (`Int`, `Boolean`, `Char`, ...), which are final:
  its closure calls the builtin's handler while the values have those kinds
  (not nil) and the method is neither replaced nor overtaken by an
  `addMethod:` body, and goes to `Interp.send` otherwise (`_bound_site`).
- A whileTrue:, whileFalse: or repeatUntil: send of two block literals with
  no parameter, %-variable or local: its closure runs the two bodies in a
  Python loop, with no block value (`_loop`).

Every other send with a receiver expression gets a site number, the index of
its inline cache: on a hit its closure counts the step and calls the cached
handler, and everything else goes to `Interp.send`.  A `super` send is such
a site too (`_super_site`), whose search starts above the entry whose body
holds it, wherever in that body it runs.
"""

from . import builtins as bi
from .cyast import *
from .grammar_methods import all_nodes
from .prototypes import BASIC_TYPES, split_generic
from .values import (FALSE, FRESH_LITERALS, NIL, NOOBJECT, TRUE, ArrayV, BlockV, Cell,
                     MethodV, ObjectV, PrimV, TupleV)


class ReturnSignal(Exception):
    def __init__(self, ctx, value):
        self.ctx = ctx
        self.value = value


class Frame:
    """One activation.  A `return` leaves the method frame whose `ctx` it
    names: its own, or in a block's frame that of the method that made the
    block.  A return that ends the frame's statements leaves its value in
    `result`.  `mixin_index` indexes the receiver's mixin whose body runs."""
    __slots__ = ("entry_name", "method_name", "receiver", "fields_owner", "ctx",
                 "mixin_index", "result")

    def __init__(self, entry_name, method_name, receiver, fields_owner,
                 mixin_index=None, block_ctx=None):
        self.entry_name = entry_name
        self.method_name = method_name
        self.receiver = receiver
        self.fields_owner = fields_owner
        self.mixin_index = mixin_index
        self.ctx = object() if block_ctx is None else block_ctx
        self.result = NOOBJECT


def compile_entries(table, entries, first_site):
    """Compile the bodies of `entries`, checked entries of `table`, numbering
    their send sites from `first_site`.  Answers the next site number."""
    compiler = Compiler(table, first_site)
    for entry in entries:
        if not entry.builtin and isinstance(entry.decl, PrototypeDecl):
            compiler.entry(entry)
    return compiler.sites


class _Scope:
    """The compile-time view of one env: the slot of each name."""
    __slots__ = ("parent", "slots", "size", "dying")

    def __init__(self, parent):
        self.parent = parent
        self.slots = {}
        self.size = 0
        self.dying = []     # the slots whose cells die when the env is left

    def declare(self, name, dies=True):
        self.size += 1
        self.slots[name] = self.size
        if dies:
            self.dying.append(self.size)


class Compiler:
    def __init__(self, table, first_site):
        self.table = table
        self.sites = first_site
        self.scope = _Scope(None)
        self.in_block = False       # whether a `return` runs in a block frame
        self.owner = None           # the entry whose bodies compile

    def entry(self, entry):
        self.owner = entry
        for var in entry.consts + entry.shared_vars + entry.ivars:
            if var.init is not None:
                var.code = self.value(var.init)
        for m in entry.methods:
            decl = m.decl
            if decl is None or m.ctx_marker is not None or m.is_stub:
                continue        # ctx markers run natively; stubs never run
            if decl.body is not None:
                self.in_block = False
                body, scope = self.activation(None, m.param_names, (), self.stats, decl.body)
                decl.code = _method_runner(entry, m, body, scope)
            elif decl.body_expr is not None:
                decl.code = self.value(decl.body_expr)
            if m.kind == "grammar":
                for node in all_nodes(m.regex):
                    if isinstance(node, GSel) and node.argspec[0] == "default":
                        node.code = self.value(node.argspec[2])

    def value(self, e):
        """The closure of `e`, run in a frame of its own with an empty env."""
        self.scope, self.in_block = _Scope(None), False
        return self.expr(e)

    def address(self, name):
        depth, scope = 0, self.scope
        while scope is not None:
            slot = scope.slots.get(name)
            if slot is not None:
                return depth, slot
            scope, depth = scope.parent, depth + 1
        return None

    def local(self, name):
        """The address of a local the checker bound."""
        address = self.address(name)
        if address is None:
            raise RuntimeError(f"the local '{name}' has no slot")
        return address

    def new_site(self, node):
        node.site = self.sites
        self.sites += 1
        return node.site

    def activation(self, parent, params, names, compile_body, body):
        """Compile `body` to run in an env of its own below `parent`'s, which
        holds `params`, whose cells never die, and `names`: (code, scope)."""
        scope = self.scope = _Scope(parent)
        for name in params:
            scope.declare(name, dies=False)
        for name in names:
            scope.declare(name)
        code = compile_body(body)
        self.scope = parent
        return code, scope

    # -- statements ----------------------------------------------------------------

    def stats(self, stats):
        codes = [self.stat(st) for st in stats if type(st) is not EmptyStat]
        if len(codes) == 1:
            return codes[0]

        def seq(interp, env, frame):
            for code in codes:
                if code(interp, env, frame) is True:
                    return True
        return seq

    def stat(self, st):
        try:
            compile_stat = _STATS[type(st)]
        except KeyError:
            raise RuntimeError(f"cannot execute a {type(st).__name__} node") from None
        return compile_stat(self, st)

    def var_decl(self, st):
        decls = []
        for (name, _t, init), ty in zip(st.decls, st.resolved_types):
            value = self.expr(init) if init is not None else None
            self.scope.declare(name)
            decls.append((self.scope.size, value, ty))

        def declare(interp, env, frame):
            for slot, value, ty in decls:
                env[slot] = Cell(value(interp, env, frame) if value is not None
                                 else interp.default_value(ty))
        return declare

    def return_stat(self, st):
        value = self.expr(st.value) if st.value is not None else _no_object
        if self.in_block and not st.is_caret:
            def unwind(interp, env, frame):
                raise ReturnSignal(frame.ctx, value(interp, env, frame))
            return unwind

        def ret(interp, env, frame):
            frame.result = value(interp, env, frame)
            return True
        return ret

    def if_stat(self, st):
        arms = [(self.expr(cond), self.body(body, scoped))
                for (cond, body), scoped in zip(st.arms, st.scoped)]
        if st.else_body is not None:
            arms.append((_true, self.body(st.else_body, st.scoped[-1])))
        return _branch(arms)

    def while_stat(self, st):
        cond, body = self.expr(st.cond), self.body(st.body, st.scoped)

        def loop(interp, env, frame):
            while True:
                v = cond(interp, env, frame)
                if v is not TRUE and (v is FALSE or not interp.truthy(v)):
                    return None
                interp.evals += 1
                if interp.steps + interp.evals > interp.max_steps:
                    interp.out_of_steps()
                if body(interp, env, frame) is True:
                    return True
        return loop

    def body(self, stats, scoped):
        """The statements of an `if` or `while` body: one that declares a
        variable runs in an env of its own."""
        if not scoped:
            return self.stats(stats)
        code, scope = self.activation(self.scope, (), (), self.stats, stats)
        blank, dying = [None] * scope.size, scope.dying

        def nested(interp, env, frame):
            inner = [env, *blank]
            try:
                return code(interp, inner, frame)
            finally:
                _kill(inner, dying)
        return nested

    def assign(self, target, value):
        """The closure that assigns what `value` answers to `target`, and
        answers it; a setter send answers what the setter answers."""
        t = type(target)
        if t is PercentRef or (t is NameRef and target.binding is LOCAL):
            return _writer(*self.local(target.name), value)
        if t is NameRef and target.binding is SEND:
            return _site(self.new_site(target), [(target.name + ":", [value])], _receiver)
        if t is SelfRef or t is NameRef:
            name = target.field_name if t is SelfRef else target.name
            if t is SelfRef or target.binding is FIELD:
                return lambda interp, env, frame: \
                    interp.field_write(frame.fields_owner, name, value(interp, env, frame))
            statics = target.binding[1]
            return lambda interp, env, frame: \
                interp.set_static(statics, name, value(interp, env, frame))
        # the checker allows no other target than a method access
        recv, sig = self.expr(target.receiver), target.sig
        return lambda interp, env, frame: \
            interp.replace_method(value(interp, env, frame), recv(interp, env, frame), sig)

    # -- expressions -----------------------------------------------------------------

    def expr(self, e):
        try:
            compile_expr = _EXPRS[type(e)]
        except KeyError:
            raise RuntimeError(f"cannot evaluate a {type(e).__name__} node") from None
        return compile_expr(self, e)

    def lit(self, e):
        v = e.runtime_value
        if v is not None:
            return lambda interp, env, frame: v
        kind, raw = FRESH_LITERALS[e.kind], e.value
        return lambda interp, env, frame: PrimV(kind, raw)

    def array(self, e):
        codes, tname = [self.expr(x) for x in e.elems], e.resolved_type
        elem = split_generic(tname)[1][0][0]
        return lambda interp, env, frame: \
            ArrayV(tname, elem, [code(interp, env, frame) for code in codes])

    def tuple_lit(self, e):
        codes, tname = [self.expr(x) for _n, x in e.items], e.resolved_type
        names = [n for n, _t in self.table.get(tname).tuple_fields]
        return lambda interp, env, frame: \
            TupleV(tname, names, [code(interp, env, frame) for code in codes])

    def name(self, e):
        binding, name = e.binding, e.name
        if binding is LOCAL:
            return _reader(*self.local(name))
        if binding is FIELD:
            return lambda interp, env, frame: interp.field_read(frame.fields_owner, name)
        if binding is SEND:
            return _site(self.new_site(e), [(name, [])], _receiver)
        if binding is PROTO:
            return self.prototype(name)
        if binding is None:
            raise RuntimeError(f"the name '{name}' was not resolved")
        statics = binding[1]

        def static(interp, env, frame):
            try:
                return interp.statics[statics][name]
            except KeyError:
                interp.uninitialized(name)
        return static

    def prototype(self, name):
        entry = self.table.get(name)
        return lambda interp, env, frame: interp.prototype_object(entry)

    def self_ref(self, e):
        name = e.field_name
        if name is None:
            return _receiver
        return lambda interp, env, frame: interp.field_read(frame.fields_owner, name)

    def send(self, e, parts, recv_code, args_first=True, refs=None):
        """The closure of the send `e` of `parts` to what `recv_code`
        answers: bound to its builtin where the checker resolved it for a
        receiver and at most one argument of basic types (`_bound_site`),
        else a site with an inline cache (`_site`)."""
        bound = e.builtin
        if bound is not None and bound[1] in _BASIC and len(parts) == 1 \
                and (not bound[2] or len(bound[2]) == 1 and bound[2][0] in _BASIC):
            return _bound_site(bound, parts[0], recv_code, args_first)
        return _site(self.new_site(e), parts, recv_code, args_first, refs)

    def unary(self, e):
        if type(e.receiver) is SuperRef:
            return _super_site(self.new_site(e), [(e.selector, [])], self.owner, None)
        return self.send(e, [(e.selector, [])], self.expr(e.receiver))

    def binary(self, e):
        left, right = self.expr(e.left), self.expr(e.right)
        if e.op == "..":
            return lambda interp, env, frame: \
                interp.make_interval(left(interp, env, frame), right(interp, env, frame))
        return self.send(e, [(e.op, [right])], left, args_first=False)

    def keyword(self, e):
        if e.builtin is not None and e.builtin[0].builtin in _LOOPS \
                and _plain_block(e.receiver) and _plain_block(e.parts[0][1][0]):
            return self.loop(e)
        parts = [(sel, [self.expr(a) for a in args]) for sel, args in e.parts]
        # a context object's `new:` and `bind:` bind their `&` and `*`
        # parameters to what the arguments refer to
        refs = self.refs(e.parts[0][1]) \
            if len(parts) == 1 and parts[0][0] in ("new:", "bind:") else None
        if type(e.receiver) is SuperRef:
            return _super_site(self.new_site(e), parts, self.owner, refs)
        recv = _receiver if e.receiver is None else self.expr(e.receiver)
        return self.send(e, parts, recv, refs=refs)

    def loop(self, e):
        """A whileTrue:, whileFalse: or repeatUntil: send of two block
        literals with no parameter and no %-variable: where neither body
        declares a local, a Python loop over the two bodies (`_loop`), else
        the site that sends the two block values."""
        (selector, (arg,)), = e.parts
        make_arg, arg_body, arg_slots = self.block(arg)
        make_recv, recv_body, recv_slots = self.block(e.receiver)
        site = _site(self.new_site(e), [(selector, [make_arg])], make_recv)
        if arg_slots or recv_slots:
            return site
        m = e.builtin[0]
        if m.builtin == "repeat_until":
            return _loop(m, arg_body, recv_body, True, False, site)
        return _loop(m, recv_body, arg_body, False, m.builtin == "while_true", site)

    def refs(self, nodes):
        """A closure of the env answering, per argument node, the cell of
        the local it names or None, and the variable it names or None."""
        spec = []
        for node in nodes:
            t = type(node)
            address = self.local(node.name) if t is NameRef and node.binding is LOCAL else None
            spec.append((address, node.name if t is NameRef
                         else node.field_name if t is SelfRef else None))
        return lambda env: [(address and _env_at(env, address[0])[address[1]], name)
                            for address, name in spec]

    def block(self, e):
        """Compile the block literal `e`, leaving its runner in `e.code`:
        (the closure that makes its value, the closure of its body, the
        number of slots of its env)."""
        percent = list(e.info.percent_vars) if e.info is not None else []
        snapshot = [self.address(name) for name in percent]
        params = [p.name for sec in e.param_sections for p in sec]
        outer_in_block, self.in_block = self.in_block, True
        body, scope = self.activation(self.scope, params, percent, self.stats, e.body)
        self.in_block = outer_in_block
        e.code = _block_runner(body, scope, len(params), len(percent))
        rtype = e.runtime_type

        def make_block(interp, env, frame):
            # a %-variable whose declaration has not run yet is nil
            values = [NIL if c is None else interp.cell_read(c) for c in (
                address and _env_at(env, address[0])[address[1]] for address in snapshot)] \
                if snapshot else ()
            return BlockV(e, env, frame, rtype, values)
        return make_block, body, scope.size

    def method_access(self, e):
        recv, sig, rtype = self.expr(e.receiver), e.sig, e.resolved_type

        def method_object(interp, env, frame):
            r = recv(interp, env, frame)
            return MethodV(r, interp.resolve_sig(r, sig), rtype)
        return method_object

    def let(self, e):
        init = self.expr(e.init)
        body, _scope = self.activation(self.scope, (), [e.name], self.expr, e.body)

        def let(interp, env, frame):
            inner = [env, Cell(init(interp, env, frame))]
            try:
                return body(interp, inner, frame)
            finally:
                inner[1].alive = False
        return let


_STATS = {
    ExprStat: lambda c, st: c.expr(st.expr),
    AssignStat: lambda c, st: c.assign(st.targets[0], c.expr(st.value)),
    VarDeclStat: Compiler.var_decl, ReturnStat: Compiler.return_stat,
    IfStat: Compiler.if_stat, WhileStat: Compiler.while_stat,
}

_EXPRS = {
    Lit: Compiler.lit, ArrayLit: Compiler.array, TupleLit: Compiler.tuple_lit,
    NameRef: Compiler.name, GenericRef: lambda c, e: c.prototype(e.resolved),
    SelfRef: Compiler.self_ref, PercentRef: lambda c, e: _reader(*c.local(e.name)),
    UnarySend: Compiler.unary,
    PrefixOp: lambda c, e: c.send(e, [(e.op, [])], c.expr(e.operand)),
    BinarySend: Compiler.binary, KeywordSend: Compiler.keyword,
    BlockLit: lambda c, e: c.block(e)[0],
    MethodAccess: Compiler.method_access, LetExpr: Compiler.let,
    AssignExpr: lambda c, e: c.assign(e.target, c.expr(e.value)),
    IfExpr: lambda c, e: _branch([(c.expr(e.cond), c.expr(e.then)),
                                  (_true, c.expr(e.otherwise))]),
}


# the builtins of the loops whose block literals `Compiler.loop` runs inline
_LOOPS = ("while_true", "while_false", "repeat_until")

_BASIC = frozenset(BASIC_TYPES)


def _plain_block(e):
    """Whether `e` is a block literal with no parameter and no %-variable."""
    return type(e) is BlockLit and not e.param_sections \
        and (e.info is None or not e.info.percent_vars)


# -- closures -----------------------------------------------------------------------------

def _true(interp, env, frame):
    return TRUE


def _no_object(interp, env, frame):
    return NOOBJECT


def _receiver(interp, env, frame):
    return frame.receiver


def _branch(arms):
    """Run the code of the first arm whose condition answers true."""
    def branch(interp, env, frame):
        for cond, then in arms:
            v = cond(interp, env, frame)
            if v is TRUE or (v is not FALSE and interp.truthy(v)):
                return then(interp, env, frame)
    return branch


def _env_at(env, depth):
    for _ in range(depth):
        env = env[0]
    return env


def _kill(env, dying):
    for slot in dying:
        cell = env[slot]
        if cell is not None:
            cell.alive = False


def _reader(depth, slot):
    def read(interp, env, frame):
        cell = env[slot] if depth == 0 else env[0][slot] if depth == 1 \
            else _env_at(env, depth)[slot]
        return cell.value if cell.alive else interp.cell_read(cell)
    return read


def _writer(depth, slot, value):
    def write(interp, env, frame):
        cell = env[slot] if depth == 0 else env[0][slot] if depth == 1 \
            else _env_at(env, depth)[slot]
        cell.value = v = value(interp, env, frame)
        return v
    return write


def _activation(parent, args, nparams, tail):
    """[parent, a cell per parameter, *tail]; a parameter without an
    argument has no cell."""
    if len(args) == nparams:
        return [parent, *map(Cell, args), *tail]
    cells = [Cell(a) for a in args[:nparams]]
    return [parent, *cells, *[None] * (nparams - len(cells)), *tail]


def _method_runner(entry, method, body, scope):
    name, ctx_self, nparams = method.name, method.ctx_self_field, len(method.param_names)
    blank, dying = [None] * (scope.size - nparams), scope.dying

    def run(interp, m, recv, args, shape, mixin_obj=None):
        if mixin_obj is None:
            fields_owner, mixin_index = recv, None
        else:
            fields_owner, mixin_index = mixin_obj
        self_obj = recv
        if ctx_self is not None:
            # a context block's body: self is the object it is bound to
            self_obj = interp.field_read(recv, ctx_self)
            fields_owner = self_obj if isinstance(self_obj, ObjectV) else recv
        frame = Frame(entry.name, name, self_obj, fields_owner, mixin_index)
        frames = interp.frames
        if len(frames) > 2000:
            interp.str_exception("method call stack overflow")
        frames.append(frame)
        env = _activation(None, args, nparams, blank)
        try:
            body(interp, env, frame)
            return frame.result
        except ReturnSignal as r:
            if r.ctx is frame.ctx:
                return r.value
            raise
        finally:
            if dying:
                _kill(env, dying)
            frames.pop()
    return run


def _block_runner(body, scope, nparams, npercent):
    blank, dying = [None] * (scope.size - nparams - npercent), scope.dying

    def run(interp, blk, args):
        home = blk.home
        frame = Frame(home.entry_name, "eval", home.receiver, home.fields_owner,
                      home.mixin_index, home.ctx)
        frames = interp.frames
        frames.append(frame)
        env = _activation(blk.env, args, nparams,
                          [*map(Cell, blk.snapshot), *blank] if npercent else blank)
        try:
            body(interp, env, frame)
            return frame.result
        finally:
            if dying:
                _kill(env, dying)
            frames.pop()
    return run


def mixin_at(recv, index):
    """What `lookup` pairs with a method it found on the chain of the mixin
    of `recv` at `index`: (that mixin object, index); None for no index."""
    return None if index is None else (recv.mixins[index], index)


def send_key(interp, recv, args):
    """The inline-cache key of a send of `args` to `recv`, or None where the
    send is not cached.  The receiver's part is its type; for an object with
    attached mixins, (its prototype, the tuple of its mixins' prototypes),
    so that `attachMixin:` and `popMixin` change the key and not the cache.
    Objects with methods of their own, nil and noObject are not cached.  A
    send with arguments keys by the tuple of the receiver's part and the
    arguments' types: what `lookup` answers, and a grammar method's match,
    depend on nothing else at one site."""
    t = type(recv)
    if t is PrimV:
        key = recv.kind
    elif t is ObjectV:
        if recv.own_methods:
            return None
        key = (recv.proto, tuple([mixin.proto for mixin in recv.mixins])) \
            if recv.mixins else recv.proto
    elif recv is NIL or recv is NOOBJECT:
        return None
    else:
        key = interp.runtime_type(recv)
    if not args:
        return key
    if len(args) == 1:
        arg = args[0]
        t = type(arg)
        return key, (arg.kind if t is PrimV else arg.proto if t is ObjectV
                     else interp.runtime_type(arg))
    return (key, *[a.kind if type(a) is PrimV else interp.runtime_type(a) for a in args])


def _site(site, parts, recv_code, args_first=True, refs=None):
    """The closure of a send site: `parts` is [(selector, [argument
    closures])], and a keyword send runs its arguments before its receiver.
    The site probes its inline cache with `send_key` and hands a miss, or a
    send it does not cache, to `Interp.send`.  A hit calls the entry's
    handler, or `invoke` for a `new:` or `bind:` send, which has `refs`
    (`Compiler.refs`), and for a method with a bound value."""
    (selector, codes), = parts if len(parts) == 1 else [(None, None)]
    arg_code = codes[0] if codes is not None and len(codes) == 1 else None
    unary = ((selector, ()),) if codes == [] else None

    def send(interp, env, frame):
        if arg_code is not None:
            if args_first:
                arg = arg_code(interp, env, frame)
                recv = recv_code(interp, env, frame)
            else:
                recv = recv_code(interp, env, frame)
                arg = arg_code(interp, env, frame)
            args = [arg]
            shape = [(selector, args)]
        elif unary is not None:
            recv, args, shape = recv_code(interp, env, frame), (), unary
        else:
            shape = [(sel, [code(interp, env, frame) for code in codes])
                     for sel, codes in parts]
            recv = recv_code(interp, env, frame)
            args = [a for _s, part in shape for a in part]
        key = send_key(interp, recv, args)
        if key is None:
            return interp.send(recv, shape, refs=refs and refs(env))
        found = interp.inline_caches[site].get(key)
        if found is None:
            return interp.send(recv, shape, refs=refs and refs(env), site=site, key=key)
        interp.steps += 1
        if interp.steps + interp.evals > interp.max_steps:
            interp.out_of_steps()
        handler, m, owner, index, plan = found
        if refs is not None or m in interp.bound_values:
            return interp.invoke(m, recv, shape, owner, mixin_at(recv, index), plan,
                                 refs and refs(env))
        return handler(interp, m, recv, args, shape)
    return send


def _super_site(site, parts, above, refs):
    """The closure of a `super` send of `parts` in a body of the entry
    `above`: a `_site` to self whose miss hands `above` and the frame's mixin
    index to `Interp.send`.  One mixin can be attached twice, so a site in a
    mixin's body keys by that index too."""
    def send(interp, env, frame):
        shape = [(sel, [code(interp, env, frame) for code in codes]) for sel, codes in parts]
        recv, index = frame.receiver, frame.mixin_index
        key = send_key(interp, recv, [a for _s, part in shape for a in part])
        if above.is_mixin and key is not None:
            key = key, index
        found = None if key is None else interp.inline_caches[site].get(key)
        if found is None:
            return interp.send(recv, shape, above, index, refs and refs(env), site, key)
        interp.steps += 1
        if interp.steps + interp.evals > interp.max_steps:
            interp.out_of_steps()
        _handler, m, owner, found_index, plan = found
        return interp.invoke(m, recv, shape, owner, mixin_at(recv, found_index), plan,
                             refs and refs(env))
    return send


def _bound_site(bound, part, recv_code, args_first):
    """The closure of a send that the checker resolved to the builtin `m`
    for a receiver of the basic type `kind` and arguments of the basic types
    `kinds`, [(selector, [argument closures])] being `part`.  Basic types
    are final, so a value of one is of that kind or nil.  While the values
    have those kinds, `m` has no bound value and no `addMethod:` body can
    take a message first, the closure counts the step and calls the
    handler of `m`; anything else goes to `Interp.send`, uncached."""
    m, kind, kinds = bound
    handler = bi.handler(m)
    selector, codes = part
    if not codes:
        shape = ((selector, ()),)

        def send_unary(interp, env, frame):
            recv = recv_code(interp, env, frame)
            if type(recv) is PrimV and recv.kind == kind \
                    and m not in interp.bound_values and not interp.dyn_methods:
                interp.steps += 1
                if interp.steps + interp.evals > interp.max_steps:
                    interp.out_of_steps()
                return handler(interp, m, recv, (), shape)
            return interp.send(recv, shape)
        return send_unary
    arg_code, = codes
    arg_kind, = kinds

    def send(interp, env, frame):
        if args_first:
            arg = arg_code(interp, env, frame)
            recv = recv_code(interp, env, frame)
        else:
            recv = recv_code(interp, env, frame)
            arg = arg_code(interp, env, frame)
        args = [arg]
        if type(recv) is PrimV and recv.kind == kind and type(arg) is PrimV \
                and arg.kind == arg_kind and m not in interp.bound_values \
                and not interp.dyn_methods:
            interp.steps += 1
            if interp.steps + interp.evals > interp.max_steps:
                interp.out_of_steps()
            return handler(interp, m, recv, args, [(selector, args)])
        return interp.send(recv, [(selector, args)])
    return send


def _loop(m, cond, body, body_first, goes_on, site):
    """The closure of a send of the loop builtin `m` to a block literal,
    with a block literal argument, whose envs would hold no slot: `cond`
    and `body`, the closures of the two bodies, run in turn, `body` first
    for repeatUntil:, until `cond` does not answer `goes_on`.  The send
    counts its step, and each evaluation counts, checks the budget and
    pushes a frame as the block runner does; but one frame and one env
    serve the whole loop, and no block value is made.  While `m` has a
    bound value, or an `addMethod:` body might take the message, the send
    goes to the general `site`, which sends the two block values."""
    def loop(interp, env, frame):
        if m in interp.bound_values or interp.dyn_methods:
            return site(interp, env, frame)
        interp.steps += 1
        if interp.steps + interp.evals > interp.max_steps:
            interp.out_of_steps()
        block = Frame(frame.entry_name, "eval", frame.receiver, frame.fields_owner,
                      frame.mixin_index, frame.ctx)
        env = [env]
        frames = interp.frames
        testing = not body_first
        while True:
            interp.evals += 1
            if interp.steps + interp.evals > interp.max_steps:
                interp.out_of_steps()
            block.result = NOOBJECT
            frames.append(block)
            try:
                (cond if testing else body)(interp, env, block)
            finally:
                frames.pop()
            if testing:
                v = block.result
                if (v is TRUE or v is not FALSE and interp.truthy(v)) != goes_on:
                    return NOOBJECT
            testing = not testing
    return loop
