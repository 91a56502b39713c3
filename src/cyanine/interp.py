"""The interpreter: object model, dispatch, inline caches, closures with
%-snapshots, dynamic mixins, method objects, and the object-oriented
exception machinery.  It runs the code the compile step (`compiler`) left
on the nodes.  Which method of a chain takes a message, in textual
order, is the table's `find_method`, the search the checker makes too;
`lookup` adds what only the run has: methods of an object's own, attached
mixins and `addMethod:` bodies, and it starts a `super` search where the
compile step said.  A send site's cache, a `super` send's too, keeps what
`lookup` found under `compiler.send_key`, which holds an object's mixin
stack, with the packing plan of a grammar method; the catch builtin's
handler search has a cache of its own, `CATCH_SITE`."""

import re
from types import MappingProxyType

from . import builtins as bi
from .builtins import CyThrow, ExitSignal
from .compiler import Frame, mixin_at, send_key
from .desugar import CTX_BIND, CTX_NEW, CTX_NEWOBJECT
from .driver import raise_recursion_limit
from .grammar_methods import plan_packing
from .values import (NIL, NOOBJECT, UNIT, ArrayV, BlockV, Cell, IntervalV, MethodV,
                     NativeBlockV, ObjectV, PrimV, TupleV, UnionV)


class OutOfSteps(Exception):
    """The run spent its step budget.  Cyan code cannot catch it."""

    def __init__(self, stack):
        self.stack = stack


class DeadCellRead(Exception):
    pass


class FieldProxy:
    """A reference parameter: reads and writes land on the bound location."""
    __slots__ = ("owner", "name")

    def __init__(self, owner, name):
        self.owner = owner
        self.name = name


_NO_ENTRIES = MappingProxyType({})     # the cache of a site before its first miss

# the cache of the catch builtin's handler search: the `eval:` send to each
# catcher, one cache after those of the send sites
CATCH_SITE = -1

_DEFAULTS = {"Byte": 0, "Short": 0, "Int": 0, "Long": 0, "Float": 0.0,
             "Double": 0.0, "Char": "\0", "Boolean": False, "String": ""}

# what `In` reads: a token and a character skip blanks first; on `str`, `\s`
# matches exactly the characters `str.isspace` accepts
_TOKEN = re.compile(r"\S+")
_CHAR = re.compile(r"\S")

# nil redefines isNil/notNil and still answers these final identity tests of
# Any, each a builtin; everything else is DoesNotUnderstandException
_NIL_SELECTORS = frozenset(("eq:", "neq:", "==", "!=", "ifNil:", "isA:", "prototype",
                            "prototypeName", "hashCode"))


class Interp:
    def __init__(self, program, stdin_text="", argv=(), stdin=None):
        """`In` reads `stdin_text`, or else the file `stdin`, which is read to
        its end on the first use of `In`."""
        if not program.ok():
            raise ValueError(program.reporter.format_all())
        self.program = program
        self.table = program.table
        self.out = []
        self.stdin_text = stdin_text
        self.stdin = stdin
        self.stdin_pos = 0
        self.argv = list(argv)
        self.frames = []
        # the step budget bounds sends plus evaluations; only sends (and
        # `loop` iterations) count as steps
        self.max_steps = 10_000_000
        self.steps = 0
        self.evals = 0              # block evaluations and `while` iterations
        # run-time state of the program's prototypes; the table is compile-time
        # state and, through the world it overlays, shared by other programs
        self.proto_objects = {}     # entry name -> the prototype's object, made
                                    # when its initialisation starts
        self.statics = {}           # entry name -> {const or shared var: value}
        self.bound_values = {}      # MethodEntry -> object bound by `fun sig = e`
                                    # or by assigning a method
        self.dyn_methods = {}       # (entry name, selector) -> body from addMethod:
        self.hash_codes = {}        # id -> (hashCode, value) of each non-basic value
                                    # hashed, kept so that no other value gets its id
        # one inline cache per send site, indexed by the site's number, and
        # CATCH_SITE: {`compiler.send_key`: (handler, method, owner entry,
        # index of the receiver's mixin that has it or None, packing plan of
        # a grammar method or None)}.  A send counts as a hit (served by a
        # cache, or by the binding the compile step gave it: a proven send,
        # a literal loop or a fixed send of a `compiler` tree), a miss
        # (looked up, then cached) or a skip (looked up but not cacheable,
        # or not looked up: a send to nil, a proven send whose guard
        # failed), so hits = steps - misses - skips.
        self.inline_caches = [_NO_ENTRIES] * (program.sites + 1)
        self.misses = 0
        self.skips = 0

    # -- top level ---------------------------------------------------------------

    def stdout(self):
        return "".join(self.out)

    def run(self):
        raise_recursion_limit()
        try:
            self.setup()
            main = self.table.get(self.program.main_name)
            recv = self.prototype_object(main)
            if "run:" in main.groups:
                args = ArrayV("Array<String>", "String",
                              [PrimV("String", a) for a in self.argv])
                self.send(recv, [("run:", [args])])
            else:
                self.send(recv, [("run", [])])
            return 0
        except CyThrow as t:
            self.write(f"uncaught exception: {self.runtime_type(t.value)}\n")
            self.write_stack(t.stack)
            return 2
        except OutOfSteps as t:
            self.write(f"step budget of {self.max_steps} exhausted\n")
            self.write_stack(t.stack)
            return 2
        except ExitSignal as ex:
            return ex.code

    def write_stack(self, stack):
        for proto, meth in stack:
            self.write(f"  at {proto}::{meth}\n")

    def out_of_steps(self):
        raise OutOfSteps(self.stack_snapshot())

    def write(self, text):
        self.out.append(text)

    # single cursor over standard input shared by every In method
    def input_text(self):
        if self.stdin is not None:
            self.stdin_text, self.stdin = self.stdin.read(), None
        return self.stdin_text

    def read_token(self):
        found = _TOKEN.search(self.input_text(), self.stdin_pos)
        if found is None:
            return None
        self.stdin_pos = found.end()
        return found.group()

    def read_line(self):
        text = self.input_text()
        n = len(text)
        if self.stdin_pos >= n:
            return None
        j = text.find("\n", self.stdin_pos)
        if j < 0:
            out = text[self.stdin_pos:]
            self.stdin_pos = n
        else:
            out = text[self.stdin_pos:j]
            self.stdin_pos = j + 1
        return out

    def read_char(self):
        found = _CHAR.search(self.input_text(), self.stdin_pos)
        if found is None:
            return None
        self.stdin_pos = found.end()
        return found.group()

    # -- startup: prototype objects and initialization order -----------------------

    def setup(self):
        """Make and initialise, in table order, the objects of the prototypes
        the program adds to the world and of those world prototypes whose
        initialisation runs code; any other world prototype's object is made
        on first use, as its initialisation has nothing a program can see."""
        world = self.table.shared
        if world is None:
            entries = list(self.table.entries.values())
        else:       # the world's entries come first in the table
            entries = world.code_at_init() + [e for name, e in self.table.entries.items()
                                              if name not in world.entries]
        for entry in entries:
            self.prototype_object(entry)

    def prototype_object(self, entry):
        """The object a prototype name evaluates to, made and initialised on
        first use."""
        obj = self.proto_objects.get(entry.name)
        if obj is None:
            obj = self.proto_objects[entry.name] = ObjectV(entry.name, is_prototype=True)
            if not entry.builtin:
                self.init_prototype(entry, obj)
        return obj

    def init_prototype(self, entry, obj):
        """Initialise `obj`, the object of `entry`, after its supertype's."""
        sup = self.table.get(entry.supertype)
        if sup is not None:
            self.prototype_object(sup)
        frame = Frame(entry.name, "<init>", obj, obj)
        self.frames.append(frame)
        try:
            env = [None]
            if entry.consts or entry.shared_vars:
                # shared variables after constants: a shared one wins a name clash
                statics = self.statics[entry.name] = {}
                for v in entry.consts + entry.shared_vars:
                    statics[v.name] = v.code(self, env, frame) \
                        if v.init is not None else self.default_value(v.resolved_type)
            self.init_fields(obj)
            for m in entry.methods:
                if m.decl is not None and m.decl.body_expr is not None:
                    self.bound_values[m] = m.decl.code(self, env, frame)
            if entry.init_once is not None and entry.init_once.code is not None:
                entry.init_once.code(self, None, obj, [], None)
        finally:
            self.frames.pop()

    def field_template(self, entry):
        """Instance variables of the whole chain, ancestors first."""
        out = []
        for anc in reversed(self.table.chain(entry.name)):
            for var in anc.ivars:
                out.append(var)
        return out

    def init_fields(self, obj):
        entry = self.table.get(obj.proto)
        frame = Frame(entry.name, "<fields>", obj, obj)
        self.frames.append(frame)
        try:
            env = [None]
            for var in self.field_template(entry):
                if var.init is not None:
                    obj.fields[var.name] = var.code(self, env, frame)
                else:
                    obj.fields[var.name] = self.default_value(var.resolved_type)
        finally:
            self.frames.pop()

    def default_value(self, type_name):
        if type_name in _DEFAULTS:
            kind = type_name
            return PrimV(kind, _DEFAULTS[kind])
        return NIL

    # -- value typing ---------------------------------------------------------------

    def runtime_type(self, v):
        if isinstance(v, PrimV):
            return v.kind
        if v is NIL:
            return "Nil"
        if v is NOOBJECT:
            return "Void"
        if v is UNIT:
            return "Any"
        if isinstance(v, (ArrayV, TupleV, UnionV, IntervalV)):
            return v.type_name
        if isinstance(v, ObjectV):
            return v.proto
        if isinstance(v, (BlockV, MethodV, NativeBlockV)):
            return v.type_name
        raise TypeError(v)

    def reaches(self, s, t):
        """Runtime subtype test: the table's walk without the restricted gate.
        Dispatch calls it through this method so that its calls are counted."""
        return self.table.reaches(s, t)

    # -- exceptions -------------------------------------------------------------------

    def stack_snapshot(self):
        return [(f.entry_name, f.method_name) for f in reversed(self.frames)]

    def throw_name(self, proto_name, message=None):
        entry = self.table.get(proto_name)
        if entry is None:
            raise CyThrow(PrimV("String", message or proto_name), self.stack_snapshot())
        obj = self.instantiate(entry)
        if message is not None and entry.ctx_params:
            field = entry.ctx_params[0]
            fname = field.name if field.qualifier == "private" else "_" + field.name
            obj.fields[fname] = PrimV("String", message)
        elif message is not None:
            for cand in ("message", "_message", "messageName", "_messageName"):
                if cand in obj.fields:
                    obj.fields[cand] = PrimV("String", message)
                    break
        raise CyThrow(obj, self.stack_snapshot())

    def str_exception(self, message):
        self.throw_name("StrException", message)

    # -- object creation ----------------------------------------------------------------

    def instantiate(self, entry):
        obj = ObjectV(entry.name)
        self.init_fields(obj)
        return obj

    # -- cells and fields ------------------------------------------------------------------

    def cell_read(self, cell):
        if not cell.alive:
            raise DeadCellRead("read of a captured local after its frame was popped")
        return cell.value

    def field_read(self, obj, name):
        try:
            v = obj.fields[name]
        except KeyError:
            self.uninitialized(name)
        if isinstance(v, Cell):
            return self.cell_read(v)
        if isinstance(v, FieldProxy):
            return self.field_read(v.owner, v.name)
        return v

    def field_write(self, obj, name, value):
        cur = obj.fields.get(name)
        if isinstance(cur, Cell):
            cur.value = value
        elif isinstance(cur, FieldProxy):
            self.field_write(cur.owner, cur.name, value)
        else:
            obj.fields[name] = value
        return value

    def static_read(self, owner, name):
        """The shared variable or constant `name` of the entry `owner`."""
        try:
            return self.statics[owner][name]
        except KeyError:
            self.uninitialized(name)

    def set_static(self, owner, name, value):
        self.statics[owner][name] = value
        return value

    def uninitialized(self, name):
        """An initial value read a field or shared variable not yet set."""
        self.str_exception(f"variable '{name}' is read before it is initialized")

    # -- dispatch ---------------------------------------------------------------------------

    def send(self, recv, shape, above=None, mixin_index=None, refs=None, site=None, key=None):
        """Send `shape`, [(selector, [argument values])], to `recv`: the path
        of a send without a site (one a builtin makes) and of a site whose
        cache missed, which passes its number and the key it probed.
        `lookup` finds the method, which the site's inline cache keeps when
        it can.  `refs` says what each argument of a `new:` or `bind:` send
        refers to (`ctx_bind`)."""
        self.steps += 1
        if self.steps + self.evals > self.max_steps:
            self.out_of_steps()
        name = "".join(sel for sel, _ in shape)
        if recv is NIL or recv is NOOBJECT:
            self.skips += 1
            if recv is NOOBJECT:
                self.str_exception(f"message '{name}' sent to noObject")
            return self.send_to_nil(shape, name)
        hit = self.lookup(recv, shape, above, mixin_index, name)
        self._keep(site, key, hit)
        return self.perform(recv, shape, hit, refs)

    def _keep(self, site, key, hit):
        """Count a send that `lookup` answered with `hit`: a miss when `key`
        is a cache key and `hit` a static hit, which the cache of `site` then
        keeps; else a skip.  A body `addMethod:` gave is found per
        prototype, not per type, so it is never kept."""
        if key is not None and hit is not None and hit[0] == "static":
            m, owner, mixin_obj, plan = hit[1]
            index = None if mixin_obj is None else mixin_obj[1]
            self._cache(site)[key] = (self.cached_handler(m, owner, index, plan), m, owner,
                                      index, plan)
            self.misses += 1
        else:
            self.skips += 1

    def perform(self, recv, shape, hit, refs=None):
        """The rest of a send of `shape` to `recv` once `lookup` answered
        `hit`: run what it found, or send doesNotUnderstand:."""
        if hit is None:
            name = "".join(sel for sel, _ in shape)
            if name == "doesNotUnderstand:":
                self.throw_name("DoesNotUnderstandException", "doesNotUnderstand: loop")
            sym = PrimV("CySymbol", name)
            flat = [a for _s, args in shape for a in args]
            arr = ArrayV("Array<Any>", "Any", flat)
            return self.send(recv, [("doesNotUnderstand:", [sym, arr])])
        kind, payload = hit
        if kind == "own":
            return self.call_added_method(payload, recv, shape)
        m, owner_entry, mixin_obj, plan = payload
        return self.invoke(m, recv, shape, owner_entry, mixin_obj, plan, refs)

    def send_found(self, recv, shape, hit):
        """Send `shape` to `recv` when `hit`, not None, is what `lookup`
        answers for it: one step, then `perform`."""
        self.steps += 1
        if self.steps + self.evals > self.max_steps:
            self.out_of_steps()
        return self.perform(recv, shape, hit)

    def _cache(self, site):
        """The cache of `site`, which a miss may write."""
        cache = self.inline_caches[site]
        if cache is _NO_ENTRIES:
            cache = self.inline_caches[site] = {}
        return cache

    def handler_lookup(self, recv, shape):
        """What `lookup` answers for the catch builtin's one-argument `eval:`
        send `shape` to the catcher `recv`, through the cache CATCH_SITE,
        which keeps a catcher with no method for it as None.  Where a method
        takes it, the builtin sends it with `send_found`, and that send
        counts here: a miss when this search filled the cache, a skip when
        it could not be cached, else a hit."""
        key = send_key(self, recv, shape[0][1])
        cache = self.inline_caches[CATCH_SITE]
        if key in cache:
            found = cache[key]
            if found is None:
                return None
            _handler, m, owner, index, plan = found
            return ("static", (m, owner, mixin_at(recv, index), plan))
        hit = self.lookup(recv, shape)
        if hit is not None:
            self._keep(CATCH_SITE, key, hit)
        elif key is not None:
            self._cache(CATCH_SITE)[key] = None
        return hit

    @staticmethod
    def cached_handler(m, owner, index, plan):
        """What a site whose cache holds `m` calls, as (interp, m, recv,
        args, shape): a builtin's handler; a method body's runner, given the
        receiver's mixin at `index` as `invoke` gives it; or else `invoke`,
        which packs a grammar method's arguments by `plan`.  The site calls
        `invoke` itself while `m` has a bound value."""
        if m.builtin is not None:
            return bi.handler(m)
        if plan is None and m.ctx_marker is None and not m.is_abstract \
                and m.decl is not None and m.decl.body is not None:
            run = m.decl.code
            if index is None:
                return run
            return lambda interp, m, recv, args, shape: \
                run(interp, m, recv, args, shape, mixin_at(recv, index))
        return lambda interp, m, recv, args, shape: \
            interp.invoke(m, recv, shape, owner, mixin_at(recv, index), plan)

    def send_to_nil(self, shape, name):
        if len(shape) == 1 and shape[0][0] in ("isNil", "notNil") and not shape[0][1]:
            return PrimV("Boolean", shape[0][0] == "isNil")
        if name in _NIL_SELECTORS:
            m = self.table.get("Any").groups[name].entries[0]
            return bi.call(self, m, NIL, [a for _s, aa in shape for a in aa], shape)
        self.throw_name("DoesNotUnderstandException", f"message '{name}' sent to nil")

    def invalidate_caches(self):
        """Start a new cache epoch: `addMethod:` added a method to a
        prototype, which a cached send to it or to a sub-prototype must
        find.  Nothing else can make an entry stale: an object's mixin stack
        is part of its key, objects with methods of their own are never
        cached, a replaced method is found as the same entry (`invoke` reads
        its new value), and the run never writes the table."""
        self.inline_caches = [_NO_ENTRIES] * len(self.inline_caches)

    def lookup(self, recv, shape, above=None, mixin_index=None, name=None):
        """What takes the message: the receiver's own method for it, else the
        first found on the chain of one of its attached mixins, then on its
        dispatch chain; for a `super` send, above the entry `above`, or after
        the attached mixin at `mixin_index`.  Answers ("own", body) for a
        body of the object's own or one `addMethod:` gave, ("static", (method,
        owner entry, (mixin object, index) or None, packing plan of a grammar
        method with a body or None)), or None.  `name` is the joined selector."""
        if name is None:
            name = "".join(sel for sel, _ in shape)
        if above is not None and mixin_index is None:
            return self._search(self.table.dispatch_chain(above.name)[1:], shape, name, None)
        chain = self.table.dispatch_chain(self.runtime_type(recv))
        mixins, first = (), 0
        if above is not None:
            mixins, first = recv.mixins, mixin_index + 1
        elif isinstance(recv, ObjectV):
            own = recv.own_methods.get(name)
            if own is not None:
                return ("own", own)
            mixins = recv.mixins
        for idx in range(first, len(mixins)):
            mixin_chain = [e for e in self.table.chain(mixins[idx].proto) if e.is_mixin]
            hit = self._search(mixin_chain, shape, name, (mixins[idx], idx))
            if hit is not None:
                return hit
        return self._search(chain, shape, name, None)

    def _search(self, chain, shape, name, mixin):
        """The table's `find_method` over `chain`; a body `addMethod:` gave an
        entry of the chain takes the message if no entry before it has a
        method for it."""
        added = None
        if self.dyn_methods:
            for i, entry in enumerate(chain):
                added = self.dyn_methods.get((entry.name, name))
                if added is not None:
                    chain = chain[:i]
                    break
        hit = self.table.find_method(chain, shape, self.runtime_type, self._param_test)
        if hit is not None:
            m, owner, tree = hit
            # a builtin grammar method (the catch family) reads the message itself
            plan = None if tree is None or m.builtin is not None \
                else plan_packing(m.regex, tree)
            return ("static", (m, owner, mixin, plan))
        return None if added is None else ("own", added)

    def _param_test(self, m, _owner_entry):
        """The run-time parameter test: a mixin's stub never takes a message,
        and nil takes no builtin's parameter of a final type of the builtin
        world, since the handler reads the argument's value."""
        if m.is_stub:
            return None
        return self.reaches if m.builtin is None else self._builtin_param_takes

    def _builtin_param_takes(self, s, t):
        # a grammar builtin's parameter (`println:`'s) names no entry
        entry = self.table.get(t)
        return self.reaches(s, t) and (s != "Nil" or entry is None
                                       or not (entry.builtin and entry.is_final))

    def invoke(self, m, recv, shape, owner_entry, mixin_obj, plan, refs=None):
        args = [a for _s, aa in shape for a in aa]
        bound = self.bound_values.get(m) if self.bound_values else None
        if type(recv) is ObjectV and recv.own_methods:
            bound = recv.own_methods.get(m, bound)
        if m.builtin is not None and bound is None:
            return bi.call(self, m, recv, args, shape)
        if m.ctx_marker is not None:
            return self.call_ctx_native(m, recv, args, refs, owner_entry)
        if bound is not None:
            return self.send(bound, self._eval_shape_for(args, shape))
        decl = m.decl
        if decl is not None and decl.body_expr is not None:
            self.str_exception(f"method '{m.name}' is sent before its value is set")
        if m.is_abstract or decl is None or decl.body is None:
            exc = "ExceptionCannotCallInterfaceMethod" if owner_entry.is_interface \
                else "ExceptionCannotCallAbstractMethod"
            self.throw_name(exc, f"{owner_entry.name}::{m.name}")
        if m.kind == "grammar":
            args = [self.execute_plan(plan, recv, owner_entry, args)]
        return decl.code(self, m, recv, args, shape, mixin_obj)

    # -- context-object natives ------------------------------------------------------------

    def ctx_field_name(self, entry, cp):
        if cp.mode == "%" and cp.qualifier in ("public", "protected"):
            return "_" + cp.name
        return cp.name

    def call_ctx_native(self, m, recv, args, refs, owner_entry):
        refs = refs or [(None, None)] * len(args)
        if m.ctx_marker in (CTX_NEW, CTX_NEWOBJECT):
            inst = self.instantiate(owner_entry)
            self.ctx_bind(owner_entry, inst, args, refs)
            return inst
        if m.ctx_marker == CTX_BIND:
            self.ctx_bind(owner_entry, recv, args, refs)
            return NOOBJECT
        raise RuntimeError(m.ctx_marker)

    def ctx_bind(self, entry, inst, args, refs):
        """Bind the context parameters of `inst` to `args`; `refs` holds
        (the cell of a local or None, a variable name or None) per argument."""
        cps = entry.ctx_params
        if not cps:
            # lowered context blocks bind their self object
            if args:
                inst.fields["newSelf$"] = args[0]
            return
        owner_arg = None
        if any(cp.mode == "*" for cp in cps) and len(args) == len(cps) + 1:
            owner_arg = args[-1]
            args = args[:-1]
            refs = refs[:-1]
        for cp, val, (cell, field) in zip(cps, args, refs):
            fname = self.ctx_field_name(entry, cp)
            if cp.mode == "%":
                self.field_write(inst, fname, val)
            elif cp.mode == "&":
                if cell is None:
                    self.str_exception("the argument of a '&' context parameter must be"
                                       " a local variable")
                inst.fields[fname] = cell
            else:  # '*'
                owner = owner_arg
                if owner is None or field is None or field not in owner.fields:
                    self.str_exception("the argument of a '*' context parameter must be"
                                       " an instance variable")
                inst.fields[fname] = FieldProxy(owner, field)

    # -- dynamically added methods ------------------------------------------------------------

    def call_added_method(self, body, recv, shape):
        """body implements ContextObject."""
        args = [a for _s, aa in shape for a in aa]
        bound = self.send(body, [("newObject:", [recv])])
        return self.send(bound, self._eval_shape_for(args, shape))

    @staticmethod
    def _eval_shape_for(args, shape):
        if not args:
            return [("eval", [])]
        return [("eval:", list(args))]

    # -- packing plans ------------------------------------------------------------------------

    def execute_plan(self, plan, recv, owner_entry, args):
        """The argument a grammar method receives: `plan` built from the
        message's flat argument list `args`."""
        op = plan.op
        if op == "arg":
            return args[plan.index]
        if op == "unit":
            return UNIT
        if op == "array":
            return ArrayV(plan.type_name, plan.elem,
                          [self.execute_plan(c, recv, owner_entry, args) for c in plan.children])
        if op == "tuple":
            entry = self.table.get(plan.type_name)
            names = [n for n, _t in entry.tuple_fields]
            vals = [self.execute_plan(c, recv, owner_entry, args) for c in plan.children]
            return TupleV(plan.type_name, names, vals)
        if op == "union":
            entry = self.table.get(plan.type_name)
            names = [n for n, _t in entry.union_fields]
            return UnionV(plan.type_name, names, plan.tag,
                          self.execute_plan(plan.children[0], recv, owner_entry, args))
        if op == "empty_union":
            entry = self.table.get(plan.type_name)
            names = [n for n, _t in entry.union_fields]
            return UnionV(plan.type_name, names, None, None)
        if op == "default":
            owner = self.prototype_object(owner_entry)
            frame = Frame(owner_entry.name, "<default>", owner, owner)
            self.frames.append(frame)
            try:
                return plan.sel.code(self, [None], frame)
            finally:
                self.frames.pop()
        raise RuntimeError(op)

    # -- values the compiled code needs ------------------------------------------------------

    def truthy(self, v):
        if isinstance(v, PrimV) and v.kind == "Boolean":
            return v.v
        self.str_exception("a Boolean value was expected")

    def replace_method(self, value, recv, sig):
        """`recv.{sig} = value`: `value` takes the place of the one method
        `sig` denotes, for `recv` alone when it is no prototype."""
        m = self.resolve_sig(recv, sig)
        if isinstance(recv, ObjectV) and not recv.is_prototype:
            recv.own_methods[m] = value
        else:
            self.bound_values[m] = value
        return value

    def resolve_sig(self, recv, sig):
        """The method `recv.{sig}` denotes: the one with the signature the
        checker resolved, searched from the run-time type of `recv`."""
        rty = self.runtime_type(recv)
        m = self.table.find_signature(rty, sig.name, *sig.resolved)
        if m is None:
            self.str_exception(f"'{rty}' has no method '{sig.name}'")
        if m.builtin == "block_eval":
            self.str_exception("it is illegal to retrieve a primitive 'eval' method")
        return m

    def make_interval(self, lv, rv):
        # the checker gave both ends one discrete basic type and made the
        # entry, but a variable of that type may hold nil
        if not (isinstance(lv, PrimV) and isinstance(rv, PrimV)):
            self.str_exception("an end of an interval is nil")
        kind = lv.kind
        a = ord(lv.v) if kind == "Char" else int(lv.v)
        b = ord(rv.v) if kind == "Char" else int(rv.v)
        if a > b:
            self.str_exception("end < start in interval")
        return IntervalV(f"Interval<{kind}>", kind, a, b)

    # -- block evaluation (the block_eval builtin lands here) --------------------------------------

    def eval_block_value(self, blk, args):
        """Run a block-like value: a block literal's value runs its runner."""
        self.evals += 1
        if self.steps + self.evals > self.max_steps:
            self.out_of_steps()
        if type(blk) is BlockV:
            return blk.decl.code(self, blk, args)
        if isinstance(blk, NativeBlockV):
            return blk.fn(args)
        if isinstance(blk, MethodV):
            m = blk.entry
            if m.kind == "keyword":
                shape = m.keyword_parts(args)
            elif m.kind in ("unary",) or not m.param_types:
                shape = [(m.name, [])]
            else:
                shape = [(m.name, args)]
            owner = self.table.get(m.owner)
            return self.invoke(m, blk.receiver, shape, owner, None, None)
        if isinstance(blk, ObjectV):
            # a context object or prototype used where a block is expected
            return self.send(blk, self._eval_shape_for(args, None))
        raise TypeError(blk)
