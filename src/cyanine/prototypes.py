"""The prototype table: every prototype and interface (prelude, user, and
generic instantiations), their slots, supertype edges, and the subtype oracle.

Canonical type names are strings like 'Person', 'Array<Int>',
'Block<Int><Void>'.  Restricted types (r-block interfaces and prototypes,
restricted context objects) are never subtypes of unrestricted types.
"""

import copy

from . import cyast as A
from .cyast import (GAlt, GOpt, GPlus, GSel, GSeq, GStar, GrammarSig, InterfaceDecl,
                    KeywordSig, MethodDecl, OperatorSig, PrototypeDecl, TypeExpr,
                    UnarySig, VarDecl)
from .desugar import CTX_BIND, CTX_NEW, CTX_NEWOBJECT, Desugarer
from .diagnostics import Reporter
from .grammar_methods import (ArrayOf, Scalar, UTupleOf, UUnionOf, AnyMarker, NoMatch,
                              build_automaton, derive_parameter_type, match_message,
                              method_name_of, validate_signature)

BASIC_TYPES = ("Byte", "Short", "Int", "Long", "Float", "Double", "Char", "Boolean")
INTEGRAL_TYPES = ("Byte", "Short", "Int", "Long")
INTERVAL_TYPES = ("Byte", "Short", "Int", "Long", "Char", "Boolean")


# the builtin prototypes whose values are objects
_OBJECT_BUILTINS = frozenset(("In", "Out", "System"))


def value_class(entry):
    """The name of the class of the run-time values of the prototype `entry`
    for which a send can be fixed (`PrototypeTable.fixed_method`), as the
    guard of a fixed send tests it: "ObjectV" for a prototype declared in
    source and for In, Out and System, "ArrayV", "TupleV" or "UnionV" for
    an array, tuple or union; None for any other (Any, Nil, the basic types,
    String, intervals, blocks and interfaces)."""
    if not entry.builtin or entry.name in _OBJECT_BUILTINS:
        return None if entry.is_interface else "ObjectV"
    if entry.tuple_fields is not None:
        return "TupleV"
    if entry.union_fields is not None:
        return "UnionV"
    return "ArrayV" if entry.name.startswith("Array<") else None


class MethodEntry:
    __slots__ = ("name", "kind", "param_types", "param_names", "return_type", "owner", "decl",
                 "sel_arity", "qualifier", "is_final", "is_abstract", "is_override",
                 "synthetic", "builtin", "regex", "automaton", "derived",
                 "lenient_restricted", "ctx_marker", "ctx_self_field", "is_stub", "indexing")

    def __init__(self, name, kind, param_types, return_type, owner="", decl=None,
                 sel_arity=None, param_names=None, qualifier="public",
                 is_final=False, is_abstract=False, is_override=False,
                 synthetic=False, builtin=None, regex=None):
        self.name = name
        self.kind = kind                      # unary | keyword | operator | grammar
        self.param_types = param_types        # canonical names (flattened)
        self.param_names = param_names or [f"p{i}" for i in range(len(param_types))]
        self.return_type = return_type        # canonical name; 'Void' when absent
        self.owner = owner
        self.decl = decl
        self.sel_arity = sel_arity            # [(selector, nargs), ...] for keyword kind
        self.qualifier = qualifier
        self.is_final = is_final
        self.is_abstract = is_abstract
        self.is_override = is_override
        self.synthetic = synthetic
        self.builtin = builtin                # builtin implementation id
        self.regex = regex                    # grammar methods
        self.automaton = build_automaton(regex) if regex is not None else None
        self.derived = None                   # canonical derived parameter type
        self.lenient_restricted = False       # catch: family accepts r-blocks as Any
        self.ctx_marker = None                # $ctx_new / $ctx_bind / $ctx_newobject
        self.ctx_self_field = None            # context-block eval methods
        self.is_stub = False
        self.indexing = False                 # declared as `[] at: ...`

    def keyword_parts(self, flat):
        """`flat`, one item per parameter of this keyword method, split by
        `sel_arity`: [(selector, its items)], one pair per keyword part."""
        parts, i = [], 0
        for sel, n in self.sel_arity:
            parts.append((sel, flat[i:i + n]))
            i += n
        return parts

    def arity_matches(self, shape):
        if self.kind == "grammar":
            return True
        if self.kind in ("unary", "operator") and len(shape) == 1:
            sel, args = shape[0]
            return len(args) == len(self.param_types)
        if self.kind == "keyword":
            if len(shape) != len(self.sel_arity):
                return False
            return all(s == es and len(a) == en
                       for (s, a), (es, en) in zip(shape, self.sel_arity))
        return False

    def __repr__(self):
        return f"<method {self.owner}::{self.name}({', '.join(self.param_types)})>"


class MethodGroup:
    def __init__(self, name):
        self.name = name
        self.entries = []


class ProtoEntry:
    __slots__ = ("name", "kind", "supertype", "interfaces", "decl", "is_abstract", "is_final",
                 "is_mixin", "mixin_base", "hidden", "builtin", "restricted",
                 "contains_restricted", "methods", "groups", "grammars", "ivars", "shared_vars",
                 "consts", "ctx_params", "visible_vars", "ctx_self_type_name", "init_once",
                 "package", "filename", "tuple_fields", "union_fields", "linked")

    def __init__(self, name, kind, supertype=None, interfaces=(), decl=None):
        self.name = name
        self.kind = kind            # prototype | interface | basic | blockInterface | generated
        self.supertype = supertype
        self.interfaces = list(interfaces)
        self.decl = decl
        self.is_abstract = False
        self.is_final = False
        self.is_mixin = False
        self.mixin_base = None
        self.hidden = False
        self.builtin = decl is None
        self.restricted = False
        self.contains_restricted = False
        self.methods = []           # MethodEntry, textual order
        self.groups = {}            # name -> MethodGroup
        self.grammars = []          # the grammar methods, textual order
        self.ivars = []             # VarDecl, textual order
        self.shared_vars = []
        self.consts = []
        self.ctx_params = []        # CtxParam list (context objects)
        self.visible_vars = {}
        self.ctx_self_type_name = None  # context blocks: the type `self` has
        self.init_once = None
        self.package = ""
        self.filename = "<builtin>"
        self.tuple_fields = None        # Tuple/UTuple: [(field name, type)]
        self.union_fields = None        # Union/UUnion: [(field name, type)]
        self.linked = False

    def add_method(self, m):
        self.methods.append(m)
        self.groups.setdefault(m.name, MethodGroup(m.name)).entries.append(m)
        if m.kind == "grammar":
            self.grammars.append(m)

    @property
    def is_interface(self):
        return self.kind in ("interface", "blockInterface")

    def __repr__(self):
        return f"<proto {self.name}>"


# how deep type arguments may nest in an instance of a generic type
MAX_TYPE_NESTING = 32


def _nesting(canonical):
    """How deep the type arguments of the canonical name nest."""
    depth = deepest = 0
    for ch in canonical:
        if ch == "<":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ">":
            depth -= 1
    return deepest


def render_generic(base, groups):
    out = base
    for g in groups:
        out += "<" + ", ".join(g) + ">"
    return out


def split_generic(canonical):
    """'Block<Int, Char><Void>' -> ('Block', [['Int','Char'], ['Void']])."""
    if "<" not in canonical:
        return canonical, []
    base = canonical[:canonical.index("<")]
    groups = []
    depth = 0
    cur = []
    buf = ""
    for ch in canonical[len(base):]:
        if ch == "<":
            depth += 1
            if depth == 1:
                cur = []
                buf = ""
                continue
        elif ch == ">":
            depth -= 1
            if depth == 0:
                cur.append(buf.strip())
                groups.append(cur)
                buf = ""
                continue
        elif ch == "," and depth == 1:
            cur.append(buf.strip())
            buf = ""
            continue
        buf += ch
    return base, groups


class PrototypeTable:
    def __init__(self, reporter=None, shared=None):
        """A table of the builtin entries; or, given a finished `shared` table,
        an overlay that starts with its entries and templates and adds to its
        own maps only, so that `shared` and its entries are never written."""
        self.reporter = reporter if reporter is not None else Reporter()
        self.shared = shared
        self._reach_memo = {}
        self._chain_memo = {}
        self._fixed_memo = {}   # see `fixed_method`
        self._code_at_init = None   # see `code_at_init`
        self.check_queue = []   # entries whose bodies still need checking
        if shared is not None:
            self.entries = dict(shared.entries)
            self.templates = {key: list(recs) for key, recs in shared.templates.items()}
            self.children = {name: list(subs) for name, subs in shared.children.items()}
            return
        self.entries = {}
        self.children = {}      # name -> the linked prototypes that extend it
        self.templates = {}     # (base, arity-tuple) -> list of template records
        self.register_prelude_builtins()

    # -- entry helpers -----------------------------------------------------------

    def get(self, name):
        return self.entries.get(name)

    def add_entry(self, entry):
        self.entries[entry.name] = entry
        self._edges_changed()
        return entry

    def _edges_changed(self):
        """Forget the memoised walks: an entry or one of its edges changed."""
        self._reach_memo.clear()
        self._chain_memo.clear()
        self._code_at_init = None

    def code_at_init(self):
        """The entries, in table order, whose object's initialisation runs
        code of their source: a constant or shared variable, a field's
        initial value anywhere in the chain, a method bound by `fun sig = e`,
        or an `initOnce`.  Memoised until an entry or an edge changes."""
        if self._code_at_init is None:
            self._code_at_init = [
                e for e in self.entries.values() if not e.builtin and (
                    e.consts or e.shared_vars or e.init_once is not None
                    or any(m.decl is not None and m.decl.body_expr is not None
                           for m in e.methods)
                    or any(v.init is not None for a in self.chain(e.name) for v in a.ivars))]
        return self._code_at_init

    def chain(self, name):
        """The prototype plus its supertypes, most-derived first."""
        out = []
        seen = set()
        while name is not None and name not in seen:
            seen.add(name)
            e = self.entries.get(name)
            if e is None:
                break
            out.append(e)
            name = e.supertype
        return out

    # -- subtyping ------------------------------------------------------------------

    def is_restricted(self, name):
        e = self.entries.get(name)
        return bool(e and (e.restricted or e.contains_restricted))

    def is_subtype(self, s, t):
        """Reflexive-transitive closure of extends+implements; nil is a subtype
        of everything; restricted types are not subtypes of unrestricted ones."""
        if s == t or s == "Nil":
            return True
        if self.is_restricted(s) and not self.is_restricted(t):
            return False
        return self.reaches(s, t)

    def reaches(self, s, t):
        """Pure reachability over extends+implements edges, where every type
        reaches Any and nil reaches everything.  The restricted gate of
        `is_subtype` is a compile-time rule; dispatch uses this walk."""
        if s == t or t == "Any" or s == "Nil":
            return True
        key = (s, t)
        memo = self._reach_memo
        if key in memo:
            return memo[key]
        seen = set()
        work = [s]
        result = False
        while work:
            cur = work.pop()
            if cur == t:
                result = True
                break
            if cur in seen:
                continue
            seen.add(cur)
            e = self.entries.get(cur)
            if e is None:
                continue
            if e.supertype:
                work.append(e.supertype)
            work.extend(e.interfaces)
        memo[key] = result
        return result

    def dispatch_chain(self, name):
        """The entries a send to `name` searches, in order: breadth-first over
        the supertype chain and, from interface entries, their
        super-interfaces (method objects are typed by interfaces), then Any
        if the walk did not reach it."""
        memo = self._chain_memo
        if name in memo:
            return memo[name]
        out = []
        seen = set()
        work = [name]
        while work:
            cur = work.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            e = self.entries.get(cur)
            if e is None:
                continue
            out.append(e)
            if e.supertype:
                work.append(e.supertype)
            if e.is_interface:
                work.extend(e.interfaces)
        if out and "Any" not in seen:
            out.append(self.entries["Any"])
        memo[name] = out
        return out

    # -- method search ------------------------------------------------------------------

    def find_method(self, chain, shape, type_of, test):
        """The method that takes the message `shape`, [(selector, [argument,
        ...]), ...], in textual order: for each entry of `chain`, the methods
        of the message's group whose arity fits and whose every parameter
        takes its argument, then the entry's grammar methods whose first
        selector fits and whose automaton matches the message.  `type_of`
        types an argument; `test(m, entry)` is the test (argument type,
        parameter type) -> bool of method `m` of `entry`, or None where `m`
        may not take the message.  Answers (method, owner entry, match tree
        of a grammar method or None), or None."""
        name = "".join(sel for sel, _ in shape)
        types = [type_of(a) for _s, args in shape for a in args]
        first = shape[0][0]
        for entry in chain:
            g = entry.groups.get(name)
            if g is not None:
                for m in g.entries:
                    if m.arity_matches(shape):
                        fits = test(m, entry)
                        if fits is not None and all(fits(a, p)
                                                    for a, p in zip(types, m.param_types)):
                            return m, entry, None
            for m in entry.grammars:
                if m.automaton is not None and first in m.automaton.first:
                    fits = test(m, entry)
                    if fits is not None:
                        try:
                            return m, entry, match_message(m.automaton, shape, type_of, fits)
                        except NoMatch:
                            pass
        return None

    def sub_prototypes(self, name):
        """The linked prototypes whose supertype chain holds `name` below it:
        those declared in source, the world's, the program's and generic
        instances."""
        found, work, seen = [], [name], {name}
        while work:
            for sub in self.children.get(work.pop(), ()):
                if sub.name not in seen:
                    seen.add(sub.name)
                    found.append(sub)
                    work.append(sub.name)
        return found

    def fixed_method(self, name, shape):
        """Class-hierarchy analysis of a send of `shape` to a value of the
        prototype `name`, one whose values a guard can test (`value_class`):
        (method, frozenset of the names of the prototypes the analysis
        allowed, `name` and its `sub_prototypes`) where the candidates of
        the message, every method `find_method` tries, on the dispatch chain
        of `name` come to one method and no entry of a sub-prototype's chain
        down to `name` adds one, so that any receiver of those prototypes
        with no mixin, no method of its own and no `addMethod:` body reaches
        that method, whatever arguments of its parameter types, but nil for
        a builtin, it is sent; else None.  The method is one with a plain
        body, or a builtin, a grammar builtin (`println:`) too, as a builtin
        reads the message itself, where a grammar body needs a packing plan.
        A private overload or a mixin's stub counts as a candidate, as neither
        `find_method` nor `Interp.lookup` tests visibility.  Memoised per
        (prototype, selector and arity) until a prototype is linked."""
        entry = self.entries.get(name)
        if entry is None or value_class(entry) is None:
            return None
        key = name, tuple([(sel, len(args)) for sel, args in shape])
        memo = self._fixed_memo
        if key not in memo:
            memo[key] = self._fixed_method(entry, shape)
        return memo[key]

    def _fixed_method(self, entry, shape):
        name = entry.name
        # the entries of a sub-prototype's chain down to `name` are
        # sub-prototypes too, so one search sees every candidate
        subs, found = self.sub_prototypes(name), set()

        def candidate(m, _entry):
            found.add(m)        # and takes nothing, so the search sees every one
        self.find_method(self.dispatch_chain(name) + subs, shape, lambda t: t,
                         candidate)     # `shape` holds types
        if len(found) != 1:
            return None
        m, = found
        decl = m.decl
        if m.is_abstract or m.is_stub or m.ctx_marker is not None \
                or m.ctx_self_field is not None \
                or m.builtin is None and (m.kind == "grammar" or decl is None
                                          or decl.body is None or decl.body_expr is not None):
            return None
        return m, frozenset([name, *(sub.name for sub in subs)])

    def find_signature(self, type_name, name, param_types, return_type=None):
        """The method `.{sig}` denotes on a receiver of type `type_name`: the
        first on its dispatch chain named `name` with exactly `param_types`
        and, when given, a return type that reaches `return_type` (an
        override may narrow it).  None if there is none."""
        for entry in self.dispatch_chain(type_name):
            g = entry.groups.get(name)
            if g is not None:
                for m in g.entries:
                    if m.param_types == param_types and (
                            return_type is None or self.reaches(m.return_type, return_type)):
                        return m
        return None

    # -- type resolution ---------------------------------------------------------------

    def resolve_type(self, texpr, pos=None, proto=None):
        """TypeExpr -> canonical name, instantiating generics on demand;
        errors at `pos`, or else at `texpr`, but too deep a nesting at `texpr`."""
        if texpr is None:
            return "Void"
        name = texpr.name
        at = texpr.line, texpr.col
        line, col = pos or at
        if not texpr.groups:
            if name in self.entries:
                return name
            if "." in name and name.rsplit(".", 1)[1] in self.entries:
                # package-qualified reference in the single-program model
                return name.rsplit(".", 1)[1]
            self.reporter.error(line, col, f"unknown type '{name}'")
            return "Any"
        if name in ("Tuple", "Union"):
            # odd positions are field names, not types
            group = []
            for i, a in enumerate(texpr.groups[0]):
                group.append(a.name if i % 2 == 0 else self.resolve_type(a, pos, proto))
            return self.instantiate_generic(name, [group], (line, col), at)
        groups = [[self.resolve_type(a, pos, proto) for a in g] for g in texpr.groups]
        return self.instantiate_generic(name, groups, (line, col), at)

    def resolve_canonical(self, canonical, pos=(0, 0)):
        if canonical in self.entries:
            return canonical
        base, groups = split_generic(canonical)
        if not groups:
            self.reporter.error(pos[0], pos[1], f"unknown type '{canonical}'")
            return "Any"
        groups = [[self.resolve_canonical(a, pos) for a in g] for g in groups]
        return self.instantiate_generic(base, groups, pos)

    # -- generic instantiation -----------------------------------------------------------

    def instantiate_generic(self, base, groups, pos, nesting_pos=None):
        """The entry of the instance `base<groups>`, made on its first use.
        Type arguments nest at most MAX_TYPE_NESTING deep, which ends the
        instantiation of a generic prototype whose body names a bigger
        instance of itself, as `G<G<T>>` in `G<:T>` (Kennedy & Pierce's
        expansive recursion); that error is at `nesting_pos`, if given."""
        canonical = render_generic(base, groups)
        if canonical in self.entries:
            return canonical
        if _nesting(canonical) > MAX_TYPE_NESTING:
            line, col = nesting_pos or pos
            self.reporter.error(line, col,
                                f"the type arguments of '{base}' nest deeper than"
                                f" {MAX_TYPE_NESTING} levels")
            return "Any"
        if base in ("Block", "UBlock", "AnyBlock", "AnyUBlock"):
            return self._block_family(base, groups)
        if base == "ContextObject":
            return self._context_object_family(groups)
        if base == "Array":
            return self._array_family(groups, pos)
        if base in ("Tuple", "UTuple"):
            return self._tuple_family(base, groups, pos)
        if base in ("Union", "UUnion"):
            return self._union_family(base, groups, pos)
        if base == "Interval":
            return self._interval_family(groups, pos)
        if base == "Iterable":
            return self._simple_iface(canonical, [
                ("foreach:", "keyword", [self.block_type([groups[0][0]], "Void")], "Void")])
        if base == "IHas":
            return self._simple_iface(canonical, [("has:", "keyword", [groups[0][0]], "Boolean")])
        if base == "InjectObject":
            t = groups[0][0]
            return self._simple_iface(canonical, [
                ("eval:", "keyword", [t], "Void"), ("result", "unary", [], t)])
        return self._instantiate_template(base, groups, pos)

    def _simple_iface(self, canonical, sigs):
        e = ProtoEntry(canonical, "interface", supertype=None, interfaces=["AnyInterface"])
        for name, kind, params, ret in sigs:
            sel = [(name, len(params))] if kind == "keyword" else None
            e.add_method(MethodEntry(name, kind, params, ret, owner=canonical, sel_arity=sel))
        self.add_entry(e)
        return canonical

    def block_type(self, flat_params, ret, restricted=True, groups=None):
        """Canonical block interface; ensures the family entries exist."""
        if groups is None:
            groups = [list(flat_params)] if flat_params else []
        base = "Block" if restricted else "UBlock"
        if not groups or all(not g for g in groups):
            arg_groups = [] if ret == "Void" else [[ret]]
        else:
            arg_groups = [list(g) for g in groups] + [[ret]]
        return self._block_family(base, arg_groups)

    def _block_parts(self, base, groups):
        """groups: parameter groups plus the trailing return group (or empty)."""
        if not groups:
            return [], "Void"
        ret = groups[-1][0] if groups[-1] else "Void"
        params = [list(g) for g in groups[:-1]]
        return params, ret

    def _block_family(self, base, groups):
        canonical = render_generic(base, groups) if groups else base
        # normalize Block<Void> -> Block and friends
        if groups == [["Void"]]:
            canonical = base
            groups = []
        if canonical in self.entries:
            return canonical
        params, ret = self._block_parts(base, groups)
        restricted = base in ("Block", "AnyBlock")
        is_iface = base in ("Block", "UBlock")
        kind = "blockInterface" if is_iface else "prototype"
        e = ProtoEntry(canonical, kind)
        e.restricted = restricted
        self.add_entry(e)     # register first: the method types below recurse
        if is_iface:
            if base == "UBlock":
                e.interfaces = [self._block_family("Block", copy.deepcopy(groups))]
            else:
                e.interfaces = ["AnyInterface"]
        else:
            e.supertype = "Any"
            if base == "AnyUBlock":
                e.supertype = self._block_family("AnyBlock", copy.deepcopy(groups))
                e.interfaces = [self._block_family("UBlock", copy.deepcopy(groups))]
            else:
                e.interfaces = [self._block_family("Block", copy.deepcopy(groups))]
            e.is_abstract = True
        flat = [p for g in params for p in g]
        if not flat:
            e.add_method(MethodEntry("eval", "unary", [], ret, owner=canonical, builtin="block_eval"))
        else:
            sel = [("eval:", len(g)) for g in params if g]
            e.add_method(MethodEntry("eval:" * len(sel), "keyword", flat, ret, owner=canonical,
                                     sel_arity=sel, builtin="block_eval"))
        if not flat and ret == "Boolean":
            blk = self.block_type([], "Void")
            e.add_method(MethodEntry("whileTrue:", "keyword", [blk], "Void", owner=canonical,
                                     sel_arity=[("whileTrue:", 1)], builtin="while_true"))
            e.add_method(MethodEntry("whileFalse:", "keyword", [blk], "Void", owner=canonical,
                                     sel_arity=[("whileFalse:", 1)], builtin="while_false"))
        if not flat and ret == "Void":
            e.add_method(MethodEntry("loop", "unary", [], "Void", owner=canonical, builtin="loop"))
            e.add_method(MethodEntry("repeatUntil:", "keyword", [self.block_type([], "Boolean")],
                                     "Void", owner=canonical,
                                     sel_arity=[("repeatUntil:", 1)], builtin="repeat_until"))
        e.add_method(MethodEntry("hideException", "unary", [], "Void", owner=canonical,
                                 builtin="hide_exception"))
        e.add_method(MethodEntry("retry", "unary", [], "Void", owner=canonical, builtin="retry"))
        catch = self._catch_regex()
        m = MethodEntry(method_name_of(catch), "grammar", ["Any"], ret, owner=canonical,
                        builtin="catch_family", regex=catch)
        m.lenient_restricted = True
        e.add_method(m)
        return canonical

    def literal_block_proto(self, param_groups, ret, restricted):
        """The generated prototype a literal block is an instance of."""
        iface = self.block_type(None, ret, restricted=restricted, groups=param_groups)
        marker = "R" if restricted else "U"
        canonical = f"{marker}BlockProto|{iface}"
        if canonical in self.entries:
            return canonical
        e = ProtoEntry(canonical, "generated")
        e.hidden = True
        e.restricted = restricted
        abase = "AnyBlock" if restricted else "AnyUBlock"
        ibase, igroups = split_generic(iface)
        agroups = [[x for x in g] for g in igroups]
        e.supertype = self._block_family(abase, agroups)
        e.interfaces = [iface]
        self.add_entry(e)
        return canonical

    def _catch_regex(self):
        t = TypeExpr
        blk = t("Block")
        blk_bool = t("Block", [[t("Boolean")]])
        tail = GOpt(GAlt([
            GSel("finally:", ("types", [[blk]])),
            GSel("retry:", ("types", [[blk]])),
            GSel("tryWhileTrue:", ("types", [[blk_bool]])),
            GSel("tryWhileFalse:", ("types", [[blk_bool]])),
        ]))
        return GAlt([
            GSeq([GPlus(GSel("catch:", ("types", [[t("Any")]]))), tail]),
            GSel("finally:", ("types", [[blk]])),
            GSel("retry:", ("types", [[blk]])),
            GSel("tryWhileTrue:", ("types", [[blk_bool]])),
            GSel("tryWhileFalse:", ("types", [[blk_bool]])),
        ])

    def _context_object_family(self, groups):
        canonical = render_generic("ContextObject", groups)
        if canonical in self.entries:
            return canonical
        e = ProtoEntry(canonical, "interface", interfaces=["ContextObject"])
        t = groups[0][0]
        params, ret = self._block_parts("ContextObject", groups[1:])
        ub = self.block_type(None, ret, restricted=False, groups=params)
        e.add_method(MethodEntry("newObject:", "keyword", [t], ub, owner=canonical,
                                 sel_arity=[("newObject:", 1)], builtin="ctx_newobject"))
        self.add_entry(e)
        return canonical

    def _array_family(self, groups, pos):
        if len(groups) != 1 or len(groups[0]) != 1:
            self.reporter.error(pos[0], pos[1], "Array takes exactly one type argument")
            return "Any"
        t = groups[0][0]
        canonical = f"Array<{t}>"
        e = ProtoEntry(canonical, "prototype", supertype="Any",
                       interfaces=[self.instantiate_generic("Iterable", [[t]], pos)])
        e.is_final = True
        if self.is_restricted(t):
            e.contains_restricted = True
        interval = self.instantiate_generic("Interval", [["Int"]], pos)
        blk = self.block_type([t], "Void")
        for m in [
            MethodEntry("new", "unary", [], canonical, builtin="array_new"),
            MethodEntry("new:", "keyword", ["Int"], canonical, sel_arity=[("new:", 1)],
                        builtin="array_new_size"),
            MethodEntry("size", "unary", [], "Int", builtin="array_size"),
            MethodEntry("at:", "keyword", ["Int"], t, sel_arity=[("at:", 1)], builtin="array_at"),
            MethodEntry("at:", "keyword", [interval], canonical, sel_arity=[("at:", 1)],
                        builtin="array_at_interval"),
            MethodEntry("at:put:", "keyword", ["Int", t], "Void",
                        sel_arity=[("at:", 1), ("put:", 1)], builtin="array_at_put"),
            MethodEntry("at:put:", "keyword", [interval, canonical], "Void",
                        sel_arity=[("at:", 1), ("put:", 1)], builtin="array_at_put_interval"),
            MethodEntry("foreach:", "keyword", [blk], "Void", sel_arity=[("foreach:", 1)],
                        builtin="array_foreach"),
        ]:
            m.owner = canonical
            e.add_method(m)
        self.add_entry(e)
        return canonical

    def _tuple_family(self, base, groups, pos):
        canonical = render_generic(base, groups)
        args = groups[0]
        if base == "Tuple":
            if len(args) % 2 != 0 or not args:
                self.reporter.error(pos[0], pos[1],
                                    "Tuple takes an even number of arguments (name, Type, ...)")
                return "Any"
            fields = [(args[i], args[i + 1]) for i in range(0, len(args), 2)]
        else:
            if not 1 <= len(args) <= 16:
                self.reporter.error(pos[0], pos[1], "UTuple takes 1 to 16 type arguments")
                return "Any"
            fields = [(f"f{i + 1}", t) for i, t in enumerate(args)]
        e = ProtoEntry(canonical, "prototype", supertype="Any")
        e.is_final = True
        e.tuple_fields = fields
        if any(self.is_restricted(t) for _, t in fields):
            e.contains_restricted = True
        e.add_method(MethodEntry("new", "unary", [], canonical, owner=canonical,
                                 builtin="tuple_new"))
        for i, (fname, ftype) in enumerate(fields):
            e.add_method(MethodEntry(fname, "unary", [], ftype, owner=canonical,
                                     builtin=("tuple_get", i)))
            e.add_method(MethodEntry(fname + ":", "keyword", [ftype], "Void", owner=canonical,
                                     sel_arity=[(fname + ":", 1)], builtin=("tuple_set", i)))
        if base == "Tuple":
            # hidden positional accessors used by multiple-assignment lowering
            for i, (fname, ftype) in enumerate(fields):
                if fname != f"f{i + 1}":
                    e.add_method(MethodEntry(f"f{i + 1}", "unary", [], ftype, owner=canonical,
                                             builtin=("tuple_get", i)))
        types = {t for _, t in fields}
        if len(types) == 1:
            t = types.pop()
            if t in BASIC_TYPES or t == "String":
                e.interfaces.append(self.instantiate_generic("Iterable", [[t]], pos))
                e.add_method(MethodEntry("foreach:", "keyword", [self.block_type([t], "Void")],
                                         "Void", owner=canonical,
                                         sel_arity=[("foreach:", 1)], builtin="tuple_foreach"))
        self.add_entry(e)
        return canonical

    def _union_family(self, base, groups, pos):
        canonical = render_generic(base, groups)
        args = groups[0]
        if base == "Union":
            if len(args) % 2 != 0 or not args:
                self.reporter.error(pos[0], pos[1],
                                    "Union takes an even number of arguments (name, Type, ...)")
                return "Any"
            fields = [(args[i], args[i + 1]) for i in range(0, len(args), 2)]
        else:
            fields = [(f"f{i + 1}", t) for i, t in enumerate(args)]
        e = ProtoEntry(canonical, "prototype", supertype="Any")
        e.is_final = True
        e.union_fields = fields
        if any(self.is_restricted(t) for _, t in fields):
            e.contains_restricted = True
        e.add_method(MethodEntry("new", "unary", [], canonical, owner=canonical,
                                 builtin="union_new"))
        for i, (fname, ftype) in enumerate(fields):
            e.add_method(MethodEntry(fname, "unary", [], ftype, owner=canonical,
                                     builtin=("union_get", i)))
            e.add_method(MethodEntry(fname + ":", "keyword", [ftype], "Void", owner=canonical,
                                     sel_arity=[(fname + ":", 1)], builtin=("union_set", i)))
        e.add_method(MethodEntry("contains:", "keyword", ["CySymbol"], "Boolean",
                                 owner=canonical, sel_arity=[("contains:", 1)],
                                 builtin="union_contains"))
        e.add_method(MethodEntry("whichOne", "unary", [], "CySymbol", owner=canonical,
                                 builtin="union_which"))
        self.add_entry(e)
        return canonical

    def _interval_family(self, groups, pos):
        t = groups[0][0]
        canonical = f"Interval<{t}>"
        if t not in INTERVAL_TYPES:
            self.reporter.error(pos[0], pos[1],
                                f"Interval cannot hold '{t}' (only discrete basic types)")
            return "Any"
        e = ProtoEntry(canonical, "prototype", supertype="Any",
                       interfaces=[self.instantiate_generic("Iterable", [[t]], pos)])
        e.is_final = True
        for m in [
            MethodEntry("foreach:", "keyword", [self.block_type([t], "Void")], "Void",
                        sel_arity=[("foreach:", 1)], builtin="interval_foreach"),
            MethodEntry("inject:into:", "keyword", [t, self.block_type([t, t], t)], t,
                        sel_arity=[("inject:", 1), ("into:", 1)], builtin="interval_inject"),
            MethodEntry("first", "unary", [], t, builtin="interval_first"),
            MethodEntry("last", "unary", [], t, builtin="interval_last"),
        ]:
            m.owner = canonical
            e.add_method(m)
        self.add_entry(e)
        return canonical

    # -- user templates --------------------------------------------------------------------

    def add_template(self, decl, package):
        key = (decl.name, len(decl.template_params))
        self.templates.setdefault(key, []).append({"decl": decl, "package": package})

    def _instantiate_template(self, base, groups, pos):
        flat = [a for g in groups for a in g]
        key = (base, len(flat))
        records = self.templates.get(key)
        if not records:
            self.reporter.error(pos[0], pos[1],
                                f"unknown generic type '{render_generic(base, groups)}'")
            return "Any"
        canonical = render_generic(base, groups)
        chosen = None
        for rec in records:   # exact concrete declarations win
            tps = rec["decl"].template_params
            if all(not tp.is_formal for tp in tps):
                if [tp.concrete.canonical() for tp in tps] == flat:
                    chosen = rec
                    break
        if chosen is None:
            for rec in records:
                if all(tp.is_formal for tp in rec["decl"].template_params):
                    chosen = rec
                    break
        if chosen is None:
            self.reporter.error(pos[0], pos[1],
                                f"no matching generic declaration for '{canonical}'")
            return "Any"
        decl = copy.deepcopy(chosen["decl"])
        mapping = {}
        for tp, actual in zip(decl.template_params, flat):
            if tp.is_formal:
                if tp.bound is not None:
                    bound = self.resolve_type(tp.bound, pos)
                    if not self.is_subtype(actual, bound):
                        self.reporter.error(pos[0], pos[1],
                                            f"'{actual}' does not satisfy the bound '{bound}'"
                                            f" of generic parameter '{tp.name}'")
                mapping[tp.name] = actual
        _substitute_types(decl, mapping)
        decl.name = canonical
        decl.template_params = []
        # pre-register so recursive references resolve
        self.add_entry(ProtoEntry(canonical, "generated", supertype="Any", decl=decl))
        desugarer = Desugarer([decl], self.reporter)
        for info_name, entry in self.entries.items():
            if entry.decl is not None and entry.ctx_params:
                fake = PrototypeDecl(name=info_name)
                fake.context_params = entry.ctx_params
                desugarer.proto_info.setdefault(info_name, fake)
            if entry.visible_vars:
                desugarer.visible_vars.setdefault(info_name, entry.visible_vars)
        for (tbase, _), recs in self.templates.items():
            if recs:
                desugarer.proto_info.setdefault(tbase, recs[0]["decl"])
        units = desugarer.run()
        del self.entries[canonical]
        with self.reporter.file(decl.filename):
            fresh = []
            for unit in units:
                e = self.register_unit(unit, chosen["package"])
                if e is not None:
                    fresh.append(e)
            # link immediately: the caller is mid-check and needs the methods
            for e in fresh:
                self.link_unit(e, desugarer.visible_vars)
        return canonical

    # -- registering desugared units ----------------------------------------------------------

    def register_unit(self, decl, package="main"):
        if decl.name in self.entries:
            old = self.entries[decl.name]
            self.reporter.error(decl.line, decl.col,
                                f"duplicate prototype name '{decl.name}'"
                                f" (already declared in {old.filename})")
            return None
        if isinstance(decl, InterfaceDecl):
            e = ProtoEntry(decl.name, "interface", decl=decl)
            e.interfaces = []
        else:
            e = ProtoEntry(decl.name, "prototype", decl=decl)
            e.is_abstract = decl.modifier == "abstract"
            e.is_final = decl.modifier == "final"
            e.is_mixin = decl.modifier == "mixin"
            e.mixin_base = decl.mixin_base
            e.hidden = decl.hidden
            e.ctx_params = decl.context_params
        e.package = package
        e.filename = decl.filename
        e.builtin = False
        self.add_entry(e)
        self.check_queue.append(e)
        return e

    def link_unit(self, entry, visible_vars=None):
        """Resolve supertypes, interfaces, and build method entries."""
        if entry.linked:
            return
        entry.linked = True
        decl = entry.decl
        if visible_vars:
            entry.visible_vars = visible_vars.get(entry.name, {})
        pos = (decl.line, decl.col)
        if isinstance(decl, InterfaceDecl):
            supers = [self.resolve_type(t, pos) for t in decl.extends]
            for s in supers:
                se = self.entries.get(s)
                if se is not None and not se.is_interface:
                    self.reporter.error(decl.line, decl.col,
                                        f"interface '{decl.name}' cannot extend"
                                        f" non-interface '{s}'")
            entry.interfaces = [s for s in supers
                                if self.entries.get(s) and self.entries[s].is_interface]
            if not entry.interfaces:
                entry.interfaces = ["AnyInterface"]
            self._edges_changed()
            for sig in decl.sigs:
                m = self.build_method_entry(entry, sig)
                if m is not None:
                    entry.add_method(m)
            return
        if decl.extends is not None:
            s = self.resolve_type(decl.extends, pos)
            se = self.entries.get(s)
            if se is not None and se.is_interface and not entry.is_mixin:
                self.reporter.error(decl.line, decl.col,
                                    f"prototype '{decl.name}' cannot extend interface '{s}'")
                s = "Any"
            elif se is not None and se.is_final:
                self.reporter.error(decl.line, decl.col,
                                    f"error in the inheritance of the final prototype"
                                    f" '{s}' by '{decl.name}'")
            if entry in self.chain(s):
                # the declaration that closes the cycle; Any takes its place,
                # so that every walk of the supertypes ends
                self.reporter.error(decl.line, decl.col,
                                    f"cyclic inheritance: '{decl.name}' extends " + (
                                        "itself" if s == decl.name else
                                        f"'{s}', which inherits from '{decl.name}'"))
                s = "Any"
            entry.supertype = s
        elif not entry.is_mixin:
            entry.supertype = "Any"
        entry.interfaces = [self.resolve_type(t, pos) for t in decl.implements]
        self._edges_changed()
        if entry.supertype is not None:
            self.children.setdefault(entry.supertype, []).append(entry)
            self._fixed_memo.clear()
        if entry.ctx_params:
            entry.restricted = any(cp.mode == "&" for cp in entry.ctx_params)
        for slot in decl.slots:
            if isinstance(slot, VarDecl):
                if slot.type is not None:
                    slot.resolved_type = self.resolve_type(slot.type, (slot.line, slot.col))
                else:
                    slot.resolved_type = None
                if slot.is_const:
                    entry.consts.append(slot)
                elif slot.is_shared:
                    entry.shared_vars.append(slot)
                else:
                    entry.ivars.append(slot)
            elif isinstance(slot, MethodDecl):
                if isinstance(slot.sig, UnarySig) and slot.sig.name == "initOnce":
                    entry.init_once = slot
                m = self.build_method_entry(entry, slot)
                if m is not None:
                    entry.add_method(m)
        if decl.is_ctx_block:
            self._link_ctx_block(entry, decl)

    def _link_ctx_block(self, entry, decl):
        """Give a lowered context block its UBlock and ContextObject interfaces."""
        entry.ctx_self_type_name = self.resolve_type(decl.ctx_self_type,
                                                     (decl.line, decl.col))
        ev = None
        for m in entry.methods:
            if m.ctx_self_field is not None:
                ev = m
        if ev is None:
            return
        groups = [group for _sel, group in ev.keyword_parts(ev.param_types)] \
            if ev.kind == "keyword" else []
        ub = self.block_type(None, ev.return_type, restricted=False, groups=groups)
        t = entry.ctx_self_type_name
        co_groups = [[t]] + [list(g) for g in groups] + [[ev.return_type]]
        co = self._context_object_family(co_groups)
        entry.interfaces = [ub, co, "ContextObject"]
        self._edges_changed()
        # newObject: returns the matching UBlock
        g = entry.groups.get("newObject:")
        if g is not None:
            for m in g.entries:
                m.return_type = ub

    def build_method_entry(self, entry, decl):
        sig = decl.sig
        pos = (decl.line, decl.col)
        ret = self.resolve_type(decl.return_type, pos) if decl.return_type is not None else "Void"
        if isinstance(sig, UnarySig):
            m = MethodEntry(sig.name, "unary", [], ret, owner=entry.name, decl=decl)
        elif isinstance(sig, OperatorSig):
            ptypes = [self.resolve_type(sig.param.type, pos)] if sig.param else []
            pnames = [sig.param.name] if sig.param else []
            m = MethodEntry(sig.name, "operator", ptypes, ret, owner=entry.name, decl=decl,
                            param_names=pnames)
        elif isinstance(sig, KeywordSig):
            ptypes = []
            pnames = []
            sel = []
            for part in sig.parts:
                sel.append((part.selector, len(part.params)))
                for p in part.params:
                    ptypes.append(self.resolve_type(p.type, pos) if p.type else "Any")
                    pnames.append(p.name)
            m = MethodEntry(sig.name, "keyword", ptypes, ret, owner=entry.name, decl=decl,
                            sel_arity=sel, param_names=pnames)
            m.indexing = sig.indexing
        elif isinstance(sig, GrammarSig):
            regex = self._resolve_regex_types(sig.regex, pos)
            validate_signature(sig, self.reporter)
            name = method_name_of(regex)
            m = MethodEntry(name, "grammar", [sig.param_name], ret, owner=entry.name,
                            decl=decl, regex=regex, param_names=[sig.param_name])
            derived = derive_parameter_type(regex)
            m.derived = self._resolve_derived(derived, pos)
            if sig.param_type is not None:
                declared = self.resolve_type(sig.param_type, pos)
                if declared != m.derived:
                    self.reporter.error(decl.line, decl.col,
                                        f"declared parameter type '{declared}' differs from"
                                        f" the derived type '{m.derived}'")
        else:
            return None
        m.qualifier = decl.qualifier
        m.is_final = decl.is_final
        m.is_abstract = decl.is_abstract
        m.is_override = decl.is_override
        m.synthetic = decl.synthetic
        m.is_stub = decl.is_stub
        m.ctx_self_field = decl.ctx_self_field
        if decl.body and isinstance(decl.body[0], A.ExprStat) \
                and isinstance(decl.body[0].expr, A.NameRef) \
                and decl.body[0].expr.name in (CTX_NEW, CTX_BIND, CTX_NEWOBJECT):
            m.ctx_marker = decl.body[0].expr.name
        return m

    def _resolve_regex_types(self, node, pos):
        """Resolve every type in the regex to canonical form (in place)."""
        if isinstance(node, GSel):
            spec = node.argspec
            if spec[0] == "types":
                for alts in spec[1]:
                    for t in alts:
                        t.resolved = self.resolve_type(t, pos)
            elif spec[0] in ("star", "plus"):
                for t in spec[1]:
                    t.resolved = self.resolve_type(t, pos)
            elif spec[0] == "default":
                spec[1].resolved = self.resolve_type(spec[1], pos)
            return node
        if isinstance(node, (GSeq, GAlt)):
            for item in node.items:
                self._resolve_regex_types(item, pos)
            return node
        if isinstance(node, (GStar, GPlus, GOpt)):
            self._resolve_regex_types(node.item, pos)
            return node
        return node

    def _resolve_derived(self, derived, pos):
        """Resolve the derived type tree to a canonical name, creating the
        Array/UTuple/UUnion entries it mentions."""
        if isinstance(derived, (Scalar, AnyMarker)):
            return self.resolve_canonical(derived.canonical(), pos)
        if isinstance(derived, ArrayOf):
            elem = self._resolve_derived(derived.elem, pos)
            return self.instantiate_generic("Array", [[elem]], pos)
        if isinstance(derived, UTupleOf):
            fields = [self._resolve_derived(f, pos) for f in derived.fields]
            return self.instantiate_generic("UTuple", [fields], pos)
        if isinstance(derived, UUnionOf):
            fields = [self._resolve_derived(f, pos) for f in derived.fields]
            return self.instantiate_generic("UUnion", [fields], pos)
        raise ValueError(derived)

    # -- prelude ---------------------------------------------------------------------------

    def register_prelude_builtins(self):
        add = self.add_entry
        any_e = ProtoEntry("Any", "prototype")
        self._fill_any(any_e)
        add(any_e)
        add(ProtoEntry("AnyInterface", "prototype", supertype="Any"))
        nil_e = ProtoEntry("Nil", "prototype", supertype="Any")
        nil_e.is_final = True
        add(nil_e)
        void_e = ProtoEntry("Void", "basic", supertype="Any")
        void_e.is_final = True
        add(void_e)
        for t in BASIC_TYPES:
            e = ProtoEntry(t, "basic", supertype="Any")
            e.is_final = True
            self._fill_basic(e)
            add(e)
        s = ProtoEntry("String", "prototype", supertype="Any")
        s.is_final = True
        self._fill_string(s)
        add(s)
        sym = ProtoEntry("CySymbol", "prototype", supertype="String")
        sym.is_final = True
        add(sym)
        co = ProtoEntry("ContextObject", "interface", interfaces=["AnyInterface"])
        add(co)
        self._fill_io()
        # base block shapes exist from the start
        self._block_family("Block", [])
        self._block_family("UBlock", [])
        self._block_family("AnyBlock", [])
        self._block_family("AnyUBlock", [])

    def _fill_any(self, e):
        B = MethodEntry
        blk = "Block"
        ms = [
            B("ifNil:", "keyword", ["Any"], "Any", sel_arity=[("ifNil:", 1)], builtin="if_nil"),
            B("isNil", "unary", [], "Boolean", is_final=True, builtin="is_nil"),
            B("notNil", "unary", [], "Boolean", is_final=True, builtin="not_nil"),
            B("eq:", "keyword", ["Any"], "Boolean", sel_arity=[("eq:", 1)],
              is_final=True, builtin="eq"),
            B("neq:", "keyword", ["Any"], "Boolean", sel_arity=[("neq:", 1)],
              is_final=True, builtin="neq"),
            B("cast:", "keyword", ["Any"], "Any", sel_arity=[("cast:", 1)],
              is_final=True, builtin="cast"),
            B("prototype", "unary", [], "Any", is_final=True, builtin="prototype"),
            B("prototypeName", "unary", [], "String", is_final=True, builtin="prototype_name"),
            B("parent", "unary", [], "Any", is_final=True, builtin="parent"),
            B("isInterface", "unary", [], "Boolean", is_final=True, builtin="is_interface"),
            B("isA:", "keyword", ["Any"], "Boolean", sel_arity=[("isA:", 1)],
              is_final=True, builtin="is_a"),
            B("throw:", "keyword", ["CyException"], "Void", sel_arity=[("throw:", 1)],
              is_final=True, builtin="throw"),
            B("hashCode", "unary", [], "Int", builtin="hash_code"),
            B("clone", "unary", [], "Any", builtin="clone"),
            B("primitiveNew", "unary", [], "Any", qualifier="private",
              builtin="primitive_new"),
            B("asString", "unary", [], "String", builtin="as_string"),
            B("==", "operator", ["Any"], "Boolean", builtin="eq_op"),
            B("!=", "operator", ["Any"], "Boolean", builtin="neq_op"),
            B("assert:", "keyword", ["Boolean"], "Void", sel_arity=[("assert:", 1)],
              builtin="assert"),
            B("print", "unary", [], "Void", builtin="print"),
            B("defaultValue", "unary", [], "Any", builtin="default_value"),
            B("attachMixin:", "keyword", ["Any"], "Void", sel_arity=[("attachMixin:", 1)],
              builtin="attach_mixin"),
            B("popMixin", "unary", [], "Boolean", builtin="pop_mixin"),
            B("doesNotUnderstand:", "keyword", ["CySymbol", "Array<Any>"], "Void",
              sel_arity=[("doesNotUnderstand:", 2)], builtin="does_not_understand"),
        ]
        t = TypeExpr
        selector_rx = GPlus(GSeq([
            GSel("selector:", ("types", [[t("String")]])),
            GOpt(GSel("param:", ("plus", [t("Any")]))),
        ]))
        ms.append(B(method_name_of(selector_rx), "grammar", ["t"], "Any",
                    builtin="selector_param", regex=selector_rx))
        add_method_rx = GSeq([
            GSel("addMethod:", ("none",)),
            GPlus(GSeq([GSel("selector:", ("types", [[t("String")]])),
                        GOpt(GSel("param:", ("plus", [t("Any")])))])),
            GOpt(GSel("returnType:", ("types", [[t("Any")]]))),
            GSel("body:", ("types", [[t("ContextObject")]])),
        ])
        ms.append(B(method_name_of(add_method_rx), "grammar", ["t"], "Void",
                    builtin="add_method", regex=add_method_rx))
        switch_rx = GSeq([
            GSel("switch:", ("none",)),
            GPlus(GSeq([GSel("case:", ("plus", [t("Any")])),
                        GSel("do:", ("types", [[t("Block")]]))])),
            GOpt(GSel("else:", ("types", [[t("Block")]]))),
        ])
        sw = B(method_name_of(switch_rx), "grammar", ["t"], "Void",
               builtin="switch", regex=switch_rx)
        ms.append(sw)
        for m in ms:
            m.owner = "Any"
            e.add_method(m)

    def _fill_basic(self, e):
        B = MethodEntry
        t = e.name
        ms = []
        if t in ("Float", "Double") or t in INTEGRAL_TYPES:
            for op in ("+", "-", "*", "/", "%"):
                ms.append(B(op, "operator", [t], t, builtin=("arith", op)))
            ms.append(B("-", "operator", [], t, builtin="negate"))
            ms.append(B("+", "operator", [], t, builtin="unary_plus"))
        if t in INTEGRAL_TYPES:
            for op in ("&", "|", "~|"):
                ms.append(B(op, "operator", [t], t, builtin=("bitop", op)))
            ms.append(B("~", "operator", [], t, builtin="bitnot"))
            for op in ("<.<", ">.>", ">.>>"):
                ms.append(B(op, "operator", [t], t, builtin=("shift", op)))
        if t == "Boolean":
            ms.append(B("&&", "operator", ["Boolean"], "Boolean", builtin="bool_and"))
            ms.append(B("||", "operator", ["Boolean"], "Boolean", builtin="bool_or"))
            ms.append(B("&&", "operator", [self.block_type([], "Boolean")], "Boolean",
                        builtin="bool_and_block"))
            ms.append(B("||", "operator", [self.block_type([], "Boolean")], "Boolean",
                        builtin="bool_or_block"))
            ms.append(B("&", "operator", ["Boolean"], "Boolean", builtin="bool_and"))
            ms.append(B("|", "operator", ["Boolean"], "Boolean", builtin="bool_or"))
            ms.append(B("!", "operator", [], "Boolean", builtin="bool_not"))
            blk = "Block"
            ms.append(B("ifTrue:", "keyword", [blk], "Void", sel_arity=[("ifTrue:", 1)],
                        builtin="if_true"))
            ms.append(B("ifFalse:", "keyword", [blk], "Void", sel_arity=[("ifFalse:", 1)],
                        builtin="if_false"))
            ms.append(B("ifTrue:ifFalse:", "keyword", [blk, blk], "Void",
                        sel_arity=[("ifTrue:", 1), ("ifFalse:", 1)], builtin="if_true_false"))
            ms.append(B("ifFalse:ifTrue:", "keyword", [blk, blk], "Void",
                        sel_arity=[("ifFalse:", 1), ("ifTrue:", 1)], builtin="if_false_true"))
            ms.append(B("T:F:", "keyword", ["Any", "Any"], "Any",
                        sel_arity=[("T:", 1), ("F:", 1)], builtin="t_f"))
            ms.append(B("F:T:", "keyword", ["Any", "Any"], "Any",
                        sel_arity=[("F:", 1), ("T:", 1)], builtin="f_t"))
        for op in ("<", "<=", ">", ">="):
            ms.append(B(op, "operator", [t], "Boolean", builtin=("cmp", op)))
        ms.append(B("==", "operator", [t], "Boolean", builtin=("cmp", "==")))
        ms.append(B("!=", "operator", [t], "Boolean", builtin=("cmp", "!=")))
        for target in ("Byte", "Short", "Int", "Long", "Float", "Double", "Char", "Boolean"):
            if target != t:
                ms.append(B("as" + target, "unary", [], target, builtin=("convert", target)))
        ms.append(B("asString", "unary", [], "String", builtin="as_string"))
        if t in ("Byte", "Short", "Int", "Long", "Char"):
            blk0 = "Block"
            blk1 = self.block_type([t], "Void")
            ms.append(B("to:do:", "keyword", [t, blk0], "Void",
                        sel_arity=[("to:", 1), ("do:", 1)], builtin="to_do"))
            ms.append(B("to:do:", "keyword", [t, blk1], "Void",
                        sel_arity=[("to:", 1), ("do:", 1)], builtin="to_do"))
            ms.append(B("repeat:", "keyword", [blk0], "Void", sel_arity=[("repeat:", 1)],
                        builtin="repeat"))
            ms.append(B("repeat:", "keyword", [blk1], "Void", sel_arity=[("repeat:", 1)],
                        builtin="repeat"))
            if t != "Char":
                ms.append(B("to:inject:into:", "keyword",
                            [t, t, self.block_type([t, t], t)], t,
                            sel_arity=[("to:", 1), ("inject:", 1), ("into:", 1)],
                            builtin="to_inject_into"))
        if t not in ("Float", "Double"):
            it = self.instantiate_generic("Iterable", [[t]], (0, 0))
            ms.append(B("in:", "keyword", [it], "Boolean", sel_arity=[("in:", 1)],
                        builtin="in_iterable"))
            if t in INTERVAL_TYPES:
                # made once in the world, not per program that writes `..`
                self.instantiate_generic("Interval", [[t]], (0, 0))
        if t == "Char":
            ms.append(B("asUppercase", "unary", [], "Char", builtin="char_upper"))
            ms.append(B("asLowercase", "unary", [], "Char", builtin="char_lower"))
        for m in ms:
            m.owner = t
            e.add_method(m)

    def _fill_string(self, e):
        B = MethodEntry
        ms = [
            B("+", "operator", ["Any"], "String", builtin="string_concat"),
            B("size", "unary", [], "Int", builtin="string_size"),
            B("asInt", "unary", [], "Int", builtin="string_as_int"),
            B("asString", "unary", [], "String", builtin="as_string"),
            B("in:", "keyword", [self.instantiate_generic("Iterable", [["String"]], (0, 0))],
              "Boolean", sel_arity=[("in:", 1)], builtin="in_iterable"),
        ]
        for m in ms:
            m.owner = "String"
            e.add_method(m)

    def _fill_io(self):
        B = MethodEntry
        in_e = ProtoEntry("In", "prototype", supertype="Any")
        for name, ret, b in [("readInt", "Int", "read_int"),
                             ("readFloat", "Float", "read_float"),
                             ("readDouble", "Double", "read_double"),
                             ("readChar", "Char", "read_char"),
                             ("readString", "String", "read_string"),
                             ("readLine", "String", "read_line")]:
            m = B(name, "unary", [], ret, builtin=b)
            m.owner = "In"
            in_e.add_method(m)
        self.add_entry(in_e)
        out_e = ProtoEntry("Out", "prototype", supertype="Any")
        t = TypeExpr
        println_rx = GSel("println:", ("star", [t("Any")]))
        print_rx = GSel("print:", ("star", [t("Any")]))
        m1 = B(method_name_of(println_rx), "grammar", ["t"], "Void",
               builtin="println", regex=println_rx)
        m2 = B(method_name_of(print_rx), "grammar", ["t"], "Void",
               builtin="print_out", regex=print_rx)
        for m in (m1, m2):
            m.owner = "Out"
            out_e.add_method(m)
        self.add_entry(out_e)
        sys_e = ProtoEntry("System", "prototype", supertype="Any")
        for name, params, ret, b in [("exit", [], "Void", "sys_exit"),
                                     ("exit:", ["Int"], "Void", "sys_exit_code"),
                                     ("gc", [], "Void", "sys_gc"),
                                     ("currentTime", [], "Long", "sys_time"),
                                     ("printMethodStack", [], "Void", "sys_stack")]:
            kind = "keyword" if name.endswith(":") else "unary"
            sel = [(name, len(params))] if kind == "keyword" else None
            m = B(name, kind, params, ret, sel_arity=sel, builtin=b)
            m.owner = "System"
            sys_e.add_method(m)
        self.add_entry(sys_e)


def _substitute_types(node, mapping):
    """Textual substitution of generic formals by actual type names."""
    for n in A.walk(node):
        if isinstance(n, TypeExpr):
            if n.name in mapping and not n.groups:
                n.name = mapping[n.name]
            elif n.name in mapping:
                base, groups = split_generic(mapping[n.name])
                n.name = mapping[n.name] if not groups else base
        elif isinstance(n, A.NameRef) and n.name in mapping:
            n.name = mapping[n.name]
        elif isinstance(n, A.GenericRef) and n.name in mapping:
            n.name = mapping[n.name]
    return node
