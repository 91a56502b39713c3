"""The compile step: after the checker, every body the interpreter runs
becomes Python code, once, left in the `code` note of the node that owns
the body.  A method's code is its adapter, (interp, m, recv, args, shape,
mixin=None), a block's its runner, (interp, block value, args); all other
code takes (interp, env, frame).  No code holds run-time state, so the
world's code serves every program and interpreter.  A tree's code answers
True when a return ended it (the value is in `frame.result`).

A method with a plain body but a context block's body compiles to one
function, `fn(interp, recv, a0, ..., owner=None, index=None)`, in the
`fn` note of its decl: it pushes the method's frame, with the depth
check, runs the body and pops the frame, and a `return` is a Python
`return`; it catches a ReturnSignal only where a block of its body holds
a `return` (as in Chambers & Ungar's customization, PLDI 1989).  Its
adapter calls it with the arguments in place for its arity, and refits
other arguments or a mixin object and its index (`_refit`), which
`Interp.lookup` pairs with a method of a mixin entry found on an object
the mixin is attached to; `owner`'s fields are those the body reads.  A
context block's body, whose self is the object its context object is
bound to, has only a runner that makes an env (`_method_runner`); no
fixed send reaches one.

A local that no block, %-snapshot or context object's `new:` or `bind:`
can see (`block_analysis`, the `cells` notes) is a Python variable of its
tree; so is such a parameter of a method's function (Stadler, Wurthinger &
Mossenbock's scalar replacement, CGO 2014).  Every other local lives in an
env, a list [parent env, cell, ...]: one per activation of a method or
block that has such a local, per `if`/`while` body that declares one, per
`let`, and per <init>, <fields> or <default> frame; its address is
(depth, slot).  Its cell dies when its env is left, and a block that
outlives the env reads it as a dead cell; a cell of an env the running
tree holds cannot die while it runs, so the tree reads it with no test.

Every body is a *tree*: one Python function, generated from source
(`_Tree`) by a factory made once per process for each source text, the
tree's *shape* (`_factory`).  Every value the source reads, from methods and
site numbers to literals, is a parameter of the factory, so programs that
differ only in those share their shapes.  A tree generates every node, each
a line or a few of Python in the order in which the nodes run: a field read
is `interp.field_read(frame.fields_owner, K3)`, an array literal
`ArrayV(K1, K2, [v1, v2])`, a block literal a `BlockV` with the snapshot of
its %-variables, a `let` an env of its own whose cell dies in a `finally`.
Only the adapters and runners, the factories, and a subtree for a node
nested deeper than Python allows (`_Tree.deep`) are closures; a subtree
sees only cells, so a body whose tree would split where it sees a Python
variable compiles again with every local in a cell.  Measured in one
process, the 80 corpus programs compile to 598 method functions and 101
other trees in 166 shapes; when every body was a tree of (interp, env,
frame), they were 699 trees in 160 shapes.  Three kinds of send are
generated in full:

- A proven send, one the checker resolved to a builtin for a receiver and
  at most one argument of basic types (`Int`, `Boolean`, `Char`, ..., all
  final), keeps the checks of the send path: while its operands have the
  kinds the checker proved (not nil) and its method is neither replaced
  nor overtaken by an `addMethod:` body, it counts its step and applies the
  builtin, `+ - *` and the comparisons inline; else it goes to
  `Interp.send`, uncached.
- A literal loop, a whileTrue:, whileFalse: or repeatUntil: send of two
  block literals with no parameter or %-variable, whose blocks declare no
  local, runs the two bodies in a Python loop, with no block value and one
  frame for the whole loop, and counts and checks each evaluation as the
  block runner does.  While its method is replaced, or an `addMethod:`
  body might take the message, it sends the two block values through its
  site.  Where the test is a comparison and the two bodies hold only
  proven sends that run inline, local reads and stores and shared
  literals, each turn first tries a fast turn (`_Turn`): one test of its
  methods, one of the budget for all its steps and evaluations, and one
  kind test per local it reads; then it computes in Python variables,
  with a range test per sum, difference and product, and only then counts
  and writes the cells.  A failed test runs the turn the per-send way from
  its start, which a short budget, an overflow, a changed kind and a
  replaced method need, as only that way ends where the send path does.
- A fixed send, a send that the checker's class-hierarchy analysis binds
  to one method with a plain body or to one builtin, a grammar builtin
  such as `Out println:` too, whose handler reads the message itself
  (`PrototypeTable.fixed_method`, as in Dean, Grove & Chambers, ECOOP
  1995), guards what the run can still change: while its receiver is a
  value of a prototype the analysis allowed, and the method has no bound
  value and no `addMethod:` body may take the message, it counts its step
  and calls the method's function with the arguments in place, or the
  builtin's handler, `bi.handler(m)(interp, m, recv, args, shape)`, with
  no cache key, no cache, no packing plan and no `Interp.invoke`; else it
  probes its site's cache as below.  For an object receiver (of a
  program's prototype, or `In`, `Out` or `System`) the guard tests its
  prototype and that it has no mixin attached and no method of its own;
  for an array, tuple or union (`prototypes.value_class`), its Python type
  and its `type_name`.  A builtin's guard also tests that no argument is
  nil, which the run's lookup lets into no final builtin parameter.  A
  block receiver, a receiver of a basic type, String or an interval, and a
  grammar method with a body are never fixed.  The allowed prototypes are
  a guard and not an assumption, as the world's bodies serve programs
  that add sub-prototypes to its prototypes.

Every other send but an interval gets a site number, the index of its
inline cache, and so does a fixed send: the tree evaluates its receiver and
arguments, then probes the cache (`_probe`); on a hit it counts the step
and calls the cached handler, and everything else goes to `Interp.send`.
A `super` send is such a site too (`_super`), whose search starts above the
entry whose body holds it, wherever in that body it runs.
"""

import functools

from . import builtins as bi
from .block_analysis import BINDERS
from .cyast import *
from .grammar_methods import all_nodes
from .prototypes import BASIC_TYPES, split_generic, value_class
from .values import (FALSE, FRESH_LITERALS, NIL, NOOBJECT, TRUE, ArrayV, BlockV, Cell,
                     MethodV, ObjectV, PrimV, TupleV, UnionV)


new = object.__new__


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
        self.ctx = self if block_ctx is None else block_ctx
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
    """The compile-time view of one env: the slot of each name, or the
    Python variable of a name that no block can see.  A scope without an env
    (`env` False) holds only such variables."""
    __slots__ = ("parent", "slots", "size", "dying", "env")

    def __init__(self, parent, env=True):
        self.parent = parent
        self.slots = {}
        self.size = 0
        self.dying = []     # the slots whose cells die when the env is left
        self.env = env

    def declare(self, name, dies=True, var=None):
        if var is not None:
            self.slots[name] = var
            return
        self.size += 1
        self.slots[name] = self.size
        if dies:
            self.dying.append(self.size)


class _TooDeep(Exception):
    """A tree would split where it sees a local in a Python variable
    (`_Tree.split`)."""


class Compiler:
    """`tree` compiles a body, or one node, to a tree."""

    def __init__(self, table, first_site):
        self.table = table
        self.sites = first_site
        self.scope = _Scope(None)
        self.in_block = False       # whether a `return` runs in a block frame
        self.owner = None           # the entry whose bodies compile
        self.block_bodies = {}      # id of a block literal -> what `block` answers
        self.split_bodies = set()   # ids of the statements of bodies that split

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
                if m.ctx_self_field is not None:
                    body, scope = self.activation(None, m.param_names, (), decl.body,
                                                  decl.cells)
                    decl.code = _method_runner(entry, m, body, scope)
                else:
                    (decl.fn, decl.code), _scope = self.activation(
                        None, m.param_names, (), decl.body, decl.cells, (entry.name, m.name))
            elif decl.body_expr is not None:
                decl.code = self.value(decl.body_expr)
            if m.kind == "grammar":
                for node in all_nodes(m.regex):
                    if isinstance(node, GSel) and node.argspec[0] == "default":
                        node.code = self.value(node.argspec[2])

    def value(self, e):
        """The code of `e`, run in a frame of its own with an empty env."""
        self.scope, self.in_block = _Scope(None), False
        return self.tree(e)

    def address(self, name):
        """(depth, slot) of a local, the depth counting envs; a local in a
        Python variable has that variable's name for its slot."""
        depth, scope = 0, self.scope
        while scope is not None:
            slot = scope.slots.get(name)
            if slot is not None:
                return depth, slot
            if scope.env:
                depth += 1
            scope = scope.parent
        return None

    def local(self, name):
        """The address of a local the checker bound."""
        address = self.address(name)
        if address is None:
            raise RuntimeError(f"the local '{name}' has no slot")
        return address

    def new_site(self, node):
        """The site number of the send `node`, given on its first compile:
        a literal loop's bodies compile twice, inline and for its site."""
        if node.site is None:
            node.site = self.sites
            self.sites += 1
        return node.site

    def activation(self, parent, params, names, body, cells, method=None):
        """Compile the statements `body` to run in an env of its own below
        `parent`'s, which holds `params`, whose cells never die, and `names`:
        (code, scope).  `method`, (entry name, method name), makes the code a
        method's function and its adapter (`_Tree.function`).  The body's
        locals but `cells` (see `block_analysis`) are Python variables, and
        so are the other parameters of a method's function; with `cells`
        None, every local is in a cell, and so it is where the tree would
        split where it sees a Python variable (`_TooDeep`): the body compiles
        again, and the block literals in it, whose envs may now lie below
        other envs; it compiles so from then on (`split_bodies`)."""
        if cells is None or id(body) in self.split_bodies:
            return self.compile_body(parent, params, names, body, None, method)
        in_block = self.in_block
        try:
            return self.compile_body(parent, params, names, body, cells, method)
        except _TooDeep:
            self.split_bodies.add(id(body))
            for node in walk(body):
                if type(node) is BlockLit:
                    self.block_bodies.pop(id(node), None)
            self.in_block = in_block
            return self.compile_body(parent, params, names, body, None, method)

    def compile_body(self, parent, params, names, body, cells, method):
        scope = self.scope = _Scope(parent)
        for i, name in enumerate(params):
            scope.declare(name, dies=False, var=f"a{i}" if method is not None
                          and cells is not None and name not in cells else None)
        for name in names:
            scope.declare(name)
        code = self.tree(body, cells, method and (*method, params))
        self.scope = parent
        return code, scope

    def tree(self, root, cells=None, method=None):
        """The function of the tree rooted at `root`, a node or the
        statements of a body; with `cells`, the names of the locals that
        must be cells, the others are Python variables."""
        gen = _Tree(self, cells, method)
        if type(root) is list:
            gen.stats(root)
        else:
            gen.emit(f"return {gen.value(root)}")
        return gen.function()

    def block(self, e):
        """Compile the block literal `e` once, leaving its runner in `e.code`:
        (the code of its body, the number of names its env declares).  A
        tree may hold a literal twice, inline and in the body of an
        enclosing literal loop, whose site runs that body as a block."""
        made = self.block_bodies.get(id(e))
        if made is None:
            params = [p.name for sec in e.param_sections for p in sec]
            percent = _percent_vars(e)
            outer_in_block, self.in_block = self.in_block, True
            body, scope = self.activation(self.scope, params, percent, e.body,
                                          e.info and e.info.cells)
            self.in_block = outer_in_block
            e.code = _block_runner(body, scope, len(params), len(percent))
            made = self.block_bodies[id(e)] = body, len(scope.slots)
        return made


# -- what a tree holds ------------------------------------------------------------------

# the builtins of the literal loops
_LOOPS = ("while_true", "while_false", "repeat_until")

_BASIC = frozenset(BASIC_TYPES)

def _percent_vars(e):
    """The %-variables of the block literal `e`, in order."""
    return list(e.info.percent_vars) if e.info is not None else []


def _plain_block(e):
    """Whether `e` is a block literal with no parameter and no %-variable."""
    return type(e) is BlockLit and not e.param_sections and not _percent_vars(e)


def _bound(send):
    """Whether the checker resolved `send` to a builtin for a receiver and at
    most one argument of basic types."""
    b = send.builtin
    return b is not None and b[1] in _BASIC \
        and (not b[2] or len(b[2]) == 1 and b[2][0] in _BASIC)


def _local(target):
    t = type(target)
    return t is PercentRef or t is NameRef and target.binding is LOCAL


def _message(e):
    """The send `e` as (its receiver node, None for self; [(selector,
    [argument nodes])]; whether its arguments run before its receiver)."""
    t = type(e)
    if t is BinarySend:
        return e.left, [(e.op, [e.right])], False
    if t is UnarySend:
        return e.receiver, [(e.selector, [])], True
    if t is PrefixOp:
        return e.operand, [(e.op, [])], True
    return e.receiver, e.parts, True


def _send_form(e):
    """How the send `e` compiles: "interval", "loop" (a literal loop),
    "proven", or "site"; a `super` send is a site."""
    t = type(e)
    if t is BinarySend and e.op == "..":
        return "interval"
    if t is KeywordSend and e.builtin is not None and e.builtin[0].builtin in _LOOPS \
            and _plain_block(e.receiver) and _plain_block(e.parts[0][1][0]):
        return "loop"
    if (t is UnarySend or t is KeywordSend) and type(e.receiver) is SuperRef:
        return "site"
    return "proven" if _bound(e) else "site"


def _caret_free(stats):
    """Whether no `^` among `stats`, or in their `if` and `while` bodies,
    ends a block's evaluation."""
    for st in stats:
        t = type(st)
        if t is ReturnStat and st.is_caret \
                or t is IfStat and not all(_caret_free(body) for body in (
                    *(body for _cond, body in st.arms), st.else_body or ())) \
                or t is WhileStat and not _caret_free(st.body):
            return False
    return True


def _truth(v):
    """The source of the test that the value `v` is true."""
    return f"{v} is TRUE or {v} is not FALSE and interp.truthy({v})"


class _Tree:
    """The source of one tree's function (`Compiler.tree`), generated node
    by node in the order in which the nodes run, which is the order in which
    the compiler's scopes and site numbers advance.  The source
    reads the values `consts` as K0, K1, ...; `envs` are the variables of
    the envs the code runs in, the tree's own first, `frame` that of its
    frame; `returns` says whether a `return` there ends the tree's own
    statements.  The locals not in `cells` are Python variables, and with
    `cells` None every local is in a cell.  `method`, (entry name, method
    name, parameter names), makes the tree a method's function; `env_used`
    says whether its code takes its env, `raises` whether a block of its
    body may raise a ReturnSignal."""

    def __init__(self, compiler, cells=None, method=None):
        self.c = compiler
        self.cells = cells
        self.method = method
        self.env_used = self.raises = False
        self.top = compiler.scope
        self.lines = []
        self.consts = []
        self.names = 0
        self.pad = " " * (8 if method is None else 12)
        self.blocks = 0         # the Python loops and `try` blocks open
        self.envs = ["env"]
        self.frame = "frame"
        self.returns = True
        if method is not None:
            self.const(method[0])
            self.const(method[1])

    def function(self):
        """The tree's function: (interp, env, frame), answering True when a
        `return` ended its statements; or a method's function and its
        adapter (`_method_frame`, `_adapter`)."""
        body = "\n".join(self.lines) or self.pad + "pass"
        if self.method is None:
            return _factory(f"def make({_params(len(self.consts))}):\n"
                            f"    def tree(interp, env, frame):\n{body}\n    return tree\n"
                            )(*self.consts)
        scope = self.top
        head, tail = _method_frame(
            len(self.consts), tuple(scope.slots[name] for name in self.method[2]),
            scope.size, bool(scope.size or self.env_used), self.raises, tuple(scope.dying))
        fn = _factory(head, body, tail)(*self.consts)
        return fn, _adapter(fn, len(self.method[2]))

    # -- the text ----------------------------------------------------------------------

    def emit(self, line):
        self.lines.append(self.pad + line)

    def open(self, header):
        self.emit(header)
        self.pad += "    "
        return len(self.lines)

    def close(self, mark):
        if len(self.lines) == mark:
            self.emit("pass")
        self.pad = self.pad[:-4]

    def const(self, value):
        self.consts.append(value)
        return f"K{len(self.consts) - 1}"

    def fresh(self, prefix="v"):
        self.names += 1
        return f"{prefix}{self.names}"

    def deep(self):
        """Whether a node that nests Python blocks starts a tree of its own:
        Python allows 20 nested loops and `try` blocks, and 100 levels of
        indentation."""
        return self.blocks > 12 or len(self.pad) > 4 * 40

    def cell(self, name):
        """The text of the cell of the local `name`."""
        self.env_used = True
        depth, slot = self.c.local(name)
        if type(slot) is str:
            raise RuntimeError(f"the local '{name}' has no cell")
        envs = self.envs
        env = envs[-1 - depth] if depth < len(envs) \
            else envs[0] + "[0]" * (depth - len(envs) + 1)
        return f"{env}[{slot}]"

    def own(self, name):
        """Whether the local `name` is in a Python variable or a cell of an
        env the tree holds, which cannot die while the tree runs."""
        return self.c.local(name)[0] < len(self.envs)

    def python_var(self, name):
        """Whether the local `name` the tree declares is a Python variable."""
        return self.cells is not None and name not in self.cells

    def call(self, code):
        """Call the tree or block body `code`: the variable of its value."""
        self.env_used = True
        return self.into(f"{self.const(code)}(interp, {self.envs[-1]}, {self.frame})")

    def into(self, text):
        """Evaluate `text` once, into a variable of its own: the variable."""
        v = self.fresh()
        self.emit(f"{v} = {text}")
        return v

    # -- statements ----------------------------------------------------------------------

    def stats(self, stats):
        for st in stats:
            if type(st) is not EmptyStat:
                self.stat(st)

    def stat(self, st):
        try:
            gen = _TREE_STATS[type(st)]
        except KeyError:
            raise RuntimeError(f"cannot execute a {type(st).__name__} node") from None
        if gen(self, st) is False:
            # an `if` or `while` that would nest too deep starts a tree of its own
            v = self.call(self.split([st]))
            if self.returns:
                self.emit(f"if {v} is True: return "
                          f"{'True' if self.method is None else 'frame.result'}")

    def split(self, root):
        """A tree of its own for `root`, which would nest too deep: it sees
        only locals in cells, so a tree cannot split where it sees a local
        in a Python variable."""
        scope = self.c.scope
        while scope is not self.top.parent:
            if any(type(slot) is str for slot in scope.slots.values()):
                raise _TooDeep
            scope = scope.parent
        self.raises = True      # a block of the subtree may hold a `return`
        return self.c.tree(root)

    def var_decl(self, st):
        scope = self.c.scope
        for (name, _t, init), ty in zip(st.decls, st.resolved_types):
            v = self.value(init) if init is not None \
                else f"interp.default_value({self.const(ty)})"
            if self.python_var(name):
                var = self.fresh("l")
                scope.declare(name, var=var)
                self.emit(f"{var} = {v}")
            else:
                scope.declare(name)
                self.emit(f"{self.envs[-1]}[{scope.size}] = Cell({v})")

    def return_stat(self, st):
        v = "NOOBJECT" if st.value is None else self.value(st.value)
        if self.c.in_block and not st.is_caret:
            self.emit(f"raise ReturnSignal({self.frame}.ctx, {v})")
        elif self.method is not None and self.returns:
            self.emit(f"return {v}")
        else:
            self.emit(f"{self.frame}.result = {v}")
            self.emit("return True")

    def if_stat(self, st):
        """One arm is a Python `if`; more run in a loop of one turn, which
        the first arm that runs leaves."""
        if self.deep():
            return False
        arms = [(cond, body, scoped) for (cond, body), scoped in zip(st.arms, st.scoped)]
        if len(arms) == 1:
            (cond, body, scoped), = arms
            mark = self.open(f"if {_truth(self.value(cond))}:")
            self.body(body, scoped)
            self.close(mark)
            if st.else_body is not None:
                mark = self.open("else:")
                self.body(st.else_body, st.scoped[-1])
                self.close(mark)
            return
        once = self.open("while True:")
        self.blocks += 1
        for cond, body, scoped in arms:
            mark = self.open(f"if {_truth(self.value(cond))}:")
            self.body(body, scoped)
            self.emit("break")
            self.close(mark)
        if st.else_body is not None:
            self.body(st.else_body, st.scoped[-1])
        self.emit("break")
        self.blocks -= 1
        self.close(once)

    def while_stat(self, st):
        if self.deep():
            return False
        mark = self.open("while True:")
        self.blocks += 1
        self.emit(f"if not ({_truth(self.value(st.cond))}): break")
        self.emit("interp.evals += 1")
        self.emit("if interp.steps + interp.evals > interp.max_steps: interp.out_of_steps()")
        self.body(st.body, st.scoped)
        self.blocks -= 1
        self.close(mark)

    def body(self, stats, scoped):
        """The statements of an `if` or `while` body: one that declares a
        variable in a cell runs in an env of its own."""
        if scoped and any(not self.python_var(name) for st in stats
                          if type(st) is VarDeclStat for name, _t, _i in st.decls):
            self.scoped(lambda: self.stats(stats))
        elif scoped:
            c = self.c
            c.scope = _Scope(c.scope, env=False)
            self.stats(stats)
            c.scope = c.scope.parent
        else:
            self.stats(stats)

    def scoped(self, generate, name=None, init=None):
        """What `generate()` answers, generated to run in an env of its own,
        whose cells die as it ends; `name`, if any, is its first local, whose
        cell holds the value `init`."""
        c = self.c
        scope = c.scope = _Scope(c.scope)
        if name is not None:
            scope.declare(name)
        self.env_used = True
        env, at = self.fresh("e"), len(self.lines)
        self.emit("")           # the env, once its size is known
        mark = self.open("try:")
        self.blocks += 1
        self.envs.append(env)
        v = generate()
        self.envs.pop()
        self.blocks -= 1
        self.close(mark)
        mark = self.open("finally:")
        for slot in scope.dying:
            self.emit(f"if {env}[{slot}] is not None: {env}[{slot}].alive = False")
        self.close(mark)
        cells = ", None" * scope.size if name is None \
            else f", Cell({init})" + ", None" * (scope.size - 1)
        self.lines[at] = f"{self.pad}{env} = [{self.envs[-1]}{cells}]"
        c.scope = scope.parent
        return v

    # -- expressions ---------------------------------------------------------------------

    def value(self, e):
        """Generate the node `e`, None for self: the text of its value, a
        variable or a constant.  A node that would nest too deep starts a
        tree of its own, whose call it is."""
        if e is None:
            return "recv" if self.method is not None else self.frame + ".receiver"
        try:
            gen = _TREE_EXPRS[type(e)]
        except KeyError:
            raise RuntimeError(f"cannot evaluate a {type(e).__name__} node") from None
        v = gen(self, e)
        return self.call(self.split(e)) if v is None else v

    def lit(self, e):
        """A shared literal, or a new value per evaluation (`FRESH_LITERALS`)."""
        if e.runtime_value is not None:
            return self.const(e.runtime_value)
        return self.into(f"PrimV({self.const(FRESH_LITERALS[e.kind])}, {self.const(e.value)})")

    def name(self, e):
        """A local, a unary send to self, a field, a prototype, or a shared
        variable or constant, which raises until its initial value is set."""
        binding, name = e.binding, e.name
        if binding is LOCAL:
            return self.read(name)
        if binding is SEND:
            return self.site(e, None, [(name, [])], True)
        if binding is FIELD:
            return self.field(name)
        if binding is PROTO:
            return self.prototype(name)
        if binding is None:
            raise RuntimeError(f"the name '{name}' was not resolved")
        return self.into(f"interp.static_read({self.const(binding[1])}, {self.const(name)})")

    def field(self, name):
        return self.into(f"interp.field_read({self.frame}.fields_owner, {self.const(name)})")

    def prototype(self, name):
        """A prototype's object: a dict read once its initialisation started."""
        return self.into(f"interp.proto_objects.get({self.const(name)}) "
                         f"or interp.prototype_object({self.const(self.c.table.get(name))})")

    def read(self, name):
        """A local's value; only a cell an enclosing block's env holds can
        be dead."""
        depth, slot = self.c.local(name)
        if type(slot) is str:
            return self.into(slot)
        if depth < len(self.envs):
            return self.into(f"{self.cell(name)}.value")
        v = self.fresh()
        self.emit(f"{v} = {self.cell(name)}; "
                  f"{v} = {v}.value if {v}.alive else interp.cell_read({v})")
        return v

    def store(self, target, value):
        slot = self.c.local(target.name)[1]
        v = self.value(value)
        self.emit(f"{slot} = {v}" if type(slot) is str
                  else f"{self.cell(target.name)}.value = {v}")
        return v

    def assign(self, target, value):
        """Assign what the node `value` answers to `target` and answer it; a
        setter send answers what the setter answers.  The value runs before
        the receiver of a method access."""
        t = type(target)
        if _local(target):
            return self.store(target, value)
        if t is NameRef and target.binding is SEND:
            return self.site(target, None, [(target.name + ":", [value])], True)
        v = self.value(value)
        if t is SelfRef or t is NameRef and target.binding is FIELD:
            name = target.field_name if t is SelfRef else target.name
            return self.into(f"interp.field_write({self.frame}.fields_owner, "
                             f"{self.const(name)}, {v})")
        if t is NameRef:
            return self.into(f"interp.set_static({self.const(target.binding[1])}, "
                             f"{self.const(target.name)}, {v})")
        # the checker allows no other target than a method access
        recv = self.value(target.receiver)
        return self.into(f"interp.replace_method({v}, {recv}, {self.const(target.sig)})")

    def array(self, e):
        elems, tname = [self.value(x) for x in e.elems], e.resolved_type
        return self.into(f"ArrayV({self.const(tname)}, "
                         f"{self.const(split_generic(tname)[1][0][0])}, [{', '.join(elems)}])")

    def tuple_lit(self, e):
        values, tname = [self.value(x) for _n, x in e.items], e.resolved_type
        names = [n for n, _t in self.c.table.get(tname).tuple_fields]
        return self.into(f"TupleV({self.const(tname)}, {self.const(names)}, "
                         f"[{', '.join(values)}])")

    def block(self, e):
        """A block literal's value, with the snapshot of its %-variables,
        each declared before the block (`block_analysis`), so it has a cell."""
        snapshot = [f"interp.cell_read({self.cell(name)})" for name in _percent_vars(e)]
        self.c.block(e)
        self.returns_from(e)
        values = f"[{', '.join(snapshot)}]" if snapshot else "()"
        return self.into(f"BlockV({self.const(e)}, {self.envs[-1]}, {self.frame}, "
                         f"{self.const(e.runtime_type)}, {values})")

    def returns_from(self, e):
        """Note that the tree makes the block literal `e`, or runs its body
        inline: a `return` in it raises a ReturnSignal."""
        self.env_used = True
        if e.info is None or e.info.has_return:
            self.raises = True

    def method_access(self, e):
        r = self.value(e.receiver)
        return self.into(f"MethodV({r}, interp.resolve_sig({r}, {self.const(e.sig)}), "
                         f"{self.const(e.resolved_type)})")

    def let(self, e):
        """A `let`: its body runs in an env of its own."""
        if self.deep():
            return None
        init = self.value(e.init)
        return self.scoped(lambda: self.value(e.body), e.name, init)

    def if_expr(self, e):
        if self.deep():
            return None
        cond, v = self.value(e.cond), self.fresh()
        mark = self.open(f"if {_truth(cond)}:")
        self.emit(f"{v} = {self.value(e.then)}")
        self.close(mark)
        mark = self.open("else:")
        self.emit(f"{v} = {self.value(e.otherwise)}")
        self.close(mark)
        return v

    def send(self, e):
        form = _send_form(e)
        if form == "loop":
            return None if self.deep() else self.loop(e)
        recv, parts, args_first = _message(e)
        if form == "proven":
            return self.proven(e, recv, parts, args_first)
        if form == "interval":
            left = self.value(recv)
            return self.into(f"interp.make_interval({left}, {self.value(parts[0][1][0])})")
        return self.site(e, recv, parts, args_first)

    def site(self, e, recv, parts, args_first):
        """A send with an inline cache: its operands, then `_probe`, or
        `_super` for a `super` send.  A context object's `new:` or `bind:`
        passes what its arguments refer to (`refs`).  A send the checker
        fixed (`fixed`) calls its method's runner while its guard holds."""
        r = None if args_first else self.value(recv)
        args = [[self.value(a) for a in part] for _s, part in parts]
        if args_first and type(recv) is not SuperRef:
            r = self.value(recv)
        binds = type(e) is KeywordSend and len(parts) == 1 and parts[0][0] in BINDERS
        fixed = None if binds or type(e) is NameRef else e.fixed
        if fixed is not None and "." in r:
            r = self.into(r)        # self, read once
        site, v = self.const(self.c.new_site(e)), self.fresh()
        call = f"_super(interp, {site}, {self.const(self.c.owner)}, {self.frame}, " \
            if type(recv) is SuperRef else f"_probe(interp, {site}, {r}, "
        refs = f", {self.refs(parts[0][1])}" if binds else ""
        flat = [a for part in args for a in part]
        if len(parts) == 1 and not flat:
            message = f"(), {self.const(((parts[0][0], ()),))}"
        elif len(parts) == 1 and len(flat) == 1:
            message = f"(w{v} := [{flat[0]}]), [({self.const(parts[0][0])}, w{v})]"
        else:
            shape = ", ".join(f"({self.const(sel)}, [{', '.join(part)}])"
                              for (sel, _), part in zip(parts, args))
            message = f"[{', '.join(flat)}], [{shape}]"
        probe = f"{v} = {call}{message}{refs})"
        if fixed is None:
            self.emit(probe)
        else:
            self.fixed(e, r, flat, message, v, probe)
        return v

    def fixed(self, e, r, flat, message, v, probe):
        """The fixed send `e` of the arguments `flat`, (args, shape) in
        `message`, to `r`.  While the receiver is a value of a prototype the
        analysis allowed (an object with no mixin and no method of its own,
        or an array, tuple or union by its type), no argument of a builtin is
        nil, and the method has no bound value and no `addMethod:` body may
        take the message, it counts its step and calls the method's function
        with the arguments in place, read through its decl, as the callee may
        compile after its site, or the builtin's handler with `message`; else
        it runs `probe`."""
        m, allowed = e.fixed
        method, allowed = self.const(m), self.const(allowed)
        p = self.pad
        if m.builtin is None:
            cls, call = "ObjectV", f"{self.const(m.decl)}.fn(interp, {r}" \
                f"{''.join(f', {a}' for a in flat)})"
        else:
            # the receiver's static type, as the checker noted it
            cls = value_class(self.c.table.get(e.builtin[1]))
            call = f"{self.const(bi.handler(m))}(interp, {method}, {r}, {message})"
        test = f"{r}.proto in {allowed} and not {r}.mixins and not {r}.own_methods" \
            if cls == "ObjectV" else f"{r}.type_name in {allowed}"
        nils = "".join(f"{a} is not NIL and " for a in flat) if m.builtin is not None else ""
        self.lines.append(
            f"{p}if type({r}) is {cls} and {test} and {nils}"
            f"{method} not in interp.bound_values and not interp.dyn_methods:\n"
            f"{p}    interp.steps += 1\n"
            f"{p}    if interp.steps + interp.evals > interp.max_steps: interp.out_of_steps()\n"
            f"{p}    {v} = {call}\n"
            f"{p}else: {probe}")

    def refs(self, nodes):
        """The text of what each argument node refers to: (the cell of the
        local it names or None, the variable it names or None)."""
        refs = []
        for node in nodes:
            t = type(node)
            cell = self.cell(node.name) if t is NameRef and node.binding is LOCAL else None
            name = node.name if t is NameRef else node.field_name if t is SelfRef else None
            refs.append(f"({cell}, {None if name is None else self.const(name)})")
        return f"[{', '.join(refs)}]"

    def proven(self, e, recv, parts, args_first):
        """A proven send: the kind tests of its operands (none for a shared
        literal of the proven kind) and the method's guard; then the step,
        its budget and the builtin; else `Interp.send`, uncached."""
        m, kind, kinds = e.builtin
        (selector, args), = parts
        nodes = [(recv, kind), *zip(args, kinds)]
        ops, tests = [None] * len(nodes), []
        for i in (reversed(range(len(nodes))) if args_first else range(len(nodes))):
            node, k = nodes[i]
            lit = node.runtime_value if type(node) is Lit else None
            if type(lit) is PrimV and lit.kind == k:
                ops[i] = self.const(lit)
            else:
                ops[i] = x = self.value(node)
                tests.append(f"type({x}) is PrimV and {x}.kind == {k!r} and ")
        self.names += 1
        p, n, r, a, method = self.pad, self.names, ops[0], ops[-1], self.const(m)
        sel = self.const(selector) if args else self.const(((selector, ()),))
        b = m.builtin if type(m.builtin) is tuple else ("",)
        if b[0] == "cmp":
            op = f"v{n} = TRUE if {r}.v {b[1]} {a}.v else FALSE"
        else:
            op = f"v{n} = {self.const(bi.handler(m))}(interp, {method}, {r}, " + (
                f"(w{n} := [{a}]), [({sel}, w{n})])" if args else f"(), {sel})")
            if b[0] == "arith" and b[1] in ("+", "-", "*") and kind in bi.INT_RANGE:
                # a new PrimV without a call of its __init__, which costs more
                lo, hi = bi.INT_RANGE[kind]
                op = f"x{n} = {r}.v {b[1]} {a}.v\n{p}    if {lo} <= x{n} <= {hi}: " \
                    f"v{n} = new(PrimV); v{n}.kind = {kind!r}; v{n}.v = x{n}\n{p}    else: {op}"
        self.lines.append(
            f"{p}if {''.join(tests)}{method} not in interp.bound_values "
            f"and not interp.dyn_methods:\n"
            f"{p}    interp.steps += 1\n"
            f"{p}    if interp.steps + interp.evals > interp.max_steps: interp.out_of_steps()\n"
            f"{p}    {op}\n"
            f"{p}else: v{n} = interp.send({r}, {f'[({sel}, [{a}])]' if args else sel})")
        return f"v{n}"

    def loop(self, e):
        """A literal loop.  It counts its step as a send; where neither block
        declares a local, it pushes one frame for its evaluations, which it
        pops before the budget check between two evaluations ends the run
        and while it judges a test's value, as the block path has no frame
        then, and when anything leaves the loop; each turn first tries the
        loop's fast turn, if it has one (`_Turn`).  Else, and while its
        method is replaced or an `addMethod:` body might take the message,
        it sends the two block values through its site."""
        c = self.c
        (_selector, (arg,)), = e.parts
        m = e.builtin[0]
        until = m.builtin == "repeat_until"
        arg_body, arg_slots = c.block(arg)
        recv_body, recv_slots = c.block(e.receiver)
        self.returns_from(arg)
        self.returns_from(e.receiver)
        if arg_slots or recv_slots:
            return self.site(e, e.receiver, e.parts, True)
        test, body = ((arg, arg_body), (e.receiver, recv_body)) if until \
            else ((e.receiver, recv_body), (arg, arg_body))
        env, frame = self.envs[-1], self.frame
        mark = self.open(f"if {self.const(m)} in interp.bound_values or interp.dyn_methods:")
        v = self.site(e, e.receiver, e.parts, True)
        self.close(mark)
        outer = self.open("else:")
        self.emit("interp.steps += 1")
        self.emit("if interp.steps + interp.evals > interp.max_steps: interp.out_of_steps()")
        f, inner, frames = self.fresh("f"), self.fresh("e"), self.fresh("s")
        self.emit(f"{f} = Frame({frame}.entry_name, 'eval', {frame}.receiver, "
                  f"{frame}.fields_owner, {frame}.mixin_index, {frame}.ctx)")
        self.emit(f"{inner} = [{env}]")
        self.emit("interp.evals += 1")
        self.emit("if interp.steps + interp.evals > interp.max_steps: interp.out_of_steps()")
        self.emit(f"{frames} = interp.frames")
        self.emit(f"{frames}.append({f})")
        self.envs.append(inner)
        fast = _Turn(self).make(test[0], body[0], until, m.builtin == "while_true")
        self.envs.pop()
        if fast is not None:
            self.lines += [self.pad + line for line in fast[0]]
        guard = self.open("try:")
        turn = self.open("while True:")
        if fast is not None:
            self.lines += [self.pad + line for line in fast[1]]
        self.blocks += 2
        saved = self.frame, self.returns, c.in_block
        self.envs.append(inner)
        self.frame, self.returns, c.in_block = f, False, True
        stop = "{t} is not TRUE and ({t} is FALSE or not _truthy_out(interp, {f}, {t}))" \
            if m.builtin == "while_true" \
            else "{t} is TRUE or {t} is not FALSE and _truthy_out(interp, {f}, {t})"
        for block, code in (body, test) if until else (test, body):
            c.scope = _Scope(c.scope)
            if block is test[0]:
                last = block.body[-1] if len(block.body) == 1 else None
                if type(last) is ReturnStat and last.is_caret and last.value is not None:
                    t = self.value(last.value)
                else:
                    self.emit(f"{f}.result = NOOBJECT")
                    self.call(code)
                    t = self.into(f"{f}.result")
                self.emit(f"if {stop.format(t=t, f=f)}: break")
            elif _caret_free(block.body):
                self.stats(block.body)
            else:
                self.call(code)
            c.scope = c.scope.parent
            self.emit("interp.evals += 1")
            self.emit(f"if interp.steps + interp.evals > interp.max_steps: "
                      f"{frames}.pop(); {f} = None; interp.out_of_steps()")
        self.envs.pop()
        self.frame, self.returns, c.in_block = saved
        self.blocks -= 2
        self.close(turn)
        self.close(guard)
        mark = self.open("finally:")
        self.emit(f"if {f} is not None: {frames}.pop()")
        self.close(mark)
        self.emit(f"{v} = NOOBJECT")
        self.close(outer)
        return v


class _NotFast(Exception):
    """A turn of a literal loop holds a node that a fast turn does not run."""


class _Turn:
    """The fast turn of a literal loop (`_Tree.loop`) whose test is one
    comparison and whose test and body hold only proven sends that run
    inline (comparisons, and `+ - *` on the integer kinds), local reads and
    stores, and shared literals.  Its guard tests the methods of its sends
    once, the budget of the whole turn once, and the kind of each local it
    reads from its cell; then it computes in Python variables, with a range
    test on each sum, difference and product, and only then counts its
    steps and evaluations and writes the cells of the locals it stored.  A
    failed test runs the turn on the per-send path, from its start: a fast
    turn has no effect before it commits.  A value in a turn is (the text of
    a value object or None, the text of its Python value or None, its kind
    or None where it is a read whose kind is not yet tested)."""

    def __init__(self, gen):
        self.gen = gen
        self.lines = []         # the computation, at the current depth
        self.depth = 0
        self.cells = {}         # the text of a cell -> its variable
        self.far = []           # the variables of cells of an enclosing block's env
        self.reads = {}         # a cell's variable -> the variable of its value
        self.tests = {}         # (read variable, kind) -> the kind test
        self.values = {}        # a cell's variable -> its value in the turn
        self.methods = {}       # method -> its const
        self.ranges = []        # the range tests not yet made
        self.steps = 0

    def make(self, test, body, until, while_true):
        """The fast turn of the loop of the block literals `test` and `body`:
        (the lines before the Python loop, those at the start of each of its
        turns), or None where the turn holds another node."""
        last = test.body[-1] if len(test.body) == 1 else None
        if not (type(last) is ReturnStat and last.is_caret and last.value is not None):
            return None
        c = self.gen.c
        c.scope = _Scope(c.scope)
        try:
            return self.generate(last.value, body.body, until, while_true)
        except _NotFast:
            return None
        finally:
            c.scope = c.scope.parent

    def generate(self, test, body, until, while_true):
        stop = "if not {}:" if while_true else "if {}:"
        for part in ("body", "test") if until else ("test", "body"):
            if part == "body":
                self.stats(body)
                continue
            obj, x, kind = self.expr(test)
            if obj is not None or kind != "Boolean":
                raise _NotFast          # the test is no comparison
            self.check_ranges()
            self.emit(stop.format(x))
            self.depth += 1
            self.commit(1 if until else 0)
            self.emit("break")
            self.depth -= 1
        self.check_ranges()
        self.commit(2)
        self.emit("continue")
        methods = " and ".join(f"{k} not in interp.bound_values" for k in self.methods.values())
        guard = [f"not interp.dyn_methods and (not interp.bound_values or {methods})",
                 f"interp.steps + interp.evals + {self.steps + 2} <= interp.max_steps"]
        lines = [f"if {' and '.join(guard)}:"]
        lines += [f"    {r} = {cell}.value" for cell, r in self.reads.items()]
        tests = [f"{cell}.alive" for cell in self.far] + list(self.tests.values())
        pad = "    "
        if tests:
            lines.append(f"    if {' and '.join(tests)}:")
            pad = "        "
        lines += [pad + line for line in self.lines]
        return [f"{var} = {text}" for text, var in self.cells.items()], lines

    def emit(self, line):
        self.lines.append("    " * self.depth + line)

    def check_ranges(self):
        """Go on only while every result so far is in the range of its kind."""
        if self.ranges:
            self.emit(f"if {' and '.join(self.ranges)}:")
            self.depth += 1
            self.ranges = []

    def commit(self, evals):
        """Count the turn's steps so far and `evals`, and write the cells."""
        self.emit(f"interp.steps += {self.steps}")
        if evals:
            self.emit(f"interp.evals += {evals}")
        for cell, (obj, x, kind) in self.values.items():
            if obj is None and kind == "Boolean":
                obj = f"(TRUE if {x} else FALSE)"
            elif obj is None:
                obj = self.gen.fresh("w")
                self.emit(f"{obj} = new(PrimV); {obj}.kind = {kind!r}; {obj}.v = {x}")
            self.emit(f"{cell}.value = {obj}")

    def cell(self, name):
        gen = self.gen
        if type(gen.c.local(name)[1]) is str:
            raise _NotFast
        text = gen.cell(name)
        var = self.cells.get(text)
        if var is None:
            var = self.cells[text] = gen.fresh("c")
            if not gen.own(name):
                self.far.append(var)
        return var

    def stats(self, stats):
        for st in stats:
            t = type(st)
            if t is ExprStat:
                self.expr(st.expr)
            elif t is AssignStat and len(st.targets) == 1:
                self.store(st.targets[0], self.expr(st.value))
            elif t is not EmptyStat:
                raise _NotFast

    def store(self, target, value):
        if type(target) is not NameRef or target.binding is not LOCAL:
            raise _NotFast
        self.values[self.cell(target.name)] = value

    def expr(self, e):
        t = type(e)
        if t is Lit and type(e.runtime_value) is PrimV:
            lit = e.runtime_value
            return self.gen.const(lit), self.gen.const(lit.v), lit.kind
        if t is NameRef and e.binding is LOCAL:
            cell = self.cell(e.name)
            value = self.values.get(cell)
            if value is not None:
                return value
            r = self.reads.get(cell)
            if r is None:
                r = self.reads[cell] = self.gen.fresh("r")
            return r, None, None
        if t is AssignExpr:
            value = self.expr(e.value)
            self.store(e.target, value)
            return value
        if t is BinarySend and _send_form(e) == "proven":
            return self.send(e)
        raise _NotFast

    def operand(self, e, kind):
        """The Python value of the operand `e` of a proven send, tested for
        the kind `kind` in the guard where it is a read."""
        obj, x, k = self.expr(e)
        if k is None:
            self.tests[obj, kind] = f"type({obj}) is PrimV and {obj}.kind == {kind!r}"
        elif k != kind:
            raise _NotFast
        return f"{obj}.v" if x is None else x

    def send(self, e):
        m, kind, (arg_kind,) = e.builtin
        b = m.builtin if type(m.builtin) is tuple else ("",)
        arith = b[0] == "arith" and b[1] in ("+", "-", "*") and kind in bi.INT_RANGE
        if not arith and b[0] != "cmp":
            raise _NotFast
        left, right = self.operand(e.left, kind), self.operand(e.right, arg_kind)
        self.steps += 1
        if m not in self.methods:
            self.methods[m] = self.gen.const(m)
        x = self.gen.fresh("x")
        self.emit(f"{x} = {left} {b[1]} {right}")
        if not arith:
            return None, x, "Boolean"
        lo, hi = bi.INT_RANGE[kind]
        self.ranges.append(f"{lo} <= {x} <= {hi}")
        return None, x, kind


# per statement type, its generator, which answers False where the statement
# would nest too deep and starts a tree of its own
_TREE_STATS = {
    ExprStat: lambda g, st: g.value(st.expr),
    AssignStat: lambda g, st: g.assign(st.targets[0], st.value),
    VarDeclStat: _Tree.var_decl, ReturnStat: _Tree.return_stat,
    IfStat: _Tree.if_stat, WhileStat: _Tree.while_stat,
}

# per expression type, its generator, which answers None where the node
# would nest too deep and starts a tree of its own
_TREE_EXPRS = {
    Lit: _Tree.lit, NameRef: _Tree.name, PercentRef: lambda g, e: g.read(e.name),
    GenericRef: lambda g, e: g.prototype(e.resolved),
    SelfRef: lambda g, e: g.value(None) if e.field_name is None else g.field(e.field_name),
    ArrayLit: _Tree.array, TupleLit: _Tree.tuple_lit, BlockLit: _Tree.block,
    MethodAccess: _Tree.method_access, LetExpr: _Tree.let, IfExpr: _Tree.if_expr,
    AssignExpr: lambda g, e: g.assign(e.target, e.value),
    UnarySend: _Tree.send, BinarySend: _Tree.send, PrefixOp: _Tree.send,
    KeywordSend: _Tree.send,
}


@functools.cache
def _method_frame(nconsts, params, size, env, raises, dying):
    """The source of the factory of a method's function, `fn(interp, recv,
    a0, ..., owner=None, index=None)`, around its body: (the text before
    the body, the text after it).  The function pushes the frame, with the
    mixin object `owner` and its index, if any, and makes an env of `size`
    slots where `env` says so, with a cell for each parameter whose slot in
    `params` is a number (the others are Python variables); it catches a
    ReturnSignal only where `raises`, and kills the cells of the slots
    `dying` as it ends.  Made once per process for each such frame."""
    args = "".join(f"a{i}, " for i in range(len(params)))
    head = [f"def make({_params(nconsts)}):",
            f"    def fn(interp, recv, {args}owner=None, index=None):",
            "        frame = new(Frame)",
            "        frame.entry_name = K0",
            "        frame.method_name = K1",
            "        frame.receiver = recv",
            "        frame.fields_owner = recv if owner is None else owner",
            "        frame.mixin_index = index",
            "        frame.ctx = frame",
            "        frames = interp.frames",
            "        if len(frames) > 2000: interp.str_exception('method call stack overflow')",
            "        frames.append(frame)"]
    if env:
        cells = [None] * size
        for i, slot in enumerate(params):
            if type(slot) is int:
                cells[slot - 1] = f"Cell(a{i})"
        head.append(f"        env = [None{''.join(f', {c}' for c in cells)}]")
    head.append("        try:\n")
    tail = ["", "            return NOOBJECT"]
    if raises:
        tail += ["        except ReturnSignal as r:",
                 "            if r.ctx is frame: return r.value",
                 "            raise"]
    tail.append("        finally:")
    tail += [f"            if env[{slot}] is not None: env[{slot}].alive = False"
             for slot in dying]
    tail += ["            frames.pop()", "    return fn", ""]
    return "\n".join(head), "\n".join(tail)


@functools.cache
def _params(n):
    return ", ".join(f"K{i}" for i in range(n))


@functools.cache
def _factory(*parts):
    """The factory of the trees whose source is the text of `parts`, their
    shape, made once per shape for the whole process; a method's function
    passes its frame's text apart, which is made once (`_method_frame`)."""
    namespace = {"PrimV": PrimV, "ArrayV": ArrayV, "TupleV": TupleV, "UnionV": UnionV,
                 "BlockV": BlockV, "MethodV": MethodV, "ObjectV": ObjectV, "TRUE": TRUE,
                 "FALSE": FALSE, "NIL": NIL, "NOOBJECT": NOOBJECT, "Cell": Cell, "Frame": Frame,
                 "ReturnSignal": ReturnSignal, "new": new, "_probe": _probe,
                 "_super": _super, "_truthy_out": _truthy_out}
    exec(compile("".join(parts), "<tree>", "exec"), namespace)
    return namespace["make"]


def _truthy_out(interp, frame, v):
    """`interp.truthy(v)` for the test of an inline loop, with the loop's
    evaluation frame `frame` off the stack, as on the block path."""
    frames = interp.frames
    frames.pop()
    try:
        return interp.truthy(v)
    finally:
        frames.append(frame)


# -- runners -------------------------------------------------------------------------------

def _kill(env, dying):
    for slot in dying:
        cell = env[slot]
        if cell is not None:
            cell.alive = False


def _cells(args, nparams):
    """A cell per parameter; a parameter without an argument has none."""
    if len(args) == nparams:
        return [*map(Cell, args)]
    return [*map(Cell, args[:nparams]), *[None] * (nparams - len(args))]


def _adapter(fn, nparams):
    """The code of a method whose function is `fn`, for the send path:
    (interp, m, recv, args, shape, mixin_obj=None).  It calls `fn` with the
    arguments in place, or `_refit` with a mixin object or other
    arguments."""
    def run(interp, m, recv, args, shape, mixin_obj=None):
        if mixin_obj is None and len(args) == nparams:
            return fn(interp, recv, *args)
        return _refit(interp, fn, nparams, recv, args, mixin_obj)
    return run


def _refit(interp, fn, nparams, recv, args, mixin_obj):
    """The call of a method's function `fn` that its adapter does not make
    in place: with the mixin object and index `mixin_obj`, whose fields the
    body reads, or with other than `nparams` arguments, where a parameter
    without an argument holds None and an argument without a parameter is
    dropped.  `Interp.lookup` pairs a mixin object with a method of a mixin
    entry found on an object the mixin is attached to, and an argument
    with each parameter."""
    args = [*args[:nparams], *[None] * (nparams - len(args))]
    return fn(interp, recv, *args, *(mixin_obj or (None, None)))


def _method_runner(entry, method, body, scope):
    """The runner of a context block's body, whose self is the object its
    context object is bound to: its env holds a cell per parameter.  A
    context object is no mixin, so `Interp.lookup` pairs no mixin object
    with its methods."""
    entry_name, name = entry.name, method.name
    ctx_self, nparams = method.ctx_self_field, len(method.param_names)
    blank, dying = [None] * (scope.size - nparams), scope.dying

    def run(interp, m, recv, args, shape, mixin_obj=None):
        self_obj = interp.field_read(recv, ctx_self)
        fields_owner = self_obj if isinstance(self_obj, ObjectV) else recv
        frame = Frame(entry_name, name, self_obj, fields_owner)
        frames = interp.frames
        if len(frames) > 2000:
            interp.str_exception("method call stack overflow")
        frames.append(frame)
        env = [None, *_cells(args, nparams), *blank]
        try:
            body(interp, env, frame)
            return frame.result
        except ReturnSignal as r:
            if r.ctx is frame:
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
        # the frame made without a call of its __init__, which costs more
        frame = new(Frame)
        frame.entry_name = home.entry_name
        frame.method_name = "eval"
        frame.receiver = home.receiver
        frame.fields_owner = home.fields_owner
        frame.mixin_index = home.mixin_index
        frame.ctx = home.ctx
        frame.result = NOOBJECT
        frames = interp.frames
        frames.append(frame)
        env = [blk.env, *_cells(args, nparams), *map(Cell, blk.snapshot), *blank] \
            if npercent else [blk.env, *_cells(args, nparams), *blank]
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


def _probe(interp, site, recv, args, shape, refs=None):
    """Send `shape`, [(selector, [argument values])], with the arguments
    `args`, to `recv` through the inline cache of `site`, keyed by
    `send_key`.  A miss, or a send the cache does not keep, goes to
    `Interp.send`.  A hit counts the step and calls the entry's handler, or
    `invoke` for a `new:` or `bind:` send, which has `refs`, (the cell of a
    local or None, a variable's name or None) per argument, and for a method
    with a bound value."""
    key = send_key(interp, recv, args)
    if key is None:
        return interp.send(recv, shape, refs=refs)
    found = interp.inline_caches[site].get(key)
    if found is None:
        return interp.send(recv, shape, refs=refs, site=site, key=key)
    interp.steps += 1
    if interp.steps + interp.evals > interp.max_steps:
        interp.out_of_steps()
    handler, m, owner, index, plan = found
    if refs is not None or m in interp.bound_values:
        return interp.invoke(m, recv, shape, owner, mixin_at(recv, index), plan, refs)
    return handler(interp, m, recv, args, shape)


def _super(interp, site, above, frame, args, shape, refs=None):
    """A `super` send in a body of the entry `above`: `_probe` to the
    receiver of `frame`, whose miss hands `above` and the frame's mixin
    index to `Interp.send`.  One mixin can be attached twice, so a site in a
    mixin's body keys by that index too."""
    recv, index = frame.receiver, frame.mixin_index
    key = send_key(interp, recv, args)
    if above.is_mixin and key is not None:
        key = key, index
    found = None if key is None else interp.inline_caches[site].get(key)
    if found is None:
        return interp.send(recv, shape, above, index, refs, site, key)
    interp.steps += 1
    if interp.steps + interp.evals > interp.max_steps:
        interp.out_of_steps()
    _handler, m, owner, found_index, plan = found
    return interp.invoke(m, recv, shape, owner, mixin_at(recv, found_index), plan, refs)
