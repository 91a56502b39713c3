"""Pipeline orchestration: sources -> tokens -> AST -> desugared units ->
prototype table -> checks -> compiled bodies -> a runnable Program.

The builtin table plus the prelude, compiled through the same pipeline, form
the world.  It is built once per process and prelude text, on the first
compile, and every compile then works on an overlay of it: a table whose entry
map starts as a copy of the world's, and a desugarer that starts from the
state the prelude left.  No compile or run writes to the world.
"""

import dataclasses
import sys

from .checker import Checker
from .compiler import compile_entries
from .cyast import PrototypeDecl
from .desugar import Desugarer
from .diagnostics import Reporter
from .lexer import tokenize
from .parser import Parser
from .prelude import PRELUDE_SOURCE
from .prototypes import PrototypeTable

_worlds = {}    # prelude text -> World

# the stages recurse over the syntax tree, which may nest MAX_NESTING levels
# deep, and the interpreter with the Cyan call depth, which it bounds itself
RECURSION_LIMIT = 30000


def raise_recursion_limit():
    """Let Python recurse as deep as the stages need; never lowers the limit."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))


class Program:
    def __init__(self, table, reporter, units, main_name, block_infos=None, sites=0):
        self.table = table
        self.reporter = reporter
        self.units = units
        self.main_name = main_name
        self.block_infos = block_infos if block_infos is not None else {}
        self.sites = sites      # send sites numbered in the world and the program

    def ok(self):
        return not self.reporter.has_errors()


class World:
    """The builtin entries and the prelude: parsed, desugared, registered,
    linked, checked, block-analysed and compiled.  Shared read-only by every
    compile."""

    def __init__(self, prelude_text):
        rep = Reporter("<prelude>")
        cu = parse_file(prelude_text, "<prelude>", rep)
        # the prelude intentionally has many public units in one source
        rep.items = [d for d in rep.items
                     if "exactly one public" not in d.message]
        if rep.has_errors():
            raise RuntimeError("prelude does not parse:\n" + rep.format_all())
        # diagnostics of the later stages; each compile reports them as its own
        self.reporter = Reporter()
        self.table = PrototypeTable(self.reporter)
        self.desugarer = Desugarer([], self.reporter)
        checker = Checker(self.table, self.reporter)
        self.units, self.sites = _elaborate([cu], self.table, self.desugarer, checker, 0)
        self.block_infos = checker.block_infos
        self.table.code_at_init()   # memoised here, so that no run writes the world


def parse_file(text, filename, reporter):
    raise_recursion_limit()
    tokens, _ = tokenize(text, reporter)
    parser = Parser(tokens, reporter, filename)
    return parser.parse_unit(filename)


def _parsed_prelude(prelude_text):
    """The world for `prelude_text`, built on first use."""
    world = _worlds.get(prelude_text)
    if world is None:
        world = _worlds[prelude_text] = World(prelude_text)
    return world


def _elaborate(cus, table, desugarer, checker, first_site):
    """Desugar the units of the compilation units `cus`, then register, link
    and check them in `table`, and compile them when they have no error,
    numbering their send sites from `first_site`.  Returns the desugared
    units and the next site number."""
    all_units = []
    packages = {}
    for cu in cus:
        for u in cu.units:
            all_units.append(u)
            packages[id(u)] = cu.package
    templates = [u for u in all_units
                 if isinstance(u, PrototypeDecl) and u.template_params]
    desugarer.units = [u for u in all_units
                       if not (isinstance(u, PrototypeDecl) and u.template_params)]
    for u in all_units:
        if isinstance(u, PrototypeDecl):
            desugarer.proto_info.setdefault(u.name, u)
    units = desugarer.run()

    for t in templates:
        table.add_template(t, packages.get(id(t), "main"))
    # each unit's diagnostics name its file
    reporter = table.reporter
    for u in units:
        with reporter.file(u.filename):
            table.register_unit(u, packages.get(id(u), "main"))
    # link and check until the queue drains (instantiation adds entries)
    checked = []
    while table.check_queue:
        batch = table.check_queue
        table.check_queue = []
        for entry in batch:
            with reporter.file(entry.filename):
                table.link_unit(entry, desugarer.visible_vars)
        for entry in batch:
            with reporter.file(entry.filename):
                checker.check_entry(entry)
        checked += batch
    if reporter.has_errors():
        return units, first_site
    return units, compile_entries(table, checked, first_site)


def compile_program(sources, main_name="Program", reporter=None, prelude_text=None):
    """sources: list of (filename, text).  Returns a Program.  Diagnostics go
    to `reporter`, by default one named after the file when there is one."""
    if reporter is None:
        # a unit's diagnostics name its file; the others, the file if only one
        reporter = Reporter(sources[0][0]) if len(sources) == 1 else Reporter()
    world = _parsed_prelude(prelude_text or PRELUDE_SOURCE)
    cus = []
    for filename, text in sources:
        sub = Reporter(filename)
        cus.append(parse_file(text, filename, sub))
        reporter.extend(sub)
    table = PrototypeTable(reporter, shared=world.table)
    if reporter.has_errors():
        return Program(table, reporter, [], main_name)
    reporter.items.extend(dataclasses.replace(d, filename=reporter.filename)
                          for d in world.reporter.items)

    checker = Checker(table, reporter)
    units, sites = _elaborate(cus, table, world.desugarer.fork(reporter), checker,
                              world.sites)
    program = Program(table, reporter, world.units + units, main_name,
                      {**world.block_infos, **checker.block_infos}, sites)
    main = table.get(main_name)
    if main is None or main.is_interface:
        reporter.error(0, 0, f"the program needs a prototype named '{main_name}'"
                             f" with a 'run' method")
    elif "run" not in main.groups and "run:" not in main.groups:
        decl = main.decl
        with reporter.file(main.filename if decl else reporter.filename):
            reporter.error(decl.line if decl else 0, decl.col if decl else 0,
                           f"'{main_name}' does not define 'run' or"
                           f" 'run: Array<String>'")
    return program
