"""Grammar methods: signature regexes, selector automata, derived parameter
types, possessive-greedy matching, and argument packing plans.

Matching is possessive: every quantified subexpression consumes as much of the
message as it can and the matcher never backtracks into it; alternatives take
the first branch that matches.  Alternative types resolve to the first
alternative that is a supertype of the argument.
"""

from dataclasses import dataclass, field
from itertools import accumulate, count

from .cyast import GAlt, GOpt, GPlus, GSel, GSeq, GStar


# ---------------------------------------------------------------------------
# derived parameter types

@dataclass(frozen=True)
class Scalar:
    type_name: str

    def canonical(self):
        return self.type_name


@dataclass(frozen=True)
class AnyMarker:
    def canonical(self):
        return "Any"


@dataclass(frozen=True)
class ArrayOf:
    elem: object

    def canonical(self):
        return f"Array<{self.elem.canonical()}>"


@dataclass(frozen=True)
class UTupleOf:
    fields: tuple

    def canonical(self):
        return "UTuple<" + ", ".join(f.canonical() for f in self.fields) + ">"


@dataclass(frozen=True)
class UUnionOf:
    fields: tuple

    def canonical(self):
        return "UUnion<" + ", ".join(f.canonical() for f in self.fields) + ">"


def _position_type(alts):
    """One argument position: a single type, or a union of alternatives."""
    names = [a.canonical() for a in alts]
    if len(names) == 1:
        return Scalar(names[0])
    return UUnionOf(tuple(Scalar(n) for n in names))


def derive_parameter_type(node):
    """The table-driven derivation of a signature regex."""
    if isinstance(node, GSel):
        spec = node.argspec
        if spec[0] == "none":
            return AnyMarker()
        if spec[0] == "types":
            positions = [_position_type(alts) for alts in spec[1]]
            if len(positions) == 1:
                return positions[0]
            return UTupleOf(tuple(positions))
        if spec[0] in ("star", "plus"):
            return ArrayOf(_position_type(spec[1]))
        if spec[0] == "default":
            return Scalar(spec[1].canonical())
        raise ValueError(spec)
    if isinstance(node, GSeq):
        parts = [derive_parameter_type(x) for x in node.items]
        if len(parts) == 1:
            return parts[0]
        return UTupleOf(tuple(parts))
    if isinstance(node, GAlt):
        return UUnionOf(tuple(derive_parameter_type(x) for x in node.items))
    if isinstance(node, GStar) or isinstance(node, GPlus):
        return ArrayOf(derive_parameter_type(node.item))
    if isinstance(node, GOpt):
        inner = node.item
        if isinstance(inner, GSel) and inner.argspec[0] == "default":
            return derive_parameter_type(inner)   # defaults guarantee presence
        return UUnionOf((derive_parameter_type(inner),))
    raise ValueError(node)


# ---------------------------------------------------------------------------
# canonical method name and signature rendering

def render_regex(node, with_types=False):
    def type_names(alts):
        return " | ".join(t.canonical() for t in alts)

    if isinstance(node, GSel):
        out = node.selector
        if with_types:
            spec = node.argspec
            if spec[0] == "types":
                out += " " + ", ".join(f"({type_names(a)})" if len(a) > 1 else type_names(a)
                                       for a in spec[1])
            elif spec[0] in ("star", "plus"):
                out += " (" + type_names(spec[1]) + ")" + ("*" if spec[0] == "star" else "+")
            elif spec[0] == "default":
                from .cyast import pp_expr
                out += f" {spec[1].canonical()} = {pp_expr(spec[2])}"
        return out
    if isinstance(node, GSeq):
        sep = " " if with_types else ""
        return sep.join(render_regex(x, with_types) for x in node.items)
    if isinstance(node, GAlt):
        sep = " | " if with_types else "|"
        return sep.join(render_regex(x, with_types) for x in node.items)
    if isinstance(node, GStar):
        return "(" + render_regex(node.item, with_types) + ")*"
    if isinstance(node, GPlus):
        return "(" + render_regex(node.item, with_types) + ")+"
    if isinstance(node, GOpt):
        return "(" + render_regex(node.item, with_types) + ")?"
    raise ValueError(node)


def _has_regex_operator(node):
    if isinstance(node, (GStar, GPlus, GOpt, GAlt)):
        return True
    if isinstance(node, GSeq):
        return any(_has_regex_operator(x) for x in node.items)
    return False


def method_name_of(regex):
    """Selector-only rendering: '(add:(wattsHour:|calorie:|joule:)+)'."""
    if not _has_regex_operator(regex):
        return render_regex(regex, with_types=False)
    return "(" + render_regex(regex, with_types=False) + ")"


# ---------------------------------------------------------------------------
# selector automaton (Thompson construction)

@dataclass
class SelectorAutomaton:
    regex: object = None
    start: int = 0
    accept: int = 0
    transitions: list = field(default_factory=list)   # (state, GSel, state)
    epsilons: list = field(default_factory=list)      # (state, state)
    n_states: int = 0

    def eps_closure(self, states):
        out = set(states)
        work = list(states)
        eps = {}
        for a, b in self.epsilons:
            eps.setdefault(a, []).append(b)
        while work:
            s = work.pop()
            for t in eps.get(s, ()):
                if t not in out:
                    out.add(t)
                    work.append(t)
        return out

    def accepts_symbols(self, symbols, symbol_matches):
        """Pure language membership over abstract symbols (no greediness)."""
        current = self.eps_closure({self.start})
        for sym in symbols:
            nxt = set()
            for (a, label, b) in self.transitions:
                if a in current and symbol_matches(label, sym):
                    nxt.add(b)
            current = self.eps_closure(nxt)
            if not current:
                return False
        return self.accept in current


def build_automaton(regex):
    auto = SelectorAutomaton(regex=regex)
    counter = [0]

    def new_state():
        counter[0] += 1
        return counter[0] - 1

    def build(node):
        if isinstance(node, GSel):
            a, b = new_state(), new_state()
            auto.transitions.append((a, node, b))
            return a, b
        if isinstance(node, GSeq):
            first, last = build(node.items[0])
            for item in node.items[1:]:
                a, b = build(item)
                auto.epsilons.append((last, a))
                last = b
            return first, last
        if isinstance(node, GAlt):
            a, b = new_state(), new_state()
            for item in node.items:
                x, y = build(item)
                auto.epsilons.append((a, x))
                auto.epsilons.append((y, b))
            return a, b
        if isinstance(node, (GStar, GPlus)):
            a, b = new_state(), new_state()
            x, y = build(node.item)
            auto.epsilons.append((a, x))
            auto.epsilons.append((y, b))
            auto.epsilons.append((y, x))     # repeat
            if isinstance(node, GStar):
                auto.epsilons.append((a, b))  # skip
            return a, b
        if isinstance(node, GOpt):
            a, b = new_state(), new_state()
            x, y = build(node.item)
            auto.epsilons.append((a, x))
            auto.epsilons.append((y, b))
            auto.epsilons.append((a, b))
            return a, b
        raise ValueError(node)

    auto.start, auto.accept = build(regex)
    auto.n_states = counter[0]
    return auto


def first_selectors(regex):
    """Selectors that can begin a message accepted by this regex."""
    if isinstance(regex, GSel):
        return {regex.selector}
    if isinstance(regex, GSeq):
        out = set()
        for item in regex.items:
            out |= first_selectors(item)
            if not _nullable(item):
                break
        return out
    if isinstance(regex, GAlt):
        out = set()
        for item in regex.items:
            out |= first_selectors(item)
        return out
    if isinstance(regex, (GStar, GPlus, GOpt)):
        return first_selectors(regex.item)
    raise ValueError(regex)


def _nullable(node):
    if isinstance(node, GSel):
        return False
    if isinstance(node, GSeq):
        return all(_nullable(x) for x in node.items)
    if isinstance(node, GAlt):
        return any(_nullable(x) for x in node.items)
    if isinstance(node, GPlus):
        return _nullable(node.item)
    return True    # star, opt


# ---------------------------------------------------------------------------
# matching

class NoMatch(Exception):
    pass


# match-tree nodes
@dataclass
class MSel:
    node: GSel
    args: list          # per argument: (its index in the flat argument list, alt_index)


@dataclass
class MSeq:
    parts: list


@dataclass
class MAlt:
    index: int
    part: object


@dataclass
class MRep:
    parts: list         # one entry per repetition


@dataclass
class MOpt:
    part: object        # None when absent


def match_message(automaton, shape, type_of, is_subtype):
    """Possessive-greedy match of a message shape against the automaton's
    signature regex.  `shape` is a list of (selector, [arg,...]); `type_of`
    maps an arg to its type name.  Returns the match tree or raises NoMatch.
    The tree holds no argument, only where each one is in the flat argument
    list, so it is the same for every message of the same selectors,
    argument counts and argument types.
    """
    regex = automaton.regex if isinstance(automaton, SelectorAutomaton) else automaton
    # the flat index of the first argument of each part
    starts = [0, *accumulate(len(args) for _sel, args in shape)]

    def pick_alt(arg, alts):
        ty = type_of(arg)
        for k, alt in enumerate(alts):
            if is_subtype(ty, alt.canonical()):
                return k
        raise NoMatch()

    def match_sel(node, i):
        if i >= len(shape):
            raise NoMatch()
        selector, args = shape[i]
        if selector != node.selector:
            raise NoMatch()
        spec = node.argspec
        if spec[0] == "none":
            if args:
                raise NoMatch()
            return i + 1, MSel(node, [])
        if spec[0] == "types":
            positions = spec[1]
            if len(args) != len(positions):
                raise NoMatch()
            out = [(k, pick_alt(a, alts))
                   for k, a, alts in zip(count(starts[i]), args, positions)]
            return i + 1, MSel(node, out)
        if spec[0] in ("star", "plus"):
            if spec[0] == "plus" and not args:
                raise NoMatch()
            out = [(k, pick_alt(a, spec[1])) for k, a in zip(count(starts[i]), args)]
            return i + 1, MSel(node, out)
        if spec[0] == "default":
            if len(args) != 1:
                raise NoMatch()
            ty = type_of(args[0])
            if not is_subtype(ty, spec[1].canonical()):
                raise NoMatch()
            return i + 1, MSel(node, [(starts[i], 0)])
        raise ValueError(spec)

    def match(node, i):
        if isinstance(node, GSel):
            return match_sel(node, i)
        if isinstance(node, GSeq):
            parts = []
            for item in node.items:
                i, p = match(item, i)
                parts.append(p)
            return i, MSeq(parts)
        if isinstance(node, GAlt):
            for k, item in enumerate(node.items):
                try:
                    j, p = match(item, i)
                    return j, MAlt(k, p)
                except NoMatch:
                    continue
            raise NoMatch()
        if isinstance(node, (GStar, GPlus)):
            parts = []
            while True:
                try:
                    j, p = match(node.item, i)
                except NoMatch:
                    break
                if j == i:
                    break           # nullable body: stop rather than loop
                parts.append(p)
                i = j
            if isinstance(node, GPlus) and not parts:
                raise NoMatch()
            return i, MRep(parts)
        if isinstance(node, GOpt):
            try:
                j, p = match(node.item, i)
                return j, MOpt(p)
            except NoMatch:
                return i, MOpt(None)
        raise ValueError(node)

    end, tree = match(regex, 0)
    if end != len(shape):
        raise NoMatch()
    return tree


# ---------------------------------------------------------------------------
# packing plans

@dataclass
class PackPlan:
    op: str                  # 'arg'|'unit'|'array'|'tuple'|'union'|'empty_union'|'default'
    type_name: str = ""
    children: list = field(default_factory=list)
    index: int = 0           # 'arg': the argument's index in the flat argument list
    tag: int = 0             # union field index (0-based)
    sel: object = None       # 'default': the GSel whose default value it is


def plan_packing(regex, match):
    """Map a match tree to construction steps for the derived parameter type.
    The plan reads the arguments by their index, so it serves every message
    that gives the same tree."""
    derived = derive_parameter_type(regex)

    def plan(node, m, dt):
        if isinstance(node, GSel):
            spec = node.argspec
            if spec[0] == "none":
                return PackPlan("unit")
            if spec[0] == "types":
                positions = spec[1]
                plans = []
                for (index, alt_i), alts, pos_dt in zip(
                        m.args, positions,
                        dt.fields if isinstance(dt, UTupleOf) else [dt]):
                    plans.append(_arg_plan(index, alt_i, alts, pos_dt))
                if len(positions) == 1:
                    return plans[0]
                return PackPlan("tuple", dt.canonical(), plans)
            if spec[0] in ("star", "plus"):
                elem_dt = dt.elem
                plans = [_arg_plan(index, alt_i, spec[1], elem_dt) for index, alt_i in m.args]
                return PackPlan("array", dt.canonical(), plans)
            if spec[0] == "default":
                return PackPlan("arg", dt.canonical(), index=m.args[0][0])
        if isinstance(node, GSeq):
            if len(node.items) == 1:
                return plan(node.items[0], m.parts[0], dt)
            plans = [plan(item, part, f)
                     for item, part, f in zip(node.items, m.parts, dt.fields)]
            return PackPlan("tuple", dt.canonical(), plans)
        if isinstance(node, GAlt):
            inner = plan(node.items[m.index], m.part, dt.fields[m.index])
            return PackPlan("union", dt.canonical(), [inner], tag=m.index)
        if isinstance(node, (GStar, GPlus)):
            plans = [plan(node.item, part, dt.elem) for part in m.parts]
            return PackPlan("array", dt.canonical(), plans)
        if isinstance(node, GOpt):
            inner_node = node.item
            if isinstance(inner_node, GSel) and inner_node.argspec[0] == "default":
                if m.part is None:
                    return PackPlan("default", dt.canonical(), sel=inner_node)
                return plan(inner_node, m.part, dt)
            if m.part is None:
                return PackPlan("empty_union", dt.canonical())
            inner = plan(inner_node, m.part, dt.fields[0])
            return PackPlan("union", dt.canonical(), [inner], tag=0)
        raise ValueError(node)

    def _arg_plan(index, alt_i, alts, pos_dt):
        if isinstance(pos_dt, UUnionOf):
            inner = PackPlan("arg", pos_dt.fields[alt_i].canonical(), index=index)
            return PackPlan("union", pos_dt.canonical(), [inner], tag=alt_i)
        return PackPlan("arg", pos_dt.canonical(), index=index)

    return plan(regex, match, derived)


def validate_signature(sig, reporter):
    """Declared-type agreement plus the default-value restrictions."""
    regex = sig.regex
    defaults = []

    def scan(node, under_opt):
        if isinstance(node, GSel):
            if node.argspec[0] == "default":
                defaults.append((node, under_opt))
            return
        if isinstance(node, (GStar, GPlus)):
            scan(node.item, False)
            return
        if isinstance(node, GOpt):
            scan(node.item, True)
            return
        if isinstance(node, (GSeq, GAlt)):
            for item in node.items:
                scan(item, False)

    scan(regex, False)
    if defaults:
        if any(isinstance(n, (GStar, GPlus)) for n in all_nodes(regex)):
            reporter.error(sig.line, sig.col,
                           "a grammar method with default values cannot use '+' or '*'")
        for node, under_opt in defaults:
            if not under_opt:
                reporter.error(node.line, node.col,
                               "a default value is only allowed inside an optional '(...)?' part")
    for node in all_nodes(regex):
        if isinstance(node, GOpt):
            inner = node.item
            bad = False
            if isinstance(inner, (GSeq,)) and any(
                    isinstance(x, GSel) and x.argspec[0] == "default" for x in inner.items):
                bad = True
            if isinstance(inner, GSel) and inner.argspec[0] == "default":
                if len(inner.argspec) < 2:
                    bad = True
            if bad:
                reporter.error(node.line, node.col,
                               "an optional part with a default value must have exactly one"
                               " selector and one parameter")


def all_nodes(node):
    yield node
    if isinstance(node, (GSeq, GAlt)):
        for item in node.items:
            yield from all_nodes(item)
    elif isinstance(node, (GStar, GPlus, GOpt)):
        yield from all_nodes(node.item)


def enumerate_shapes(regex, max_len, arg_choices):
    """All message shapes of length <= max_len generated by the regex.

    arg_choices(sel_node) yields possible concrete argument lists for one
    selector occurrence; used by the oracle tests.
    """
    def gen(node):
        if isinstance(node, GSel):
            for args in arg_choices(node):
                yield [(node.selector, args)]
            return
        if isinstance(node, GSeq):
            def seq(items):
                if not items:
                    yield []
                    return
                for head in gen(items[0]):
                    for tail in seq(items[1:]):
                        if len(head) + len(tail) <= max_len:
                            yield head + tail
            yield from seq(node.items)
            return
        if isinstance(node, GAlt):
            for item in node.items:
                yield from gen(item)
            return
        if isinstance(node, (GStar, GPlus)):
            low = 0 if isinstance(node, GStar) else 1
            def reps(k, acc):
                if k >= low:
                    yield acc
                if len(acc) >= max_len:
                    return
                for part in gen(node.item):
                    if len(acc) + len(part) <= max_len and part:
                        yield from reps(k + 1, acc + part)
            yield from reps(0, [])
            return
        if isinstance(node, GOpt):
            yield []
            yield from gen(node.item)
            return
        raise ValueError(node)

    seen = set()
    for shape in gen(regex):
        if len(shape) <= max_len:
            key = tuple((s, tuple(a)) for s, a in shape)
            if key not in seen:
                seen.add(key)
                yield shape
