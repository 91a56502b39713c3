"""Implementations of the builtin prelude methods.

Every handler receives (interp, entry_method, receiver, flat_args, shape) and
returns a runtime value; `handler` finds the one of a method, and a send site
whose inline cache holds it, a proven send and a fixed send (`compiler`)
call it directly.  Integer arithmetic is width-checked: a result out of
range throws StrException.  The exceptions that handlers raise for the
interpreter to catch, CyThrow and ExitSignal, are declared here.
"""

import math
import operator
import time
import zlib

from .prototypes import BASIC_TYPES, split_generic
from .values import (FALSE, NIL, NOOBJECT, TRUE, UNIT, ArrayV, BlockV, IntervalV, MethodV,
                     NativeBlockV, ObjectV, PrimV, TupleV, UnionV)


class CyThrow(Exception):
    """A Cyan exception, thrown with the value `value`, on its way to a
    handler; `stack` is the method stack where it was thrown."""

    def __init__(self, value, stack):
        self.value = value
        self.stack = stack


class ExitSignal(Exception):
    """`System exit` ends the run with the status `code`."""

    def __init__(self, code):
        self.code = code


INT_RANGE = {"Byte": (-2 ** 7, 2 ** 7 - 1), "Short": (-2 ** 15, 2 ** 15 - 1),
              "Int": (-2 ** 31, 2 ** 31 - 1), "Long": (-2 ** 63, 2 ** 63 - 1)}
_WIDTH = {"Byte": 8, "Short": 16, "Int": 32, "Long": 64}


_FLOATS = ("Float", "Double")


def _bool(v):
    return TRUE if v else FALSE


def _int(interp, kind, v):
    lo, hi = INT_RANGE[kind]
    if lo <= v <= hi:
        return PrimV(kind, v)
    interp.str_exception(f"{kind} overflow")


def send_eval(interp, blk, args):
    """Evaluate any block-like value through the uniform send machinery."""
    if isinstance(blk, (BlockV, NativeBlockV, MethodV)):
        return interp.eval_block_value(blk, args)
    if args:
        return interp.send(blk, [("eval:", args)])
    return interp.send(blk, [("eval", [])])


# ---------------------------------------------------------------------------
# display

def to_display(interp, v, depth=0):
    if v is NIL:
        return "nil"
    if v is NOOBJECT:
        return "noObject"
    if v is UNIT:
        return "unit"
    if depth > 4:
        return "..."
    if isinstance(v, PrimV):
        return default_string(interp, v, depth)
    result = interp.send(v, [("asString", [])])
    if isinstance(result, PrimV) and result.kind in ("String", "CySymbol"):
        return result.v
    return default_string(interp, v, depth)


def default_string(interp, v, depth=0):
    if v is NIL:
        return "nil"
    if v is NOOBJECT:
        return "noObject"
    if v is UNIT:
        return "unit"
    if isinstance(v, PrimV):
        if v.kind == "Boolean":
            return "true" if v.v else "false"
        if v.kind in ("Float", "Double"):
            out = repr(float(v.v))
            return out
        return str(v.v)
    if isinstance(v, ArrayV):
        return " ".join(to_display(interp, x, depth + 1) for x in v.elems)
    if isinstance(v, TupleV):
        base, _ = split_generic(v.type_name)
        if base == "UTuple":
            inner = ", ".join(to_display(interp, x, depth + 1) for x in v.values)
        else:
            inner = ", ".join(f"{n}: {to_display(interp, x, depth + 1)}"
                              for n, x in zip(v.names, v.values))
        return "[. " + inner + " .]"
    if isinstance(v, UnionV):
        if v.tag is None:
            return "[union]"
        return f"[{v.names[v.tag]} = {to_display(interp, v.payload, depth + 1)}]"
    if isinstance(v, IntervalV):
        return f"{v.first}..{v.last}"
    if isinstance(v, (BlockV, NativeBlockV)):
        return "a Block"
    if isinstance(v, MethodV):
        return f"a method {v.entry.name}"
    if isinstance(v, ObjectV):
        if v.is_prototype and (v.proto in BASIC_TYPES or v.proto == "String"):
            # a basic-type prototype used as a value prints its default value
            return default_string(interp, interp.default_value(v.proto))
        entry = interp.table.get(v.proto)
        lines = [f"object {v.proto}"]
        if entry is not None:
            for var in interp.field_template(entry):
                if var.name in v.fields:
                    val = interp.field_read(v, var.name)
                    ty = var.resolved_type or "Any"
                    lines.append(f"   :{var.name} {ty} = "
                                 f"{to_display(interp, val, depth + 1)}")
        lines.append("end")
        return "\n".join(lines)
    return str(v)


# ---------------------------------------------------------------------------
# equality and hashing

def values_eq(interp, a, b):
    if isinstance(a, PrimV) and isinstance(b, PrimV):
        if a.kind == "CySymbol" and b.kind == "CySymbol":
            return a.v == b.v
        if a.kind == "String" or b.kind == "String":
            # Text compares identity; a symbol never eq:'s a plain string
            if a.kind != b.kind:
                return False
            return a is b
        if a.kind == b.kind:
            return a.v == b.v
        return False
    return a is b


# ---------------------------------------------------------------------------
# core Any methods

def b_eq(interp, m, recv, args, shape):
    return _bool(values_eq(interp, recv, args[0]))


def b_neq(interp, m, recv, args, shape):
    return _bool(not values_eq(interp, recv, args[0]))


def b_eq_op(interp, m, recv, args, shape):
    return _bool(values_eq(interp, recv, args[0]))


def b_neq_op(interp, m, recv, args, shape):
    result = interp.send(recv, [("==", [args[0]])])
    return _bool(not interp.truthy(result))


def b_is_nil(interp, m, recv, args, shape):
    return _bool(recv is NIL)


def b_not_nil(interp, m, recv, args, shape):
    return _bool(recv is not NIL)


def b_if_nil(interp, m, recv, args, shape):
    return args[0] if recv is NIL else recv


def b_as_string(interp, m, recv, args, shape):
    return PrimV("String", default_string(interp, recv))


def b_print(interp, m, recv, args, shape):
    interp.write(to_display(interp, recv) + "\n")
    return NOOBJECT


def b_assert(interp, m, recv, args, shape):
    if not interp.truthy(args[0]):
        interp.throw_name("AssertException", "assertion failed")
    return NOOBJECT


def b_hash_code(interp, m, recv, args, shape):
    """A basic value's hash is a fixed function of its kind and value; any
    other value answers the number its first `hashCode` of the run drew."""
    if isinstance(recv, PrimV):
        key = f"{recv.kind} {recv.v}".encode("utf-8", "surrogatepass")
        return PrimV("Int", zlib.crc32(key) & 0x7FFFFFFF)
    codes = interp.hash_codes
    if id(recv) not in codes:
        codes[id(recv)] = (len(codes) + 1, recv)
    return PrimV("Int", codes[id(recv)][0])


def b_prototype(interp, m, recv, args, shape):
    return interp.prototype_object(interp.table.get(interp.runtime_type(recv)))


def b_prototype_name(interp, m, recv, args, shape):
    return PrimV("String", interp.runtime_type(recv))


def b_parent(interp, m, recv, args, shape):
    entry = interp.table.get(interp.runtime_type(recv))
    if entry is None or not entry.supertype:
        return NIL
    return interp.prototype_object(interp.table.get(entry.supertype))


def b_is_interface(interp, m, recv, args, shape):
    entry = interp.table.get(interp.runtime_type(recv))
    return _bool(entry is not None and entry.is_interface)


def b_is_a(interp, m, recv, args, shape):
    target = interp.runtime_type(args[0])
    return _bool(interp.reaches(interp.runtime_type(recv), target))


def b_default_value(interp, m, recv, args, shape):
    return interp.default_value(interp.runtime_type(recv))


def b_clone(interp, m, recv, args, shape):
    entry = interp.table.get(interp.runtime_type(recv))
    if entry is not None and entry.is_abstract:
        return NIL
    if isinstance(recv, ObjectV):
        clone = ObjectV(recv.proto)
        clone.fields = dict(recv.fields)
        clone.own_methods = dict(recv.own_methods)
        for mobj in reversed(recv.mixins):
            mentry = interp.table.get(mobj.proto)
            clone.mixins.insert(0, interp.instantiate(mentry))
        return clone
    if isinstance(recv, ArrayV):
        return ArrayV(recv.type_name, recv.elem_type, list(recv.elems))
    return recv


def b_primitive_new(interp, m, recv, args, shape):
    entry = interp.table.get(interp.runtime_type(recv))
    return interp.instantiate(entry)


def b_cast(interp, m, recv, args, shape):
    target = interp.runtime_type(recv)
    arg = args[0]
    src = interp.runtime_type(arg)
    if target in BASIC_TYPES:
        return _convert(interp, arg, target)
    if interp.reaches(src, target):
        return arg
    interp.throw_name("CastException", f"cannot cast '{src}' to '{target}'")


def b_throw(interp, m, recv, args, shape):
    raise CyThrow(args[0], interp.stack_snapshot())


def b_does_not_understand(interp, m, recv, args, shape):
    name = args[0].v if isinstance(args[0], PrimV) else "?"
    interp.throw_name("DoesNotUnderstandException",
                      f"'{interp.runtime_type(recv)}' does not understand '{name}'")


def b_attach_mixin(interp, m, recv, args, shape):
    proto = args[0]
    entry = interp.table.get(interp.runtime_type(proto))
    if entry is None or not entry.is_mixin:
        interp.str_exception("attachMixin: needs a mixin prototype")
    if not isinstance(recv, ObjectV):
        interp.str_exception("a mixin can only be attached to an object")
    recv.mixins.insert(0, interp.instantiate(entry))
    return NOOBJECT


def b_pop_mixin(interp, m, recv, args, shape):
    if isinstance(recv, ObjectV) and recv.mixins:
        recv.mixins.pop(0)
        return _bool(True)
    return _bool(False)


# ---------------------------------------------------------------------------
# numbers

def _arith(op):
    if op in ("/", "%"):
        return b_div if op == "/" else b_mod
    op = _OPERATORS[op]

    def arith(interp, m, recv, args, shape):
        kind, r = recv.kind, op(recv.v, args[0].v)
        return PrimV(kind, r) if kind in _FLOATS else _int(interp, kind, r)
    return arith


def b_div(interp, m, recv, args, shape):
    kind, a, b = recv.kind, recv.v, args[0].v
    if kind in _FLOATS:
        if b == 0.0:
            return PrimV(kind, math.inf if a > 0 else (-math.inf if a < 0 else math.nan))
        return PrimV(kind, a / b)
    if b == 0:
        interp.str_exception("division by zero")
    return _int(interp, kind, math.trunc(a / b))


def b_mod(interp, m, recv, args, shape):
    kind, a, b = recv.kind, recv.v, args[0].v
    if kind in _FLOATS:
        return PrimV(kind, math.fmod(a, b) if b != 0.0 else math.nan)
    if b == 0:
        interp.str_exception("division by zero")
    return _int(interp, kind, a - math.trunc(a / b) * b)


def b_negate(interp, m, recv, args, shape):
    if recv.kind in ("Float", "Double"):
        return PrimV(recv.kind, -recv.v)
    return _int(interp, recv.kind, -recv.v)


def b_unary_plus(interp, m, recv, args, shape):
    return recv


def _bitop(op):
    op = _OPERATORS[op]
    return lambda interp, m, recv, args, shape: _int(interp, recv.kind, op(recv.v, args[0].v))


def b_bitnot(interp, m, recv, args, shape):
    return _int(interp, recv.kind, ~recv.v)


def _shift(op):
    def shift(interp, m, recv, args, shape):
        kind = recv.kind
        width = _WIDTH[kind]
        mask = (1 << width) - 1
        a, b = recv.v, args[0].v % width
        if op == "<.<":
            r = (a << b) & mask
        elif op == ">.>":
            r = a >> b
        else:  # >.>> logical
            r = (a & mask) >> b
        if r >= (1 << (width - 1)):
            r -= 1 << width
        return PrimV(kind, r)
    return shift


def _compare(op):
    # a Char is a one-character str, which compares by code point
    op = _OPERATORS[op]

    def compare(interp, m, recv, args, shape):
        return TRUE if op(recv.v, args[0].v) else FALSE
    return compare


def _convert(interp, v, target):
    kind = interp.runtime_type(v)
    raw = v.v if isinstance(v, PrimV) else None
    if raw is None:
        interp.throw_name("CastException", f"cannot convert to {target}")
    if kind == "Char":
        raw = ord(raw)
    if kind == "Boolean":
        raw = 1 if raw else 0
    if target in ("Byte", "Short", "Int", "Long"):
        n = int(raw)
        width = _WIDTH[target]
        n &= (1 << width) - 1
        if n >= (1 << (width - 1)):
            n -= 1 << width
        return PrimV(target, n)
    if target in ("Float", "Double"):
        return PrimV(target, float(raw))
    if target == "Char":
        return PrimV("Char", chr(int(raw) & 0xFFFF))
    if target == "Boolean":
        return _bool(raw != 0)
    if target == "String":
        return PrimV("String", default_string(interp, v))
    interp.str_exception(f"unsupported conversion to {target}")


def _converter(target):
    return lambda interp, m, recv, args, shape: _convert(interp, recv, target)


def b_to_do(interp, m, recv, args, shape):
    limit, blk = args
    kind = recv.kind
    a = ord(recv.v) if kind == "Char" else recv.v
    b = ord(limit.v) if kind == "Char" else limit.v
    takes_arg = _block_takes_args(interp, blk)
    i = a
    while i <= b:
        cur = PrimV(kind, chr(i) if kind == "Char" else i)
        send_eval(interp, blk, [cur] if takes_arg else [])
        i += 1
    return NOOBJECT


def b_repeat(interp, m, recv, args, shape):
    blk = args[0]
    takes_arg = _block_takes_args(interp, blk)
    n = recv.v if recv.kind != "Char" else ord(recv.v)
    for i in range(n):
        send_eval(interp, blk, [PrimV("Int", i)] if takes_arg else [])
    return NOOBJECT


def _block_takes_args(interp, blk):
    if isinstance(blk, BlockV):
        return any(blk.decl.param_sections)
    if isinstance(blk, NativeBlockV):
        return True
    if isinstance(blk, MethodV):
        return bool(blk.entry.param_types)
    entry = interp.table.get(interp.runtime_type(blk))
    if entry is not None:
        for anc in interp.table.chain(entry.name):
            if "eval:" in anc.groups:
                return True
            if "eval" in anc.groups:
                return False
    return False


def b_to_inject_into(interp, m, recv, args, shape):
    limit, initial, blk = args
    total = initial
    for i in range(recv.v, limit.v + 1):
        total = send_eval(interp, blk, [total, PrimV(recv.kind, i)])
    return total


def b_in_iterable(interp, m, recv, args, shape):
    found = [False]

    def probe(xs):
        if xs and values_eq(interp, recv, xs[0]):
            found[0] = True
        return NOOBJECT

    # typed as the block that foreach: of the `in:` parameter, Iterable<T>, takes
    foreach = interp.table.get(m.param_types[0]).groups["foreach:"].entries[0]
    blk = NativeBlockV(probe, foreach.param_types[0])
    interp.send(args[0], [("foreach:", [blk])])
    return _bool(found[0])


def b_char_upper(interp, m, recv, args, shape):
    upper = recv.v.upper()      # 'ß' stays: its upper case "SS" is no Char
    return PrimV("Char", upper if len(upper) == 1 else recv.v)


def b_char_lower(interp, m, recv, args, shape):
    lower = recv.v.lower()      # 'İ' stays: its lower case "i̇" is no Char
    return PrimV("Char", lower if len(lower) == 1 else recv.v)


# ---------------------------------------------------------------------------
# booleans

def b_bool_and(interp, m, recv, args, shape):
    return _bool(recv.v and interp.truthy(args[0]))


def b_bool_or(interp, m, recv, args, shape):
    return _bool(recv.v or interp.truthy(args[0]))


def b_bool_and_block(interp, m, recv, args, shape):
    if not recv.v:
        return _bool(False)
    return _bool(interp.truthy(send_eval(interp, args[0], [])))


def b_bool_or_block(interp, m, recv, args, shape):
    if recv.v:
        return _bool(True)
    return _bool(interp.truthy(send_eval(interp, args[0], [])))


def b_bool_not(interp, m, recv, args, shape):
    return _bool(not recv.v)


def b_if_true(interp, m, recv, args, shape):
    if recv.v:
        send_eval(interp, args[0], [])
    return NOOBJECT


def b_if_false(interp, m, recv, args, shape):
    if not recv.v:
        send_eval(interp, args[0], [])
    return NOOBJECT


def b_if_true_false(interp, m, recv, args, shape):
    send_eval(interp, args[0] if recv.v else args[1], [])
    return NOOBJECT


def b_if_false_true(interp, m, recv, args, shape):
    send_eval(interp, args[1] if recv.v else args[0], [])
    return NOOBJECT


def b_t_f(interp, m, recv, args, shape):
    return args[0] if recv.v else args[1]


def b_f_t(interp, m, recv, args, shape):
    return args[1] if recv.v else args[0]


# ---------------------------------------------------------------------------
# strings

def b_string_concat(interp, m, recv, args, shape):
    other = args[0]
    return PrimV("String", recv.v + to_display(interp, other))


def b_string_size(interp, m, recv, args, shape):
    return PrimV("Int", len(recv.v))


def b_string_as_int(interp, m, recv, args, shape):
    try:
        return _int(interp, "Int", int(recv.v.strip()))
    except ValueError:
        interp.str_exception(f"'{recv.v}' is not an integer")


# ---------------------------------------------------------------------------
# arrays, tuples, unions, intervals

def b_array_new(interp, m, recv, args, shape):
    base, groups = split_generic(interp.runtime_type(recv))
    elem = groups[0][0]
    return ArrayV(interp.runtime_type(recv), elem, [])


def b_array_new_size(interp, m, recv, args, shape):
    tname = interp.runtime_type(recv)
    _b, groups = split_generic(tname)
    elem = groups[0][0]
    default = interp.default_value(elem)
    return ArrayV(tname, elem, [default for _ in range(args[0].v)])


def b_array_size(interp, m, recv, args, shape):
    return PrimV("Int", len(recv.elems))


def _index_check(interp, arr, i):
    if not 0 <= i < len(arr.elems):
        interp.str_exception(f"array index {i} out of bounds (size {len(arr.elems)})")


def b_array_at(interp, m, recv, args, shape):
    i = args[0].v
    _index_check(interp, recv, i)
    return recv.elems[i]


def b_array_at_put(interp, m, recv, args, shape):
    i = args[0].v
    if i == len(recv.elems):
        recv.elems.append(args[1])
        return NOOBJECT
    _index_check(interp, recv, i)
    recv.elems[i] = args[1]
    return NOOBJECT


def b_array_at_interval(interp, m, recv, args, shape):
    iv = args[0]
    _index_check(interp, recv, iv.first)
    _index_check(interp, recv, iv.last)
    return ArrayV(recv.type_name, recv.elem_type, recv.elems[iv.first:iv.last + 1])


def b_array_at_put_interval(interp, m, recv, args, shape):
    iv, src = args
    _index_check(interp, recv, iv.first)
    _index_check(interp, recv, iv.last)
    recv.elems[iv.first:iv.last + 1] = src.elems
    return NOOBJECT


def b_array_foreach(interp, m, recv, args, shape):
    for x in list(recv.elems):
        send_eval(interp, args[0], [x])
    return NOOBJECT


def _tuple_get(index):
    return lambda interp, m, recv, args, shape: recv.values[index]


def _tuple_set(index):
    def tuple_set(interp, m, recv, args, shape):
        recv.values[index] = args[0]
        return NOOBJECT
    return tuple_set


def b_tuple_foreach(interp, m, recv, args, shape):
    for x in list(recv.values):
        send_eval(interp, args[0], [x])
    return NOOBJECT


def _union_get(index):
    def union_get(interp, m, recv, args, shape):
        if recv.tag != index:
            interp.str_exception("Illegal use of Union")
        return recv.payload
    return union_get


def _union_set(index):
    def union_set(interp, m, recv, args, shape):
        recv.tag = index
        recv.payload = args[0]
        return NOOBJECT
    return union_set


def b_tuple_new(interp, m, recv, args, shape):
    tname = interp.runtime_type(recv)
    entry = interp.table.get(tname)
    names = [n for n, _t in entry.tuple_fields]
    values = [interp.default_value(t) for _n, t in entry.tuple_fields]
    return TupleV(tname, names, values)


def b_union_new(interp, m, recv, args, shape):
    tname = interp.runtime_type(recv)
    entry = interp.table.get(tname)
    names = [n for n, _t in entry.union_fields]
    return UnionV(tname, names, None, None)


def b_union_contains(interp, m, recv, args, shape):
    want = args[0].v
    return _bool(recv.tag is not None and recv.names[recv.tag] == want)


def b_union_which(interp, m, recv, args, shape):
    if recv.tag is None:
        return NIL
    return PrimV("CySymbol", recv.names[recv.tag])


def b_interval_foreach(interp, m, recv, args, shape):
    kind = recv.elem_kind
    for i in range(recv.first, recv.last + 1):
        v = PrimV(kind, chr(i)) if kind == "Char" else (
            PrimV(kind, bool(i)) if kind == "Boolean" else PrimV(kind, i))
        send_eval(interp, args[0], [v])
    return NOOBJECT


def b_interval_inject(interp, m, recv, args, shape):
    total, blk = args
    kind = recv.elem_kind
    for i in range(recv.first, recv.last + 1):
        v = PrimV(kind, chr(i)) if kind == "Char" else PrimV(kind, i)
        total = send_eval(interp, blk, [total, v])
    return total


def b_interval_first(interp, m, recv, args, shape):
    kind = recv.elem_kind
    return PrimV(kind, chr(recv.first)) if kind == "Char" else PrimV(kind, recv.first)


def b_interval_last(interp, m, recv, args, shape):
    kind = recv.elem_kind
    return PrimV(kind, chr(recv.last)) if kind == "Char" else PrimV(kind, recv.last)


# ---------------------------------------------------------------------------
# blocks and control

def b_block_eval(interp, m, recv, args, shape):
    return interp.eval_block_value(recv, args)


def b_while_true(interp, m, recv, args, shape):
    while interp.truthy(send_eval(interp, recv, [])):
        send_eval(interp, args[0], [])
    return NOOBJECT


def b_while_false(interp, m, recv, args, shape):
    while not interp.truthy(send_eval(interp, recv, [])):
        send_eval(interp, args[0], [])
    return NOOBJECT


def b_loop(interp, m, recv, args, shape):
    while True:
        interp.steps += 1       # `loop` counts its iterations as steps, too,
        interp.skips += 1       # which the inline caches do not serve
        send_eval(interp, recv, [])


def b_repeat_until(interp, m, recv, args, shape):
    while True:
        send_eval(interp, recv, [])
        if interp.truthy(send_eval(interp, args[0], [])):
            return NOOBJECT


def b_hide_exception(interp, m, recv, args, shape):
    try:
        send_eval(interp, recv, [])
    except CyThrow:
        pass
    return NOOBJECT


def b_retry(interp, m, recv, args, shape):
    while True:
        try:
            send_eval(interp, recv, [])
            return NOOBJECT
        except CyThrow:
            continue


def _find_handler(interp, catchers, exc):
    """The first catch argument with an eval: overload accepting the
    exception, searched in textual order (the same search as any message
    send): (catcher, shape of its eval: send, what `lookup` answers for
    it), or None."""
    shape = [("eval:", [exc])]
    for catcher in catchers:
        hit = interp.handler_lookup(catcher, shape)
        if hit is not None:
            return catcher, shape, hit
    return None


def b_catch_family(interp, m, recv, args, shape):
    catchers = []
    finally_b = retry_b = twt = twf = None
    for sel, sargs in shape:
        if sel == "catch:":
            catchers.extend(sargs)
        elif sel == "finally:":
            finally_b = sargs[0]
        elif sel == "retry:":
            retry_b = sargs[0]
        elif sel == "tryWhileTrue:":
            twt = sargs[0]
        elif sel == "tryWhileFalse:":
            twf = sargs[0]
    universal = not catchers and (retry_b is not None or twt is not None
                                  or twf is not None)
    result = NOOBJECT
    try:
        while True:
            try:
                result = send_eval(interp, recv, [])
                break
            except CyThrow as t:
                handler = _find_handler(interp, catchers, t.value)
                if handler is None and not universal:
                    raise
                if handler is not None:
                    interp.send_found(*handler)
                if retry_b is not None:
                    send_eval(interp, retry_b, [])
                    continue
                if twt is not None:
                    if interp.truthy(send_eval(interp, twt, [])):
                        continue
                    break
                if twf is not None:
                    if not interp.truthy(send_eval(interp, twf, [])):
                        continue
                    break
                break
    finally:
        if finally_b is not None:
            send_eval(interp, finally_b, [])
    return result


# ---------------------------------------------------------------------------
# switch, dynamic sends, addMethod

def b_switch(interp, m, recv, args, shape):
    else_block = None
    i = 0
    pending_cases = None
    for sel, sargs in shape:
        if sel == "case:":
            pending_cases = sargs
        elif sel == "do:":
            for case in pending_cases or []:
                if interp.truthy(interp.send(recv, [("==", [case])])):
                    send_eval(interp, sargs[0], [])
                    return NOOBJECT
            pending_cases = None
        elif sel == "else:":
            else_block = sargs[0]
    if else_block is not None:
        send_eval(interp, else_block, [])
    return NOOBJECT


def b_selector_param(interp, m, recv, args, shape):
    parts = []
    current = None
    for sel, sargs in shape:
        if sel == "selector:":
            if current is not None:
                parts.append(current)
            name = sargs[0].v
            current = (name, [])
        elif sel == "param:":
            current[1].extend(sargs)
    if current is not None:
        parts.append(current)
    if len(parts) == 1 and not parts[0][0].endswith(":") and not parts[0][1]:
        return interp.send(recv, [(parts[0][0], [])])
    return interp.send(recv, parts)


def b_add_method(interp, m, recv, args, shape):
    selectors = []
    body = None
    for sel, sargs in shape:
        if sel == "selector:":
            selectors.append(sargs[0].v)
        elif sel == "body:":
            body = sargs[0]
    name = "".join(s if s.endswith(":") else s for s in selectors)
    has_params = any(sel == "param:" for sel, _ in shape)
    if has_params and not name.endswith(":"):
        name = name + ":"
    if body is None:
        interp.str_exception("addMethod: needs a 'body:' argument")
    if isinstance(recv, ObjectV) and recv.is_prototype:
        interp.dyn_methods[(recv.proto, name)] = body
    elif isinstance(recv, ObjectV):
        recv.own_methods[name] = body
    else:
        interp.str_exception("addMethod: needs an object receiver")
    interp.invalidate_caches()
    return NOOBJECT


# ---------------------------------------------------------------------------
# In / Out / System

def _read(interp, read):
    """What `read` answers, a text read from standard input; at its end, a
    StrException."""
    text = read()
    if text is None:
        interp.str_exception("end of input")
    return text


def _number(interp, parse):
    """A token of standard input, parsed by `parse`."""
    tok = interp.read_token()
    if tok is None:
        interp.str_exception("end of input")
    try:
        return parse(tok)
    except ValueError:
        interp.str_exception(f"'{tok}' is not a number")


def b_read_int(interp, m, recv, args, shape):
    return _int(interp, "Int", _number(interp, int))


def b_read_float(interp, m, recv, args, shape):
    return PrimV("Float", _number(interp, float))


def b_read_double(interp, m, recv, args, shape):
    return PrimV("Double", _number(interp, float))


def b_read_string(interp, m, recv, args, shape):
    return PrimV("String", _read(interp, interp.read_token))


def b_read_line(interp, m, recv, args, shape):
    return PrimV("String", _read(interp, interp.read_line))


def b_read_char(interp, m, recv, args, shape):
    return PrimV("Char", _read(interp, interp.read_char))


def _print_args(interp, shape):
    flat = [a for _s, sargs in shape for a in sargs]
    return "".join(to_display(interp, a) for a in flat)


def b_println(interp, m, recv, args, shape):
    interp.write(_print_args(interp, shape) + "\n")
    return NOOBJECT


def b_print_out(interp, m, recv, args, shape):
    interp.write(_print_args(interp, shape))
    return NOOBJECT


def b_sys_exit(interp, m, recv, args, shape):
    raise ExitSignal(0)


def b_sys_exit_code(interp, m, recv, args, shape):
    raise ExitSignal(args[0].v)


def b_sys_gc(interp, m, recv, args, shape):
    return NOOBJECT


def b_sys_time(interp, m, recv, args, shape):
    return PrimV("Long", int(time.time() * 1000))


def b_sys_stack(interp, m, recv, args, shape):
    for proto, meth in interp.stack_snapshot():
        interp.write(f"  at {proto}::{meth}\n")
    return NOOBJECT


def b_ctx_newobject(interp, m, recv, args, shape):
    entry = interp.table.get(interp.runtime_type(recv))
    inst = interp.instantiate(entry)
    inst.fields["newSelf$"] = args[0]
    return inst


# ---------------------------------------------------------------------------
# dispatch table

_TABLE = {
    "eq": b_eq, "neq": b_neq, "eq_op": b_eq_op, "neq_op": b_neq_op,
    "is_nil": b_is_nil, "not_nil": b_not_nil, "if_nil": b_if_nil,
    "as_string": b_as_string, "print": b_print, "assert": b_assert,
    "hash_code": b_hash_code, "prototype": b_prototype,
    "prototype_name": b_prototype_name, "parent": b_parent,
    "is_interface": b_is_interface, "is_a": b_is_a,
    "default_value": b_default_value, "clone": b_clone,
    "primitive_new": b_primitive_new, "cast": b_cast, "throw": b_throw,
    "does_not_understand": b_does_not_understand,
    "attach_mixin": b_attach_mixin, "pop_mixin": b_pop_mixin,
    "negate": b_negate, "unary_plus": b_unary_plus, "bitnot": b_bitnot,
    "to_do": b_to_do, "repeat": b_repeat, "to_inject_into": b_to_inject_into,
    "in_iterable": b_in_iterable, "char_upper": b_char_upper, "char_lower": b_char_lower,
    "bool_and": b_bool_and, "bool_or": b_bool_or,
    "bool_and_block": b_bool_and_block, "bool_or_block": b_bool_or_block,
    "bool_not": b_bool_not, "if_true": b_if_true, "if_false": b_if_false,
    "if_true_false": b_if_true_false, "if_false_true": b_if_false_true,
    "t_f": b_t_f, "f_t": b_f_t,
    "string_concat": b_string_concat, "string_size": b_string_size,
    "string_as_int": b_string_as_int,
    "array_new": b_array_new, "array_new_size": b_array_new_size,
    "array_size": b_array_size, "array_at": b_array_at,
    "array_at_put": b_array_at_put, "array_at_interval": b_array_at_interval,
    "array_at_put_interval": b_array_at_put_interval,
    "array_foreach": b_array_foreach, "tuple_foreach": b_tuple_foreach,
    "union_contains": b_union_contains, "union_which": b_union_which,
    "tuple_new": b_tuple_new, "union_new": b_union_new,
    "interval_foreach": b_interval_foreach, "interval_inject": b_interval_inject,
    "interval_first": b_interval_first, "interval_last": b_interval_last,
    "block_eval": b_block_eval, "while_true": b_while_true,
    "while_false": b_while_false, "loop": b_loop, "repeat_until": b_repeat_until,
    "hide_exception": b_hide_exception, "retry": b_retry,
    "catch_family": b_catch_family, "switch": b_switch,
    "selector_param": b_selector_param, "add_method": b_add_method,
    "println": b_println, "print_out": b_print_out,
    "sys_exit": b_sys_exit, "sys_exit_code": b_sys_exit_code,
    "sys_gc": b_sys_gc, "sys_time": b_sys_time, "sys_stack": b_sys_stack,
    "ctx_newobject": b_ctx_newobject,
    "read_int": b_read_int, "read_float": b_read_float, "read_double": b_read_double,
    "read_string": b_read_string, "read_line": b_read_line, "read_char": b_read_char,
}

# a builtin with parameters, (name, *parameters), has the handler that the
# factory `name` makes of its parameters
_FACTORIES = {
    "arith": _arith, "cmp": _compare, "bitop": _bitop, "shift": _shift,
    "convert": _converter, "tuple_get": _tuple_get, "tuple_set": _tuple_set,
    "union_get": _union_get, "union_set": _union_set,
}

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
              "==": operator.eq, "!=": operator.ne,
              "&": operator.and_, "|": operator.or_, "~|": operator.xor}

# builtin id -> handler; one with parameters is made on its first use, and
# no handler holds state, so every program and interpreter can share them
_HANDLERS = dict(_TABLE)


def handler(m):
    """The handler of the builtin method `m`."""
    fn = _HANDLERS.get(m.builtin)
    if fn is None:
        b = m.builtin
        if not isinstance(b, tuple):
            raise RuntimeError(f"missing builtin '{b}'")
        fn = _HANDLERS[b] = _FACTORIES[b[0]](*b[1:])
    return fn


def call(interp, m, recv, args, shape):
    return handler(m)(interp, m, recv, args, shape)
