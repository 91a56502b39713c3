"""Runtime value representations of the interpreter."""


class Cell:
    """A mutable variable slot; liveness is tracked so the classification
    soundness property can assert no dead captured slot is ever read.  The
    cell of a parameter never dies."""
    __slots__ = ("value", "alive")

    def __init__(self, value):
        self.value = value
        self.alive = True

    def __repr__(self):
        return f"Cell({self.value!r}{'' if self.alive else ', dead'})"


class PrimV:
    __slots__ = ("kind", "v")

    def __init__(self, kind, v):
        self.kind = kind    # Byte Short Int Long Float Double Char Boolean String CySymbol
        self.v = v

    def __repr__(self):
        return f"{self.kind}({self.v!r})"


class _Singleton:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


NIL = _Singleton("nil")
NOOBJECT = _Singleton("noObject")
UNIT = _Singleton("unit")      # value of argument-less grammar selectors (type Any)

# no PrimV is ever written, so every Boolean result can be one of these two
TRUE = PrimV("Boolean", True)
FALSE = PrimV("Boolean", False)

# literal kinds that make a new value at each evaluation: Strings compare by
# identity, so two evaluations of "a" are not eq:
FRESH_LITERALS = {"String": "String", "RawString": "String", "Symbol": "CySymbol"}


def literal_value(kind, v):
    """The value every evaluation of a literal shares; None for the kinds of
    FRESH_LITERALS."""
    if kind == "Nil":
        return NIL
    if kind == "NoObject":
        return NOOBJECT
    if kind in FRESH_LITERALS:
        return None
    if kind == "Boolean":
        return TRUE if v else FALSE
    return PrimV(kind, v)


class ArrayV:
    __slots__ = ("type_name", "elem_type", "elems")

    def __init__(self, type_name, elem_type, elems):
        self.type_name = type_name
        self.elem_type = elem_type
        self.elems = elems


class TupleV:
    __slots__ = ("type_name", "names", "values")

    def __init__(self, type_name, names, values):
        self.type_name = type_name
        self.names = names
        self.values = values


class UnionV:
    __slots__ = ("type_name", "names", "tag", "payload")

    def __init__(self, type_name, names, tag=None, payload=None):
        self.type_name = type_name
        self.names = names
        self.tag = tag          # field index or None when empty
        self.payload = payload


class IntervalV:
    __slots__ = ("type_name", "elem_kind", "first", "last")

    def __init__(self, type_name, elem_kind, first, last):
        self.type_name = type_name
        self.elem_kind = elem_kind
        self.first = first      # raw python int (chars use ord)
        self.last = last


class ObjectV:
    __slots__ = ("proto", "fields", "mixins", "own_methods", "is_prototype")

    def __init__(self, proto, is_prototype=False):
        self.proto = proto
        self.fields = {}
        self.mixins = []        # most recently attached first
        # selector -> body given by addMethod:, and MethodEntry -> the value
        # that replaced that method (`obj.{sig}. = value`) on this object
        self.own_methods = {}
        self.is_prototype = is_prototype

    def __repr__(self):
        return f"<{'proto ' if self.is_prototype else ''}{self.proto}>"


class BlockV:
    __slots__ = ("decl", "env", "home", "type_name", "snapshot")

    def __init__(self, decl, env, home, type_name, snapshot):
        self.decl = decl
        self.env = env                    # the env the block was made in
        self.home = home                  # the frame that made the block
        self.type_name = type_name
        self.snapshot = snapshot          # values of the %-vars at creation, in order

    def __repr__(self):
        return f"<block {self.type_name}>"


class MethodV:
    __slots__ = ("receiver", "entry", "type_name")

    def __init__(self, receiver, entry, type_name):
        self.receiver = receiver
        self.entry = entry
        self.type_name = type_name

    def __repr__(self):
        return f"<method {self.entry.owner}::{self.entry.name}>"


class NativeBlockV:
    __slots__ = ("fn", "type_name")

    def __init__(self, fn, type_name):
        self.fn = fn
        self.type_name = type_name
