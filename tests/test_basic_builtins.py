"""The builtins of the basic types that no other test or workload reached:
`~`, `||` and `|` (with a Boolean and with a block), `ifFalse:`, `F:T:`,
`asUppercase`/`asLowercase` on Char, `isNil`/`notNil` on a value that is
not nil and `asInt` on String.  Each row is a snippet, its exit status and
output, the handler whose run it pins, and whether that handler runs: a
nil receiver or a nil for a final parameter never reaches one, and an
argument of another kind does where the handler reads it."""

import pytest

from conftest import run_src
from cyanine import builtins as bi

PROGRAM = '''package main
public object Program
    public fun run [
        %s
    ]
end
'''

DNU = "uncaught exception: DoesNotUnderstandException\n  at Program::run\n"
STR = "uncaught exception: StrException\n  at Program::run\n"

# (handler, whether it runs, snippet, exit status, stdout)
CASES = [
    ("bitnot", True, 'Out println: ~5, " ", ~(-1), " ", ~0b, " ", ~127b;', 0,
     "-6 0 -1 -128\n"),
    ("bitnot", False, ":n Int = nil; Out println: ~n;", 2, DNU),
    ("bool_or", True, 'Out println: (false || true), " ", (false | false), " ", (true || false);',
     0, "true false true\n"),
    ("bool_or", False, ":b Boolean = nil; Out println: (false || b);", 2, DNU),
    ("bool_or_block", True,
     'Out println: (false || [^ true ]), " ", (true || [^ 1 / 0 == 1 ]);', 0, "true true\n"),
    ("bool_or_block", True, ":b Boolean = nil; Out println: (false || [^ b ]);", 2, STR),
    ("if_false", True,
     '(1 > 2) ifFalse: [ Out println: "f" ]; (1 < 2) ifFalse: [ Out println: "t" ];', 0,
     "f\n"),
    ("if_false", False, ':b Boolean = nil; b ifFalse: [ Out println: "f" ];', 2, DNU),
    ("f_t", True, 'Out println: (true F: 1 T: 2), " ", (false F: 1 T: 2);', 0, "2 1\n"),
    ("f_t", True, "Out println: (true F: 1 T: nil);", 0, "nil\n"),
    ("char_upper", True, "Out println: 'a' asUppercase, '1' asUppercase, 'Z' asUppercase;",
     0, "A1Z\n"),
    ("char_upper", True, "Out println: 'ß' asUppercase;", 0, "ß\n"),
    ("char_lower", True, "Out println: 'A' asLowercase, '1' asLowercase, 'İ' asLowercase;",
     0, "a1İ\n"),
    ("char_lower", False, ":c Char = nil; Out println: c asLowercase;", 2, DNU),
    ("is_nil", True, 'Out println: 3 isNil, " ", "s" isNil, " ", Program isNil;', 0,
     "false false false\n"),
    ("is_nil", False, ":s String = nil; Out println: s isNil;", 0, "true\n"),
    ("not_nil", True, "Out println: 3 notNil;", 0, "true\n"),
    ("not_nil", False, ":s String = nil; Out println: s notNil;", 0, "false\n"),
    ("string_as_int", True, 'Out println: "42" asInt + 1, " ", " 7 " asInt, " ", "-3" asInt;',
     0, "43 7 -3\n"),
    ("string_as_int", True, 'Out println: "4x" asInt;', 2, STR),
    ("string_as_int", True, 'Out println: "99999999999" asInt;', 2, STR),
    ("string_as_int", False, ":s String = nil; Out println: s asInt;", 2, DNU),
]


@pytest.mark.parametrize("builtin, runs, body, status, expected", CASES)
def test_basic_builtin(monkeypatch, builtin, runs, body, status, expected):
    calls = []
    handler = bi._HANDLERS[builtin]

    def counted(*args):
        calls.append(args)
        return handler(*args)
    monkeypatch.setitem(bi._HANDLERS, builtin, counted)
    code, out, _program = run_src(PROGRAM % body)
    assert (code, out) == (status, expected)
    assert bool(calls) == runs, f"the builtin '{builtin}' ran {len(calls)} times"


def test_in_takes_an_interval_as_an_iterable():
    """`in:` finds its Iterable overload first for an interval, so there is
    no handler of its own for one."""
    code, out, _program = run_src(PROGRAM % (
        'Out println: (3 in: 1..5), " ", (7 in: 1..5), " ", (\'c\' in: \'a\'..\'e\');'))
    assert (code, out) == (0, "true false true\n")
    assert "in_interval" not in bi._HANDLERS
