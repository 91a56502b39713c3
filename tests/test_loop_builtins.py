"""The loop and branch builtins that the compile step does not run inline:
`whileFalse:` and `repeatUntil:` sent to a block that is not a literal,
`to:do:` on Int and on Char, `to:inject:into:`, `ifTrue:ifFalse:` and
`ifFalse:ifTrue:`.  Each case checks its output and that its builtin's
handler ran."""

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

CASES = [
    ("while_false", ":n = 0; :w = [^ n > 2 ]; w whileFalse: [ ++n ]; Out println: n;",
     "3"),
    ("repeat_until", ":n = 0; :b = [ ++n; ]; b repeatUntil: [^ n >= 3 ]; Out println: n;",
     "3"),
    ("to_do", ":s = 0; 1 to: 4 do: [ |:i Int| s = s + i; ]; Out println: s;", "10"),
    ("to_do", ":s = 0; 1 to: 4 do: [ s = s + 1; ]; Out println: s;", "4"),
    ("to_do", ":s = \"\"; 'a' to: 'd' do: [ |:c Char| s = s + c; ]; Out println: s;",
     "abcd"),
    ("to_inject_into",
     "Out println: (1 to: 4 inject: 0 into: [ |:acc Int, :i Int| ^acc + i ]);", "10"),
    ("if_true_false", "(1 < 2) ifTrue: [ Out println: 1 ] ifFalse: [ Out println: 2 ];",
     "1"),
    ("if_true_false", "(1 > 2) ifTrue: [ Out println: 1 ] ifFalse: [ Out println: 2 ];",
     "2"),
    ("if_false_true", "(1 < 2) ifFalse: [ Out println: 1 ] ifTrue: [ Out println: 2 ];",
     "2"),
    ("if_false_true", "(1 > 2) ifFalse: [ Out println: 1 ] ifTrue: [ Out println: 2 ];",
     "1"),
]


@pytest.mark.parametrize("builtin, body, expected", CASES)
def test_loop_builtin(monkeypatch, builtin, body, expected):
    calls = []
    handler = bi._HANDLERS[builtin]

    def counted(*args):
        calls.append(args)
        return handler(*args)
    monkeypatch.setitem(bi._HANDLERS, builtin, counted)
    code, out, _program = run_src(PROGRAM % body)
    assert (code, out) == (0, expected + "\n")
    assert calls, f"the builtin '{builtin}' did not run"
