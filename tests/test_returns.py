"""How a statement list ends: `return` leaves the method it is written in,
from any depth of `if` and `while`; `^` leaves the block it is written in;
`return` in a block unwinds to the block's method through every frame
between; and a return that leaves a scope early kills no cell that a later
read needs."""


def run_ok(run, src):
    code, out, _ = run(src)
    assert code == 0, out
    return out


def test_return_at_top_level_in_if_and_in_while(run):
    assert run_ok(run, '''package main
public object Program
    public fun top -> Int [
        return 1;
        Out println: "never";
    ]
    public fun inIf: (:x Int) -> Int [
        if ( x > 0 ) [ :y = x; return y + 1; ] else [ return 3; ];
        Out println: "never";
    ]
    public fun inWhile -> Int [
        :i = 0;
        while ( i < 10 ) [
            if ( i == 4 ) [ return i * 10; ];
            ++i;
        ];
        return 99;
    ]
    public fun voidReturn [
        :i = 0;
        while ( true ) [
            ++i;
            if ( i > 2 ) [ Out println: "leaving at ", i; return; ];
        ];
    ]
    public fun run [
        Out println: top;
        Out println: (inIf: 1);
        Out println: (inIf: 0);
        Out println: inWhile;
        voidReturn;
        Out println: "done";
    ]
end
''') == "1\n2\n3\n40\nleaving at 3\ndone\n"


def test_caret_at_top_level_and_inside_if_of_a_block(run):
    assert run_ok(run, '''package main
public object Program
    public fun run [
        :b = [ |:x Int| ^ x + 1; Out println: "never"; ];
        Out println: (b eval: 1);
        :c = [ |:x Int| if ( x > 0 ) [ ^ 1; ] else [ ^ -1; ]; Out println: "never"; ^ 0 ];
        Out println: (c eval: 5), " ", (c eval: -5);
        :d = [ |:x Int| :i = 0; while ( i < x ) [ if ( i == 2 ) [ ^ i ]; ++i; ]; ^ -1 ];
        Out println: (d eval: 10), " ", (d eval: 1);
    ]
end
''') == "2\n1 -1\n2 -1\n"


def test_return_from_a_block_through_while_true_and_catch_finally(run):
    assert run_ok(run, '''package main
private object Boom extends CyException end
public object Program
    public fun viaWhile -> Int [
        :i = 0;
        [^ true ] whileTrue: [
            ++i;
            if ( i == 3 ) [ return i; ];
        ];
        return 0;
    ]
    public fun viaCatch -> String [
        [
            [ return "from the block"; ] finally: [ Out println: "finally ran" ];
            Out println: "never";
        ] catch: [ |:e Boom| Out println: "never" ];
        return "never";
    ]
    public fun run [
        Out println: viaWhile;
        Out println: viaCatch;
    ]
end
''') == "3\nfinally ran\nfrom the block\n"


def test_caret_inside_a_method_level_if_or_while_returns_from_the_method(run):
    # a method body's `^`, also inside its `if` and `while` bodies, is `return`
    assert run_ok(run, '''package main
public object Program
    public fun pick: (:x Int) -> Int [
        if ( x > 0 ) [ ^ 1; ];
        Out println: "after the if";
        return 2;
    ]
    public fun loop -> Int [
        :i = 0;
        while ( true ) [ ++i; if ( i == 3 ) [ ^ i ]; ];
        ^ 0
    ]
    public fun run [
        Out println: (pick: 0);
        :b = [ Out println: (pick: 5); Out println: "the block goes on" ];
        b eval;
        Out println: "after b";
        Out println: ([ ^ pick: 5 ] eval);
        Out println: loop;
    ]
end
''') == "after the if\n2\n1\nthe block goes on\nafter b\n1\n3\n"


def test_caret_inside_an_if_of_a_context_block_returns_from_it(run):
    # a context block's body becomes the body of its `eval:` method
    assert run_ok(run, '''package main
private object Box
    public fun get -> Int [ return value ]
    private :value Int = 7
end
public object Program
    public fun run [
        :box = Box new;
        box addMethod: selector: #pick:
            body: (:self Box)[ |:p Int -> Int| if ( p > 0 ) [ ^ get; ]; ^ 0 ];
        Out println: (box ?pick: 5), " ", (box ?pick: -5);
    ]
end
''') == "7 0\n"


def test_return_in_init_once(run):
    assert run_ok(run, '''package main
private object Once
    private shared :n Int = 0
    private fun initOnce [
        n = 1;
        if ( n == 1 ) [ return; ];
        n = 2;
    ]
    public fun show [ Out println: "n = ", n ]
end
public object Program
    public fun run [ Once show ]
end
''') == "n = 1\n"


def test_a_return_past_a_scope_with_captured_variables(run):
    assert run_ok(run, '''package main
public object Program
    private :keep UBlock<Int>
    public fun make: (:x Int) -> Int [
        if ( x > 0 ) [
            :y Int = x * 2;
            keep = [ ^ %y ];
            (1 .. x) foreach: [ |:k Int| y = y + k ];
            return y;
        ];
        Out println: "never";
        return 0;
    ]
    public fun capture: (:x Int) -> UBlock<Int> [
        while ( true ) [
            :z Int = x + 1;
            return [ ^ %z ];
        ];
        return [ ^ 0 ];
    ]
    public fun run [
        Out println: (make: 4);
        Out println: (keep eval);
        :b = capture: 1;
        Out println: (b eval);
    ]
end
''') == "18\n8\n2\n"
