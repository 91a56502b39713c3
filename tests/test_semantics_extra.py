"""Remaining spec-stated behaviors exercised end to end."""

from conftest import errors_of, run_src


def test_increment_indexed_evaluates_index_once(run):
    """++v[e] evaluates e exactly once, observed via a side-effecting index."""
    code, out, _ = run('''package main
public object Program
    private :calls Int = 0
    public fun index -> Int [ ++calls; return 1 ]
    public fun run [
        :v = {# 10, 20, 30 #};
        ++v[index];
        Out println: v[1], " after ", calls, " call";
    ]
end
''')
    assert out == "21 after 1 call\n"


def test_retrieving_primitive_eval_is_runtime_error(run):
    code, out, _ = run('''package main
private object Box
     public fun get -> Int [ return 1 ]
end
public object Program
    public fun run [
        :getMethod UBlock<Int>;
        getMethod = Box.{get -> Int}.;
        Out println: (getMethod eval);
        [
            :b = getMethod.{eval -> Int}.;
        ] catch: [ |:e StrException| Out println: "primitive method" ];
    ]
end
''')
    assert out == "1\nprimitive method\n"


def test_empty_run_exits_zero(run):
    code, out, _ = run_src('''package main
public object Program
    public fun run [ ]
end
''')
    assert code == 0 and out == ""


def test_caret_in_nested_block_does_not_finish_method(run):
    code, out, _ = run('''package main
public object Program
    public fun run [
        Out println: (aMethod: 3);
    ]
    public fun aMethod: (:x Int) -> Int [
        :b = [ ^ x < 0 ];
        (b eval) ifTrue: [ Out println: "wrong"; ];
        Out println: "method continued";
        ^ x * x;
    ]
end
''')
    assert out == "method continued\n9\n"


def test_return_in_block_unwinds_to_enclosing_method(run):
    code, out, _ = run('''package main
private object A
   public fun run2 -> Int [
      p: [ return 0 ];
      Out println: "never executed";
      return 9;
   ]
   public fun p: (:b Block)  [
      t: b;
      Out println: "never executed";
   ]
   public fun t: (:b Block) [
      b eval;
      Out println: "never executed";
   ]
end
public object Program
    public fun run [
        Out println: (A run2);
    ]
end
''')
    assert out == "0\n"


def test_repeat_creates_fresh_locals_each_iteration(run):
    code, out, _ = run('''package main
public object Program
    public fun run [
        :n = 0;
        3 repeat: [
            :value Int = n;
            ++n;
            :getBlock = [ ^value ];
            Out print: (getBlock eval);
        ];
        Out println: "";
    ]
end
''')
    assert out == "012\n"


def test_keyword_selectors_with_multiple_params_each(run):
    code, out, _ = run('''package main
private object Quadrilateral
    public fun p1: (:x1, :y1 Int)
               p2: (:x2 Int, :y2 Int)
               p3:  :x3, :y3 Int
               p4:  :x4 Int, :y4 Int [
        Out println: x1 + x2 + x3 + x4, " ", y1 + y2 + y3 + y4;
    ]
end
public object Program
    public fun run [
        Quadrilateral p1: 0, 0    p2: 100, 10
                      p3: 20, 50  p4: 120, 70;
    ]
end
''')
    assert out == "240 130\n"


def test_overloaded_at_with_symbol_and_string(run):
    code, out, _ = run('''package main
private object FullIndexable
    public fun at: (:i Int)      -> String [ ^"int" ]
    public fun at: (:s CySymbol) -> String [ ^"symbol" ]
    public fun at: (:s String)   -> String [ ^"string" ]
end
public object Program
    public fun run [
        Out println: (FullIndexable at: 0);
        Out println: (FullIndexable at: #1);
        Out println: (FullIndexable at: "2");
    ]
end
''')
    # CySymbol is a sub-prototype of String: textual order picks it first
    assert out == "int\nsymbol\nstring\n"


def test_energy_grammar_alternating_selectors(run):
    code, out, _ = run('''package main
private object EnergyStore
    public fun ( add: (wattsHour: Int | calorie: Int | joule: Int)+ ) :t [
        :v = t f2;
        Out println: (v size);
    ]
end
public object Program
    public fun run [
        EnergyStore add:
            wattsHour: 100
            calorie: 12000
            wattsHour: 355
            joule: 3200
            calorie: 8777;
    ]
end
''')
    assert out == "5\n"


def test_zero_argument_selector_in_grammar_send(run):
    code, out, _ = run('''package main
private object MyFile
    public fun ( open: (:name String)  (read: | write:) ) :t [
        :u = t f2;
        if ( u contains: #f1 ) [ Out println: (t f1), " for reading"; ]
        else [ Out println: (t f1), " for writing"; ];
    ]
end
public object Program
    public fun run [
        MyFile open: "address.txt"  read: ;
        MyFile open: "newAddress.txt"  write: ;
    ]
end
''')
    assert out == "address.txt for reading\nnewAddress.txt for writing\n"


def test_context_object_public_copy_params(run):
    code, out, _ = run('''package main
private object Acc(public :sum Int, protected :prod Int) implements UBlock<Int><Void>
    public fun eval: (:elem Int) [
        sum = sum + elem;
        prod = prod * elem;
    ]
    public fun getProd -> Int [ ^prod ]
end
public object Program
    public fun run [
        :s = 0;
        :p = 1;
        :acc = Acc new: s, p;
        {# 1, 2, 3 #} foreach: acc;
        Out println: "Sum is #{acc sum}";
        Out println: "Product is #{acc getProd}";
        Out println: s;
    ]
end
''')
    assert out == "Sum is 6\nProduct is 6\n0\n"


def test_interface_as_object(run):
    code, out, _ = run('''package main
private interface Printable
    fun printObj
end
public object Program
    public fun run [
        :inter Printable = Printable;
        Out println: (Printable isInterface);
        :any Any = Printable;
        Out println: (any isA: Printable);
    ]
end
''')
    assert out == "true\ntrue\n"


def test_interface_method_call_raises(run):
    code, out, _ = run('''package main
private interface Printable
    fun printObj
end
public object Program
    public fun run [
        :inter Printable = Printable;
        [
            inter printObj;
        ] catch: [ |:e ExceptionCannotCallInterfaceMethod|
            Out println: "cannot call interface method" ];
    ]
end
''')
    assert out == "cannot call interface method\n"


def test_protected_visible_in_subprototype():
    msgs = errors_of('''package main
private object Base
    protected shared :count Int = 0
    public fun bump [ ++count ]
end
private object Derived extends Base
    public fun peek -> Int [ ^count ]
end
public object Program
    public fun run [ ]
end
''')
    assert not msgs, msgs


def test_private_grammar_method_only_inside_its_prototype():
    """A private grammar method takes a message from its own prototype only,
    like every other private method."""
    msgs = errors_of('''package main
private object Bag
    private fun (add: Int)+ :v Array<Int> [ Out println: v size ]
    public fun fill [ self add: 1 add: 2 ]
end
public object Program
    public fun run [ Bag fill; Bag add: 1 add: 2; ]
end
''')
    assert msgs == "<test>:7:36: error: 'Bag' has no method matching 'add: _ add: _'", msgs


def test_package_qualified_reference(run):
    from cyanine.driver import compile_program
    from cyanine.interp import Interp
    lib = ('lib.cyan', '''package pB
public object Person
    @init(name)
    public :name String
end
''')
    main = ('main.cyan', '''package pA
import pB

public object Program
    public fun run [
        :p pB.Person;
        p = pB.Person new: "Ada";
        Out println: (p name);
    ]
end
''')
    program = compile_program([lib, main])
    assert not program.reporter.has_errors(), program.reporter.format_all()
    interp = Interp(program)
    assert interp.run() == 0
    assert interp.stdout() == "Ada\n"
