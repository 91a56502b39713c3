"""Interpreter semantics: dispatch, exceptions, clone, builtins."""

import itertools
import os
import re
import subprocess
import sys

import pytest

from conftest import compile_src, errors_of, run_src
from cyanine import cyast as A
from cyanine.compiler import Compiler
from cyanine.driver import compile_program
from cyanine.interp import Interp
from cyanine.prelude import PRELUDE_SOURCE


HIER = '''package main
private object Food end
private object Grass extends Food end
private object FishMeat extends Food end
private object Plant extends Food end
private object Animal
    public fun eat: (:food Food) -> Int [ return 0 ]
end
private object Cow extends Animal
     public override fun eat: (:food Grass) -> Int [ return 1 ]
end
private object Fish extends Animal
    public override fun eat: (:food FishMeat) -> Int [ return 2 ]
    public override fun eat: (:food Plant) -> Int [ return 3 ]
end
public object Program
    public fun run [ ]
end
'''


def flattened_slot_scan(interp, recv, arg):
    """Brute-force `eat:` dispatch: the first method of the flattened slot
    list (sub-prototype first, textual order) whose parameter `arg` reaches."""
    for entry in interp.table.chain(recv):
        for m in entry.methods:
            if m.name == "eat:" and len(m.param_types) == 1 \
                    and interp.reaches(arg, m.param_types[0]):
                return m
    return None


def test_dispatch_equals_flattened_slot_scan():
    """Dispatch determinism: resolution equals a brute-force scan of the
    flattened (sub-prototype first, textual order) slot list."""
    program = compile_src(HIER)
    assert not program.reporter.has_errors()
    interp = Interp(program)
    interp.setup()
    table = program.table
    receivers = ["Animal", "Cow", "Fish"]
    args = ["Food", "Grass", "FishMeat", "Plant"]
    for recv, arg in itertools.product(receivers, args):
        robj = interp.proto_objects[recv]
        aobj = interp.proto_objects[arg]
        hit = interp.lookup(robj, [("eat:", [aobj])])
        assert hit is not None, (recv, arg)
        _kind, (m, owner, _mx, _plan) = hit
        expected = flattened_slot_scan(interp, recv, arg)
        assert m is expected, (recv, arg, m, expected)
        # determinism: ten repeats resolve identically
        for _ in range(10):
            again = interp.lookup(robj, [("eat:", [aobj])])
            assert again[1][0] is m


def test_eq_semantics(run):
    code, out, _ = run('''package main
public object Program
    public fun run [
        Out println: (1 == 1 && (1 eq: 1));
        Out println: (#name eq: #name);
        Out println: ("name" eq: "name");
        :s = "x";
        :p = s;
        Out println: (s eq: p);
        Out println: (1 eq: 2);
    ]
end
''')
    assert out == "true\ntrue\nfalse\ntrue\nfalse\n"


def test_clone_shallow_never_aliases_field_store(run):
    code, out, _ = run('''package main
private object Holder
    public :n Int = 1
    public :inner Inner
end
private object Inner
    public :v Int
end
public object Program
    public fun run [
        :a = Holder new;
        a inner: (Inner new);
        :b = a clone;
        b n: 99;
        Out println: (a n);
        (b inner) v: 7;
        Out println: ((a inner) v);
    ]
end
''')
    assert out == "1\n7\n"    # fields unshared, referenced objects shared


def test_clone_does_not_copy_shared(run):
    code, out, _ = run('''package main
private object Date2
    public fun bump [ ++today ]
    public fun report -> Int [ ^today ]
    private shared :today Int = 0
end
public object Program
    public fun run [
        :a = Date2 new;
        :b = a clone;
        a bump;
        b bump;
        Out println: (Date2 report);
    ]
end
''')
    assert out == "2\n"


def test_interval_and_array_builtins(run):
    code, out, _ = run('''package main
public object Program
    public fun run [
        :letters = {# 'b', 'a', 'e', 'i', 'o', 'u', 'c', 'd' #};
        Out println: letters[1..5];
        Out println: (letters size);
        letters at: 0 put: 'z';
        Out println: letters[0];
        [ :x = letters[99]; ] catch: [ |:e StrException| Out println: "oob" ];
    ]
end
''')
    assert out == "a e i o u\n8\nz\noob\n"


def test_division_by_zero_and_overflow(run):
    code, out, _ = run('''package main
public object Program
    public fun run [
        [ :x = 1 / 0; ] catch: [ |:e StrException| Out println: (e message) ];
        [ :big = 2147483647; ++big; ] catch: [ |:e StrException| Out println: (e message) ];
    ]
end
''')
    assert out == "division by zero\nInt overflow\n"


def test_a_method_value_sent_before_it_is_set_is_a_cyan_exception(run):
    code, out, _ = run('''package main
public object Program
    private :n Int = self twice: 2
    public fun twice: (:k Int) -> Int = [ |:k Int -> Int| ^k * 2 ]
    public fun run [ Out println: n; ]
end
''')
    assert (code, out) == (2, "uncaught exception: StrException\n  at Program::<fields>\n"
                              "  at Program::<init>\n")


def test_float_arithmetic_reaches_infinity_and_back(run):
    """Each operator is its own handler, so `+` never computes a `%` that
    is undefined for an infinite operand."""
    code, out, _ = run('''package main
public object Program
    public fun run [
        :x = 1.0 / 0.0;
        Out println: x + 1.0, " ", x * 2.0, " ", 0.0 - x, " ", 1.0 / x;
    ]
end
''')
    assert (code, out) == (0, "inf inf -inf 0.0\n")


def test_uncaught_exception_exit_2_and_stack(run):
    src = '''package main
private object ZeroException extends CyException end
public object Program
    public fun run [
        inner;
    ]
    public fun inner [
        throw: ZeroException;
    ]
end
'''
    code, out, _ = run_src(src)
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "uncaught exception: ZeroException"
    assert "  at Program::inner" in lines
    assert "  at Program::run" in lines


def test_finally_runs_once_per_frame_in_all_paths(run):
    code, out, _ = run('''package main
private object Boom extends CyException end
public object Program
    private :count Int = 0
    public fun run [
        [ :x = 1; ] finally: [ ++count ];
        [ [ throw: Boom; ] finally: [ ++count ];
        ] catch: [ |:e Boom| ];
        [ [ throw: Boom; ] catch: [ |:e Boom| ] finally: [ ++count ];
        ] catch: CatchAll;
        Out println: count;
    ]
end
''')
    assert out == "3\n"


def test_retry_reruns_protected_block(run):
    code, out, _ = run('''package main
private object Fail extends CyException end
public object Program
    private :n Int = 0
    public fun run [
        [
            ++n;
            if ( n < 3 ) [ throw: Fail; ];
        ] catch: CatchAll
          retry: [ Out println: "again"; ];
        Out println: n;
    ]
end
''')
    assert out == "again\nagain\n3\n"


def test_exception_handler_search_is_textual_order(run):
    code, out, _ = run('''package main
private object Base extends CyException end
private object Derived extends Base end
private object Catcher
    public fun eval: (:e Base)    [ Out println: "base first" ]
    public fun eval: (:e Derived) [ Out println: "never" ]
end
public object Program
    public fun run [
        [ throw: Derived; ] catch: Catcher;
    ]
end
''')
    assert out == "base first\n"


def test_dynamic_added_method_and_per_object_priority(run):
    code, out, _ = run('''package main
private object Box
     public fun get -> Int  [ return value ]
     public fun set: (:other Int) [ value = other ]
     private :value Int = 0
end
public object Program
    public fun run [
        :myBox = Box new;
        myBox set: 10;
        myBox addMethod: selector: #show body: (:self Box)[ Out println: "mine #{get}" ];
        Box addMethod: selector: #show body: (:self Box)[ Out println: "proto #{get}" ];
        :fresh = Box new;
        fresh set: 3;
        fresh ?show;
        myBox ?show;
    ]
end
''')
    assert out == "proto 3\nmine 10\n"


def test_method_object_is_the_overload_with_that_signature(run):
    """`.{sig}` takes the overload with exactly the parameter types of `sig`,
    not the first of its arity, searched from the run-time type of the
    receiver (an override that narrows the return type still matches); so
    does assigning to it, which leaves the other overloads as they are."""
    code, out, _ = run('''package main
private object Food end
private object Grass extends Food end
private object P
    public fun f: (:x Int) -> String [ ^"int" ]
    public fun f: (:x String) -> String [ ^"string" ]
    public fun meal -> Food [ ^Food ]
end
private object Q extends P
    public override fun f: (:x String) -> String [ ^"q string" ]
    public override fun meal -> Grass [ ^Grass ]
end
public object Program
    public fun run [
        Out println: (P.{f: String -> String}. eval: "a");
        Out println: (P.{f: Int -> String}. eval: 1);
        :p P = Q new;
        Out println: (p.{f: String -> String}. eval: "a"), " ", (p.{f: Int -> String}. eval: 1);
        Out println: (p.{meal -> Food}. eval prototypeName);
        P.{f: String -> String}. = [ |:x String -> String| ^"new" ];
        Out println: (P f: 1), " ", (P f: "b");
    ]
end
''')
    assert (code, out) == (0, "string\nint\nq string int\nGrass\nint new\n")


def test_replacing_a_method_of_an_object_takes_that_overload_only(run):
    """`q.{sig}. = block` on an object that is no prototype replaces the one
    overload `sig` denotes, on `q` alone: the other overloads of the name and
    other objects of the prototype keep their methods."""
    code, out, _ = run('''package main
private object P
    public fun f: (:x Int) -> String [ ^"int" ]
    public fun f: (:x String) -> String [ ^"string" ]
end
public object Program
    public fun run [
        :q P = P new;
        q.{f: String -> String}. = [ |:x String -> String| ^"new" ];
        Out println: (q f: 1), " ", (q f: "b"), " ", (q.{f: String -> String}. eval: "c");
        Out println: ((P new) f: "d"), " ", (q clone f: "e");
    ]
end
''')
    assert (code, out) == (0, "int new new\nstring new\n")


def test_interpolation_reports_the_tokens_after_its_expression(errors):
    """An interpolated expression must take the whole text between '#{' and
    '}': a chained comparison or a stray ')' is an error at the literal, not
    a silently shorter expression."""
    out = errors('''package main
public object Program
    public fun run [
        :a = 1;
        :b = 2;
        Out println: "#{a < b < 0}";
        Out println: "#{a + b) * 100}";
    ]
end
''')
    assert out.splitlines() == [
        "<test>:6:22: error: in string interpolation: end of expression expected, found '<'",
        "<test>:7:22: error: in string interpolation: end of expression expected, found ')'",
    ]


def test_increment_diagnostics_point_at_the_increment(errors):
    """Every node `++`/`--` becomes is at the operator's position, so the
    send of `-` it makes is reported there, at the literal inside an
    interpolation, beside the illegal target."""
    out = errors('''package main
public object Program
    public fun run [ Out println: "#{-- nil}"; ]
end
''')
    assert out.splitlines() == [
        "<test>:3:35: error: 'Nil' has no method matching '- _'",
        "<test>:3:35: error: illegal assignment target",
    ]


def test_selector_param_equivalence(run):
    code, out, _ = run('''package main
private object Map
    public fun key: (:k String) value: (:v Int) -> Int [ ^v ]
end
public object Program
    public fun run [
        :a = Map selector: "key:" param: "One" selector: "value:" param: 1;
        :b = Map ?key: "One" ?value: 1;
        Out println: (a ?prototypeName), " ", a, " ", b;
    ]
end
''')
    assert out == "Int 1 1\n"


def test_order_of_initialization(run):
    code, out, _ = run('''package main
private object Test
    public  const  :one   = 1
    public  const  :two   = one + 1
    private shared :three = two + 1
    private shared :four  = three + 1
    private :five Int = four + 1
    private :six Int = five + 1
    private :nine Int
    private fun initOnce [ nine = five + 4; ]
    public fun show [
        Out println: one, two, three, four, five, six, nine;
    ]
end
public object Program
    public fun run [ Test show; ]
end
''')
    assert out == "1234569\n"


def test_union_wrong_field_always_raises(run):
    code, out, _ = run('''package main
public object Program
    public fun run [
        :u = UUnion<Int, String> new;
        u f1: 5;
        [ :s = u f2; Out println: "got stale"; ]
            catch: [ |:e StrException| Out println: "raised" ];
        u f2: "x";
        Out println: (u f2);
        [ :n = u f1; Out println: "got stale"; ]
            catch: [ |:e StrException| Out println: "raised" ];
    ]
end
''')
    assert out == "raised\nx\nraised\n"


def test_void_method_yields_noobject_and_sends_fail(run):
    code, out, _ = run('''package main
private object T
    public fun nothing [ ]
end
public object Program
    public fun run [
        :x = T ?nothing;
        [ x ?foo; ] catch: [ |:e StrException| Out println: "noObject send" ];
    ]
end
''')
    assert out == "noObject send\n"


def test_asstring_default_format(run):
    code, out, _ = run('''package main
private object Rectangle
   public fun width: (:nw Int) height: (:nh Int) [ w = nw; h = nh; ]
   private :w Int
   private :h Int
end
public object Program
    public fun run [
        Rectangle width: 100 height: 50;
        Out println: (Rectangle asString);
    ]
end
''')
    assert out == "object Rectangle\n   :w Int = 100\n   :h Int = 50\nend\n"


def test_main_with_run_args(run):
    src = '''package main
public object Program
    public fun run: (:args Array<String>) [
        args foreach: [ |:a String| Out println: a ];
    ]
end
'''
    program = compile_src(src)
    assert not program.reporter.has_errors()
    interp = Interp(program, argv=["alpha", "beta"])
    assert interp.run() == 0
    assert interp.stdout() == "alpha\nbeta\n"


def test_missing_run_is_diagnosed():
    msgs = errors_of("package main\npublic object Program\nend")
    assert "does not define 'run'" in msgs


def test_system_exit_code(run):
    code, out, _ = run_src('''package main
public object Program
    public fun run [
        Out println: "before";
        System exit: 3;
        Out println: "after";
    ]
end
''')
    assert code == 3
    assert out == "before\n"


def test_cast_builtin(run):
    code, out, _ = run('''package main
private object P end
private object Q extends P end
public object Program
    public fun run [
        Out println: (Int cast: false);
        Out println: (Int cast: 'A');
        Out println: (Char cast: 66);
        :q Any = Q;
        :p = P cast: q;
        Out println: (p prototypeName);
        [ :bad = Q cast: P; ] catch: [ |:e CastException| Out println: "cast failed" ];
    ]
end
''')
    assert out == "0\n65\nB\nQ\ncast failed\n"


@pytest.mark.parametrize("src", [
    "package main\npublic object Foo\nend\n",
    "package main\npublic object Program\n    public fun run [ :x Int = \"s\"; ]\nend\n",
], ids=["no_main", "body_error"])
def test_interp_rejects_a_program_that_failed_to_compile(src):
    program = compile_src(src)
    assert not program.ok()
    with pytest.raises(ValueError) as info:
        Interp(program)
    assert str(info.value) == program.reporter.format_all()


def test_determinism_two_runs_byte_identical():
    src = open("corpus/03_multimethods.cyan").read()
    outs = []
    for _ in range(2):
        program = compile_src(src)
        interp = Interp(program)
        interp.run()
        outs.append(interp.stdout())
    assert outs[0] == outs[1]


# --- per-call-site inline caches ------------------------------------------------

GREETER_PRELUDE = PRELUDE_SOURCE + '''
public object Greeter
    public fun greet: (:p Any) [ Out println: p ?name ]
end
'''


def test_programs_with_the_same_type_names_keep_their_own_answers():
    """A prelude site is shared by every program in the process; each Interp
    caches what its own `Person` answers there."""
    def person_program(decls):
        src = f"package main\n{decls}\npublic object Program\n" \
              "    public fun run [ Greeter greet: Person new ]\nend\n"
        program = compile_program([("person.cyan", src)], prelude_text=GREETER_PRELUDE)
        assert program.ok(), program.reporter.format_all()
        return program
    ana = person_program('private object Person\n'
                         '    public fun name -> String [ return "Ana" ]\nend')
    bo = person_program('private object Named\n'
                        '    public fun name -> String [ return "Bo" ]\nend\n'
                        'private object Person extends Named end')
    outputs = []
    for program in (ana, bo, ana, bo):
        interp = Interp(program)
        assert interp.run() == 0
        outputs.append(interp.stdout())
    assert outputs == ["Ana\n", "Bo\n", "Ana\n", "Bo\n"]


def test_one_program_on_two_interps_with_cache_writes():
    """Sends cached before addMethod: and a method replacement answer anew
    after them, on every Interp that runs the Program."""
    program = compile_src('''package main
private object Food end
private object Animal
    public fun eat: (:food Food) -> Int [ return 1 ]
end
private object Cow extends Animal end
public object Program
    public fun feed: (:a Animal) -> Int [ return a eat: Food ]
    public fun run [
        Out println: (feed: Cow), " ", (feed: Animal);
        Cow addMethod: selector: #eat param: Food returnType: Int
            body: (:self Animal)[ |:p Food -> Int| ^2 ];
        Out println: (feed: Cow), " ", (feed: Animal), " ", (feed: Cow new);
        Animal.{eat: Food}. = [ |:p Food -> Int| ^3 ];
        Out println: (feed: Cow), " ", (feed: Animal), " ", (feed: Animal new);
    ]
end
''')
    assert program.ok(), program.reporter.format_all()
    runs = []
    for _ in range(2):
        interp = Interp(program)
        runs.append((interp.run(), interp.stdout()))
    assert runs == [(0, "1 1\n2 1 2\n2 3 3\n")] * 2


def test_sends_workload_misses_are_few():
    """The benchmark's `sends` program: 89,271 sends from a handful of
    monomorphic sites, so all but a few are cache hits."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "programs",
                        "sends.cyan")
    with open(path, encoding="utf-8") as fh:
        program = compile_program([(path, fh.read())])
    interp = Interp(program, stdin_text="4 9")
    assert interp.run() == 0
    assert interp.steps == 89271
    assert interp.misses < 50
    assert interp.misses + interp.skips < 50


def test_mixins_grammar_methods_and_catch_handlers_hit_the_cache():
    """A loop of a grammar-method send, a `catch:` whose block throws, and
    `attachMixin:`, `draw:` and `popMixin`: from the second iteration on,
    every send is a cache hit, the `super` send of the mixin's `draw:`
    included."""
    program = compile_src('''package main
private object Oops extends CyException end
private object Handler
    public fun eval: (:e Oops) [ Out println: "caught" ]
end
private object Window
    public fun draw: (:n Int) -> Int [ ^n + 1 ]
end
private mixin(Window) object Shade
    public override fun draw: (:n Int) -> Int [ ^(super draw: n) * 2 ]
end
private object Store
    public fun ( add: (wattsHour: Int | joule: Int)+ ) :t [ Out println: t f2 size ]
end
public object Program
    public fun run [
        :n = In readInt;
        :i = 0;
        :w = Window new;
        [^ i < n ] whileTrue: [
            Store add: joule: i wattsHour: 2;
            [ throw: Oops ] catch: Handler;
            w attachMixin: Shade;
            Out println: (w draw: i);
            w popMixin;
            ++i;
        ];
    ]
end
''')
    assert program.ok(), program.reporter.format_all()
    counts = []
    for n in (1, 5):
        interp = Interp(program, stdin_text=str(n))
        assert interp.run() == 0
        assert interp.stdout().splitlines()[-3:] == ["2", "caught", str(2 * n)]
        counts.append(interp.misses + interp.skips)
    assert counts[1] - counts[0] == 0


def test_a_node_without_a_handler_cannot_run():
    """Desugaring leaves no Creation and no MetaStat behind; the compile
    step has no generator and no closure for them, and says so."""
    program = compile_src(HIER)
    compiler = Compiler(program.table, program.sites)
    with pytest.raises(RuntimeError, match="cannot evaluate a Creation node"):
        compiler.tree(A.Creation())
    with pytest.raises(RuntimeError, match="cannot execute a MetaStat node"):
        compiler.tree([A.MetaStat()])


SUPER_IN_B = '''package main
private object A
    public fun hello -> String [ return "A" ]
end
private object B extends A
    public override fun hello -> String [
        :r String = "";
        %s
        return "B(" + r + ")"
    ]
end
private object C extends B
    public override fun hello -> String [ return "C" ]
    public fun viaB -> String [ return super hello ]
end
public object Program
    public fun run [ Out println: C new viaB; ]
end
'''


@pytest.mark.parametrize("body", [
    "[ r = super hello; ] eval;",
    ":i = 0; [^ i < 1 ] whileTrue: [ r = super hello; ++i; ];",    # an inline loop
])
def test_super_in_a_block_starts_above_its_method(run, body):
    """`super` is lexical: in a block, or in the body of a loop the compile
    step runs inline, of `B::hello` it searches above B, also when self is a
    C, which overrides `hello`."""
    assert run(SUPER_IN_B % body)[:2] == (0, "B(A)\n")


def test_super_in_a_slot_initial_value_starts_above_its_prototype(run):
    """B's instance variable is initialized in the `<fields>` frame of a C,
    and its `super name` still searches above B."""
    code, out, _program = run('''package main
private object A
    public fun name -> String [ return "A" ]
end
private object B extends A
    public :x String = super name
    public override fun name -> String [ return "B" ]
    public fun show -> String [ return x ]
end
private object C extends B
    public override fun name -> String [ return "C" ]
end
public object Program
    public fun run [ Out println: C new show; ]
end
''')
    assert (code, out) == (0, "A\n")


def test_super_in_a_block_of_an_attached_mixin(run):
    """In a block of a mixin that `attachMixin:` attached, `super` searches
    the mixins after the running one, then the receiver's chain; a mixin
    attached twice runs twice, so its super site keys by the mixin index."""
    code, out, _program = run('''package main
private object Window
    public fun draw -> String [ return "window" ]
end
private mixin(Window) object Shade
    public override fun draw -> String [
        :r String = "";
        [ r = super draw; ] eval;
        return "shade(" + r + ")"
    ]
end
private object Fancy extends Window
    public override fun draw -> String [ return "fancy(" + super draw + ")" ]
end
public object Program
    public fun run [
        :w = Window new;
        w attachMixin: Shade;
        Out println: w draw;
        :f = Fancy new;
        f attachMixin: Shade;
        Out println: f draw;
        w attachMixin: Shade;
        Out println: w draw;
    ]
end
''')
    assert (code, out) == (0, "shade(window)\nshade(fancy(window))\nshade(shade(window))\n")


@pytest.mark.parametrize("body, expected", [
    (":n Int = nil; Out println: 1 + n;", None),
    (":f Float = nil; Out println: 3 == f;", "false\n"),
    (":c Char = nil; Out println: 'a' < c;", None),
    (":n Int = nil; Out println: ({# 1, 2 #} at: n);", None),     # also at:(Interval<Int>)
    (":n Int = nil; Out println: n;", "nil\n"),
])
def test_nil_takes_no_final_builtin_parameter(run, body, expected):
    """A builtin's handler reads the value of a parameter of a final type of
    the builtin world, so nil does not take one: `3 == f` finds Any's `==`,
    as the checker did, and the others do not understand the message.  The
    parameter of a grammar builtin, as `println:`'s, names no type, and nil
    takes it."""
    code, out, _program = run(f'''package main
public object Program
    public fun run [ {body} ]
end
''')
    if expected is None:
        assert (code, out) == (2, "uncaught exception: DoesNotUnderstandException\n"
                                  "  at Program::run\n")
    else:
        assert (code, out) == (0, expected)


HASHES = '''package main
private object P end
public object Program
    public fun run [
        :p = P new;
        :q = P new;
        :n Any = nil;
        Out println: (3 hashCode), " ", ("three" hashCode), " ", ('c' hashCode), " ",
            (3.5 hashCode), " ", (true hashCode);
        Out println: (p hashCode == p hashCode), " ", (p hashCode != q hashCode), " ",
            (n hashCode == n hashCode), " ", (n hashCode != p hashCode);
    ]
end
'''


def test_hash_codes_are_the_same_in_every_run(tmp_path):
    """A basic value hashes by its kind and value, whatever Python's string
    hash seed; any other value keeps the number its first hashCode drew,
    and no other value draws it."""
    path = tmp_path / "hashes.cyan"
    path.write_text(HASHES)
    outs = set()
    for seed in ("1", "2", "3"):
        proc = subprocess.run([sys.executable, "-m", "cyanine.cli", "run", str(path)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    first, second = outs.pop().splitlines()
    assert len(set(first.split())) == 5
    assert second == "true true true true"


ECHO_IN = '''package main
public object Program
    public fun run [
        :n = In readInt;
        Out println: "[", (In readChar), "|", (In readString), "|", (In readInt), "]", n;
    ]
end
'''


@pytest.mark.parametrize("stdin, out", [
    ("7\ta\tbc\t-3", "[a|bc|-3]7\n"),
    ("7\r\na\r\nbc\r\n-3\r\n", "[a|bc|-3]7\n"),
    ("7\u00a0a\u2028bc\u00a0 -3", "[a|bc|-3]7\n"),
    (" 7  xyz  -3   \n\t ", "[x|yz|-3]7\n"),
])
def test_in_reads_tokens_and_chars_between_blanks(run, stdin, out):
    """A token is a longest run of non-blank characters, and a character the
    first non-blank one; tabs, CR LF, U+00A0 and U+2028 are blanks."""
    assert run(ECHO_IN, stdin=stdin)[:2] == (0, out)


@pytest.mark.parametrize("stdin", ["", " \t\r\n\u00a0\u2028 "])
def test_in_at_the_end_of_input_throws(run, stdin):
    code, out, _ = run('''package main
public object Program
    public fun run [
        [ Out println: In readInt; ] catch: [ |:e StrException| Out println: (e message) ];
        [ Out println: In readChar; ] catch: [ |:e StrException| Out println: (e message) ];
        Out println: In readString;
    ]
end
''', stdin=stdin)
    assert (code, out) == (2, "end of input\nend of input\nuncaught exception: StrException\n"
                              "  at Program::run\n")


def test_in_blanks_are_what_str_isspace_accepts():
    """`In` finds blanks with the regular expression `\\s`, which on `str`
    matches exactly the characters `str.isspace` accepts."""
    blank = re.compile(r"\s")
    assert [c for c in range(sys.maxunicode + 1)
            if bool(blank.match(chr(c))) != chr(c).isspace()] == []


@pytest.mark.parametrize("reader, stdin, out", [
    ("readInt", " 42 ", "42"),
    ("readInt", "x1", "'x1' is not a number"),
    ("readInt", "2147483648", "Int overflow"),
    ("readInt", "", "end of input"),
    ("readFloat", "2.5", "2.5"),
    ("readFloat", "y", "'y' is not a number"),
    ("readFloat", "", "end of input"),
    ("readDouble", "1e3", "1000.0"),
    ("readDouble", "-", "'-' is not a number"),
    ("readString", " ab c", "ab"),
    ("readString", " ", "end of input"),
    ("readLine", "ab c\nd", "ab c"),
    ("readLine", "", "end of input"),
    ("readChar", "  zq", "z"),
    ("readChar", "\n", "end of input"),
])
def test_each_reader_of_in_answers_or_throws(run, reader, stdin, out):
    """Each `In` method reads with its own handler; a token that is no
    number, an Int out of range and the end of input throw StrException."""
    code, got, _ = run(f'''package main
public object Program
    public fun run [
        [ Out println: (In {reader}); ] catch: [ |:e StrException| Out println: (e message) ];
    ]
end
''', stdin=stdin)
    assert (code, got) == (0, out + "\n")
