"""Declaration and body checks beyond the corpus programs."""

from conftest import errors_of, run_src


def wrap(body, extra=""):
    return f'''package main
{extra}
public object Program
    public fun run [
{body}
    ]
end
'''


def test_covariant_return_allowed():
    msgs = errors_of('''package main
private object PersonX end
private object WorkerX extends PersonX end
private object A
    public fun get -> PersonX [ return PersonX ]
end
private object B extends A
    public override fun get -> WorkerX [ return WorkerX ]
end
public object Program
    public fun run [ ]
end
''')
    assert not msgs, msgs


def test_contravariant_return_rejected():
    msgs = errors_of('''package main
private object Personx end
private object Workerx extends Personx end
private object A
    public fun get -> Workerx [ return Workerx ]
end
private object B extends A
    public override fun get -> Personx [ return Personx ]
end
public object Program
    public fun run [ ]
end
''')
    assert "subtype" in msgs


def test_overloads_must_be_contiguous():
    msgs = errors_of('''package main
private object FullIndexable
    public fun at: (:i Int) -> String [ ^"a" ]
    public fun size -> Int [ ^0 ]
    public fun at: (:s String) -> String [ ^"b" ]
end
public object Program
    public fun run [ ]
end
''')
    assert "appear in sequence" in msgs


def test_final_method_not_overridable():
    msgs = errors_of('''package main
private object Car
    public final fun name -> String [ ^"car" ]
end
private object Sports extends Car
    public override fun name -> String [ ^"sports" ]
end
public object Program
    public fun run [ ]
end
''')
    assert "final method" in msgs


def test_override_without_inherited_rejected():
    msgs = errors_of('''package main
private object A
    public override fun f [ ]
end
public object Program
    public fun run [ ]
end
''')
    assert "does not redefine" in msgs


def test_abstract_method_needs_abstract_prototype():
    msgs = errors_of('''package main
private object A
    public abstract fun f
end
public object Program
    public fun run [ ]
end
''')
    assert "abstract method" in msgs


def test_nonabstract_sub_must_define_abstract_methods():
    msgs = errors_of('''package main
private abstract object Shape
    public abstract fun draw
end
private object Circle extends Shape
end
public object Program
    public fun run [ ]
end
''')
    assert "must define the inherited abstract method 'draw'" in msgs


def test_interface_completeness():
    msgs = errors_of('''package main
private interface Savable
    fun save
end
private object Worker implements Savable
end
public object Program
    public fun run [ ]
end
''')
    assert "should implement method 'save'" in msgs


def test_indexing_signatures_limited():
    msgs = errors_of('''package main
private object T
    public fun [] at: (:a Int, :b Int, :c Int) -> Int [ ^0 ]
end
public object Program
    public fun run [ ]
end
''')
    assert "only three signatures" in msgs


def test_variable_method_name_clash():
    msgs = errors_of('''package main
private object T
    public fun total -> Int [ ^0 ]
    private :total Int
end
public object Program
    public fun run [ ]
end
''')
    assert "same name as a method" in msgs


def test_void_variable_rejected():
    msgs = errors_of(wrap("        :x Void;"))
    assert "'Void' is not a legal variable type" in msgs


def test_return_value_in_void_method():
    msgs = errors_of('''package main
private object T
    public fun f [ return 3; ]
end
public object Program
    public fun run [ ]
end
''')
    assert "not allowed in a" in msgs


def test_method_must_return_value():
    msgs = errors_of('''package main
private object T
    public fun f -> Int [ :x = 1; ]
end
public object Program
    public fun run [ ]
end
''')
    assert "must return a value" in msgs


def test_mixed_dynamic_modes_rejected():
    msgs = errors_of(wrap('        :p = Program; p name: "x" ?age: 1;'))
    assert "all checked or all '?'-prefixed" in msgs


def test_dynamic_send_skips_checking():
    msgs = errors_of(wrap("        :p = Program; :x = p ?whatever: 1;"))
    assert not msgs, msgs


def test_dynamic_result_is_any():
    msgs = errors_of(wrap("        :p = Program;\n        if ( p ?get ) [ Out println: 1; ];"))
    assert not msgs, msgs


def test_ifnil_same_type_rule():
    msgs = errors_of(wrap('        :s String;\n        :t = s ifNil: 3;'))
    assert "ifNil:" in msgs
    msgs2 = errors_of(wrap('        :s String;\n        :t String = s ifNil: "d";'))
    assert not msgs2, msgs2


def test_declared_var_not_visible_in_initializer():
    msgs = errors_of(wrap("        :n = n;"))
    assert "unknown identifier 'n'" in msgs


def test_type_pseudo_function():
    msgs = errors_of(wrap("        :x Int;\n        :y type(x);\n        y = 3;"))
    assert not msgs, msgs
    msgs2 = errors_of(wrap("        :y type(zz);"))
    assert "does not name a visible local variable" in msgs2


def test_new_only_through_prototypes():
    msgs = errors_of('''package main
private object Test2
    public fun init: (:s String) [ ]
end
public object Program
    public fun run [
        :t = Test2 clone;
        :u = t new: "x";
    ]
end
''')
    assert "only accessible through prototypes" in msgs


def test_init_not_callable_outside():
    msgs = errors_of('''package main
private object Test2
    public fun init: (:s String) [ ]
end
public object Program
    public fun run [
        :t = Test2 clone;
        t init: "x";
    ]
end
''')
    assert "'init' methods can only be called" in msgs


def test_init_with_user_new_same_signature():
    msgs = errors_of('''package main
private object Test2
    public fun new: (:k Int) -> Test2 [ return Test2 ]
    public fun init: (:n Int) [ ]
end
public object Program
    public fun run [ ]
end
''')
    assert "same" in msgs and "signature" in msgs


def test_tf_requires_same_types():
    msgs = errors_of(wrap('        :x = true T: 1 F: "a";'))
    assert "same type" in msgs


def test_switch_case_types_match_receiver():
    msgs = errors_of(wrap('''        :n = 1;
        n switch: case: "one" do: [ Out println: 1; ];'''))
    assert "receiver type" in msgs


def test_catch_argument_needs_eval():
    msgs = errors_of(wrap('        [ :x = 1; ] catch: 42;'))
    assert "catch:" in msgs and "eval" in msgs


def test_parameters_read_only():
    msgs = errors_of('''package main
private object T
    public fun f: (:x Int) [ x = 1; ]
end
public object Program
    public fun run [ ]
end
''')
    assert "read-only" in msgs


def test_grammar_param_with_block_is_read_only():
    msgs = errors_of('''package main
private object BlockBox
    public fun ((add: Block)*) :t [
       b = t[0];
    ]
    public fun go [ b eval; ]
    private :b UBlock
end
public object Program
    public fun run [ ]
end
''')
    assert "read-only" in msgs


def test_a_while_condition_in_a_block_must_be_a_boolean():
    msgs = errors_of('''package main
public object Program
    public fun run [
        :n Int = 3;
        [ while ( n ) [ n = n - 1; ]; ] eval;
    ]
end
''')
    assert "<test>:5:11: error: the 'while' condition must be a Boolean, not 'Int'" in msgs


def test_an_interpolated_expression_is_reported_at_its_literal():
    msgs = errors_of('''package main
public object Program
    public fun run [
        Out println: "a#{zz}", "b#yy";
    ]
end
''')
    assert "<test>:4:22: error: unknown identifier 'zz'" in msgs
    assert "<test>:4:32: error: unknown identifier 'yy'" in msgs


def test_grammar_methods_walk_supertype_chain(run):
    code, out, _ = run('''package main
private object Base2
    public fun (add: (Int)+) :t [ Out println: (t size); ]
end
private object Sub2 extends Base2
end
public object Program
    public fun run [
        Sub2 add: 1, 2, 3;
    ]
end
''')
    assert out == "3\n"


def test_user_does_not_understand_override(run):
    code, out, _ = run('''package main
private object Flexible
    public override fun doesNotUnderstand: (:methodName CySymbol, :args Array<Any>) [
        Out println: "missing " + methodName + " with " + (args size) + " args";
    ]
end
public object Program
    public fun run [
        :f = Flexible new;
        f ?color: 1 ?width: 2;
    ]
end
''')
    assert out == "missing color:width: with 2 args\n"


def test_isa_argument_must_be_prototype():
    msgs = errors_of(wrap("        :e = Program;\n        :c = Program;\n        assert: (c isA: e);"))
    assert "isA:" in msgs


def test_cast_needs_prototype_receiver():
    msgs = errors_of(wrap("        :a = Program;\n        :p = a cast: Program;"))
    assert "'cast:' can only be sent to a prototype" in msgs


def test_throw_rejects_restricted_context_object():
    msgs = errors_of('''package main
private object ContextException(public :number &Int) extends CyException
end
private object T
    public fun test [
        :n = 0;
        throw: ContextException(n);
    ]
end
public object Program
    public fun run [ ]
end
''')
    # the restricted gate rejects it during resolution (rule f); the
    # checkThrow wording would apply had resolution succeeded
    assert "[rule f]" in msgs or "restricted context object cannot be thrown" in msgs


def test_readline_readchar(run):
    code, out, _ = run('''package main
public object Program
    public fun run [
        Out println: (In readLine);
        Out println: (In readChar);
    ]
end
''', stdin="first line\nxyz\n")
    assert out == "first line\nx\n"


def test_boolean_short_circuit_blocks(run):
    code, out, _ = run('''package main
public object Program
    public fun run [
        :v = {# 1, 2 #};
        :index = 5;
        if ( index < (v size) && [ ^v[index] == 1 ] ) [
            Out println: "found";
        ]
        else [
            Out println: "guarded";
        ];
    ]
end
''')
    assert out == "guarded\n"


def test_elvis_evaluates_both_sides(run):
    code, out, _ = run('''package main
public object Program
    private :hits Int = 0
    public fun probe -> String [ ++hits; return "fallback" ]
    public fun run [
        :s String = "set";
        :r = s ifNil: probe;
        Out println: r, " ", hits;
    ]
end
''')
    assert out == "set 1\n"    # the parameter is evaluated even when unused


def test_print_method_stack(run):
    code, out, _ = run('''package main
public object Program
    public fun run [ inner; ]
    public fun inner [ System printMethodStack; ]
end
''')
    assert "at Program::inner" in out and "at Program::run" in out


def test_typed_slot_initial_values_are_checked():
    msgs = errors_of(wrap("", extra='''private object Holder
    private :x Int = "abc"
    private shared :ys Array<Int> = {# "a" #}
    private const :k Int = 1
end'''))
    assert msgs.splitlines() == [
        "<test>:3:13: error: 'String' is not a subtype of 'Int'",
        "<test>:4:13: error: 'Array<String>' is not a subtype of 'Array<Int>'",
    ]


def test_a_mixin_body_is_checked_once_with_its_flattened_copy():
    """The checker checks a mixin's own bodies and the copies flattened into
    its users; an error in one body is reported once."""
    msgs = errors_of(wrap("", extra='''private object Window
    public fun draw [ ]
end
private mixin(Window) object Border
    public fun width -> Int [ return "wide" ]
end
private object Framed extends Window mixin Border
end'''))
    assert msgs.splitlines() == [
        "<test>:6:31: error: cannot return 'String' from a method declared to return 'Int'",
    ]


def test_a_mixin_body_sees_its_host():
    """In a mixin's own body `self` is the host named in `mixin(T)`: a
    self-send finds the mixin's methods, then the host's, protected ones
    too; `super` starts at the host; and `self` passes as a host."""
    assert errors_of(wrap("", extra='''private object Window
    public fun draw -> Int [ return 1 ]
    protected fun size -> Int [ return 2 ]
    public fun same: (:w Window) -> Boolean [ return w == self ]
end
private mixin(Window) object Border
    public override fun draw -> Int [ return (super draw) + size + width ]
    public fun width -> Int [ return 3 ]
    public fun check -> Boolean [ return same: self ]
end''')) == ""
    msgs = errors_of(wrap("", extra='''private object Window end
private object Door
    public fun height -> Int [ return 1 ]
end
private mixin(Window) object Border
    public fun width [ height; ]
end'''))
    assert msgs.splitlines() == ["<test>:7:24: error: unknown identifier 'height'"]


def test_grammar_default_values_are_typed():
    msgs = errors_of(wrap("", extra='''private object Window
    public fun (create: x1: Int (b: Int = "x")?) :t [ ]
end'''))
    assert msgs.splitlines() == ["<test>:3:34: error: 'String' is not a subtype of 'Int'"]


def test_a_value_assigned_to_a_method_is_typed_as_the_method(run):
    """`obj.{sig}. = value` makes `value` the method: it must be an
    unrestricted block that takes the method's arguments and answers its
    return type."""
    extra = '''private object A
    public fun get -> Int [ return 1 ]
    public fun put: (:x Int) [ ]
end'''
    msgs = errors_of(wrap('''        :a = A new;
        a.{get}. = "x";
        a.{put: Int}. = [ |:x String| Out println: x ];
        a.{get}. = [ ^ "y" ];
        a.{nothing}. = [ ^ 2 ];
        :n = 3;
        a.{get}. = [ ^ n ];''', extra=extra))
    assert msgs.splitlines() == [
        "<test>:9:9: error: 'String' is not a subtype of 'UBlock<Int>'",
        "<test>:10:9: error: 'UBlockProto|UBlock<String><Void>' is not a subtype of"
        " 'UBlock<Int><Void>'",
        "<test>:11:9: error: 'UBlockProto|UBlock<String>' is not a subtype of 'UBlock<Int>'",
        "<test>:12:10: error: 'A' has no method with signature 'nothing'",
        "<test>:14:9: error: an r-block of type 'RBlockProto|Block<Int>' cannot flow into"
        " the unrestricted type 'UBlock<Int>' [rule f]",
    ]
    code, out, _ = run(wrap('''        :a = A new;
        a.{get -> Int}. = [ ^ 2 ];
        a.{put: Int}. = [ |:x Int| Out println: x ];
        a put: a get;''', extra=extra))
    assert (code, out) == (0, "2\n")


def test_a_percent_variable_outside_a_method_body_names_a_local():
    """Block analysis checks the %-variables of method bodies; the checker
    rejects the others, in slot initial values and grammar defaults, in the
    same words, so that each that compiles names a local."""
    msgs = errors_of(wrap("", extra='''private object Holder
    private :x Int = 1
    private :y = %x
    private :z Int = [ %x = 2; ^ 3 ] eval
    public fun (make: Int (b: Any = %x)?) :t [ ]
end'''))
    assert msgs.splitlines() == [
        "<test>:4:18: error: '%' can only be used inside a block",
        "<test>:5:24: error: '%x' does not name a visible local variable",
        "<test>:6:37: error: '%' can only be used inside a block",
    ]
