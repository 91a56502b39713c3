"""Block levels, classification, interface types, and the restricted rules."""

from conftest import compile_src, errors_of, run_src
from cyanine.cyast import MethodDecl
from cyanine.block_analysis import analyze_method
from cyanine.desugar import desugar_units
from cyanine.diagnostics import Reporter
from cyanine.parser import parse_source


def infos_of(method_src, params="(:p Int)"):
    src = f"package p\nobject T\npublic fun test: {params} -> Int [\n{method_src}\nreturn 0;\n]\nend"
    cu, rep = parse_source(src)
    assert not rep.has_errors(), rep.format_all()
    units, _ = desugar_units(cu.units, rep)
    m = [s for s in units[0].slots if isinstance(s, MethodDecl) and s.name == "test:"][0]
    return analyze_method(m, rep), rep


def test_paper_level_classification_table():
    src = '''
    :a1  = 1;
    :b1_1 = [ ^a1 ];
    :b1_2 = [ ^0 ];
    :b1_3 = [
        :a2  = 2;
        :b2_1 = [ ^a1 ];
        :b2_2 = [ a2 = 1 ];
        :b2_3 = [ return p ];
        :b2_4 = [ Out println: %a1 ];
        :b2_5 = [
            :a3   = 3;
            :b3_1 = [ b1_1 eval ];
            :b3_2 = [ ++a2; return ];
            :b3_3 = [ ^a3 ];
            :b3_4 = [ return ];
            :b3_5 = [ ^p ];
        ];
    ];
    '''
    infos, rep = infos_of(src)
    assert not rep.has_errors(), rep.format_all()
    assert [i.bl for i in infos] == [1, -1, 1, 1, 2, 0, -1, 2, 1, 2, 3, 0, -1]
    assert [i.declared_at_level for i in infos] == [1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3]
    assert [i.restricted for i in infos] == [
        True, False, True, True, True, True, False, True,
        True, True, True, True, False]


def test_bl_monotonic_under_added_access():
    base, _ = infos_of(":a1 = 1; :b = [ ^0 ];")
    assert base[0].bl == -1
    deeper, _ = infos_of(":a1 = 1; :b = [ ^a1 ];")
    assert deeper[0].bl == max(base[0].bl, 1) == 1


def test_percent_and_bare_conflict():
    _, rep = infos_of(":y = 2; :c = [ y = y + 1; Out println: %y ];")
    assert "both 'y' and '%y'" in rep.format_all()


def test_percent_on_parameter_rejected():
    _, rep = infos_of(":c = [ Out println: %p ];")
    assert "illegal to use '%' with a parameter" in rep.format_all()


def test_interface_types():
    src = '''package main
public object Program
    public fun run [
        :i = 0;
        :ub = [ |:x Int| ^x*x ];
        :rb = [ ^ i < 5 ];
        :multi = [ | eval: (:key String) eval: (:value Int) | Out println: key, value; ];
    ]
end
'''
    program = compile_src(src)
    assert not program.reporter.has_errors(), program.reporter.format_all()
    infos = next(v for (proto, _k), v in program.block_infos.items()
                 if proto == "Program" and v)
    types = [i.interface_type for i in infos]
    assert types[0] == "UBlock<Int><Int>"
    assert types[1] == "Block<Boolean>"
    assert types[2] == "UBlock<String><Int><Void>"


def test_rule_b_instance_variable():
    msgs = errors_of('''package main
private object T
    private :block Block
end
public object Program
    public fun run [ ]
end
''')
    assert "[rule b]" in msgs


def test_rule_c_method_return():
    msgs = errors_of('''package main
private object T
    public fun returnBlock -> Block [ return [ return ] ]
end
public object Program
    public fun run [ ]
end
''')
    assert "[rule c]" in msgs


def test_rule_c_block_returning_rblock():
    msgs = errors_of('''package main
public object Program
    public fun run [
        :a1 = 1;
        :b1 Block<Block<Int>>;
        b1 = [ ^[ ^a1 ] ];
    ]
end
''')
    assert "[rule c]" in msgs


def test_rule_d_level_violation():
    msgs = errors_of('''package main
public object Program
    public fun run [
        :a1 = 1;
        :b1 Block;
        if ( a1 == 1 ) [
            :a2 = 2;
            b1 = [ Out println: a2 ];
        ];
        b1 eval;
    ]
end
''')
    assert "[rule d]" in msgs


def test_rule_d_accepts_lower_level_from_deep():
    msgs = errors_of('''package main
public object Program
    public fun run [
        :a1 = 1;
        :b Block;
        if ( true ) [
            if ( true ) [
                b = [ ++a1 ];
            ];
        ];
        b eval;
        Out println: a1;
    ]
end
''')
    assert not msgs, msgs


def test_rule_e_restricted_param_accepts_any_level():
    msgs = errors_of('''package main
private object Loop
    public fun until: (:test Block<Boolean>)  do: (:b Block)  [
        b eval;
        (test eval) ifTrue: [ until: test do: b ];
    ]
end
public object Program
    public fun run [
        :i = 0;
        if ( true ) [
            if ( true ) [
                :deep = 9;
                Loop until: [ ^ i + deep >= 12 ] do: [ ++i ];
            ];
        ];
        Out println: i;
    ]
end
''')
    assert not msgs, msgs


def test_rule_e_parameter_is_level_zero_source():
    msgs = errors_of('''package main
private object T
    public fun keep: (:b Block) [
        :local Block;
        local = b;
        local eval;
    ]
end
public object Program
    public fun run [ ]
end
''')
    assert not msgs, msgs


def test_rule_f_any_parameter():
    msgs = errors_of('''package main
private object Test
   public fun test [
       [ :n = 0;
         do: [ ++n ];
       ] eval;
   ]
   public fun do: (:any Any) [ ]
end
public object Program
    public fun run [ ]
end
''')
    assert "[rule f]" in msgs


def test_restricted_context_object_rules():
    # r-co returned from a method: rule (c)
    msgs = errors_of('''package main
private object Sum(:sum &Int)
     public fun eval: (:x Int) [ sum = sum + x ]
end
private object P
    public fun makeError -> Sum [
        :sum = 0;
        return Sum(sum);
    ]
end
public object Program
    public fun run [ ]
end
''')
    assert "[rule c]" in msgs


def test_restricted_co_assignment_level():
    msgs = errors_of('''package main
private object Sum(:sum &Int)
     public fun eval: (:x Int) [ sum = sum + x ]
end
public object Program
    public fun run [
        :mySum Sum;
        :b = [
           :sum1 Int = 0;
           mySum = Sum(sum1);
        ];
        b eval;
    ]
end
''')
    assert "[rule d]" in msgs


def test_unrestricted_context_object_is_free():
    msgs = errors_of('''package main
private object DoNotSum(:sum Int)
     public fun eval: (:x Int) [ sum = sum + x ]
end
private object Keeper
    private :kept DoNotSum
    public fun keep: (:d DoNotSum) [ kept = d ]
end
public object Program
    public fun run [ ]
end
''')
    assert not msgs, msgs


def test_classification_soundness_no_dead_cell_reads():
    """Runtime property: with the rules enforced, no evaluation ever reads a
    captured local slot after its frame is popped (liveness instrumentation)."""
    src = '''package main
public object Program
    public fun run [
        :i = 0;
        :keep Block;
        [^ i < 3 ] whileTrue: [
            keep = [ ++i ];
            keep eval;
        ];
        Out println: i;
        :j = 0;
        3 repeat: [ |:k Int|
            :inner = [ ^ k + j ];
            j = inner eval;
        ];
        Out println: j;
    ]
end
'''
    code, out, _ = run_src(src)
    assert code == 0
    assert out == "3\n3\n"
