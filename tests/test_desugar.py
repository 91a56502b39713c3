import copy

from cyanine import cyast as A
from cyanine.desugar import Desugarer, split_interpolation
from cyanine.diagnostics import Reporter
from cyanine.parser import parse_source


def desugar(src):
    cu, rep = parse_source(src)
    assert not rep.has_errors(), rep.format_all()
    d = Desugarer(cu.units, rep)
    units = d.run()
    return units, rep


def test_public_variable_expansion():
    units, rep = desugar('''package p
object University
    public :name String = ""
end
''')
    assert not rep.has_errors()
    uni = units[0]
    text = A.pp_unit(uni)
    assert "_name" in text
    assert "name -> String" in text
    assert "name:" in text
    names = [s.name for s in uni.slots if isinstance(s, A.VarDecl)]
    assert "_name" in names and "name" not in names


def test_private_variable_untouched():
    units, _ = desugar("package p\nobject A\n  private :x Int\nend")
    var = [s for s in units[0].slots if isinstance(s, A.VarDecl)][0]
    assert var.name == "x"


def test_final_public_var_makes_final_accessors():
    units, _ = desugar("package p\nobject A\n  public final :dist Float\nend")
    methods = [s for s in units[0].slots if isinstance(s, A.MethodDecl)
               and s.name in ("dist", "dist:")]
    assert methods and all(m.is_final for m in methods)


def test_init_metaobject_creates_both_methods():
    units, rep = desugar('''package p
object Person
    @init(name, age)
    public :name String
    public :age Int
end
''')
    assert not rep.has_errors()
    names = [s.name for s in units[0].slots if isinstance(s, A.MethodDecl)]
    assert "name:age:" in names
    assert "new:" in names


def test_bare_init_uses_textual_order():
    units, _ = desugar('''package p
object BinTree
    @init
    public :left Int
    public :value Int
    public :right Int
end
''')
    names = [s.name for s in units[0].slots if isinstance(s, A.MethodDecl)]
    assert "left:value:right:" in names


def test_init_unknown_variable_errors():
    _, rep = desugar("package p\nobject A\n  @init(zork)\n  public :x Int\nend")
    assert "unknown instance variable 'zork'" in rep.format_all()


def test_synthesized_new_from_init():
    units, _ = desugar('''package p
object Person
    public fun init: (:name String, :age Int) [ ]
end
''')
    names = [s.name for s in units[0].slots if isinstance(s, A.MethodDecl)]
    assert "new:" in names


def test_default_init_when_none():
    units, _ = desugar("package p\nobject A end")
    names = [s.name for s in units[0].slots if isinstance(s, A.MethodDecl)]
    assert "init" in names and "new" in names


def test_abstract_prototype_gets_no_new():
    units, _ = desugar("package p\nabstract object Shape\n  public abstract fun draw\nend")
    names = [s.name for s in units[0].slots if isinstance(s, A.MethodDecl)]
    assert "new" not in names and not any(n.startswith("new:") for n in names)


def test_mixin_flattening_structure():
    units, rep = desugar('''package p
private mixin(Window) object Border
    public override fun draw [ drawBorder; super draw; ]
    public fun drawBorder [ ]
end
private object Window mixin Border
    public fun draw [ ]
end
''')
    assert not rep.has_errors()
    names = [u.name for u in units if isinstance(u, A.PrototypeDecl)]
    assert "Window'1" in names and "Window" in names
    hidden = next(u for u in units if u.name == "Window'1")
    final = next(u for u in units if u.name == "Window" and not u.mixin_list)
    assert final.extends.canonical() == "Window'1"
    assert hidden.hidden


def test_mixin_diamond_with_state_rejected():
    _, rep = desugar('''package p
private mixin object WithName
    public :name String
end
private mixin object A2 extends WithName end
private mixin object B2 extends WithName end
private object C2 mixin A2, B2 end
''')
    assert "cannot be inherited twice" in rep.format_all()


def test_context_object_lowering():
    units, rep = desugar('''package p
object Sum(:sum &Int)
     public fun eval: (:x Int) [ sum = sum + x ]
end
''')
    assert not rep.has_errors()
    proto = units[0]
    assert proto.context_params
    names = [s.name for s in proto.slots if isinstance(s, A.MethodDecl)]
    assert "new:" in names and "bind:" in names
    fields = [s.name for s in proto.slots if isinstance(s, A.VarDecl)]
    assert "sum" in fields


def test_context_block_lowered_to_prototype():
    units, rep = desugar('''package p
object T
    public fun f [
        :b = (:self T)[ Out println: 1; ];
    ]
end
''')
    assert not rep.has_errors()
    generated = [u for u in units if getattr(u, "is_ctx_block", False)]
    assert len(generated) == 1
    names = [s.name for s in generated[0].slots if isinstance(s, A.MethodDecl)]
    assert "newObject:" in names and "eval" in names


def _rewrite_of(stat_src):
    src = f"package p\nobject T\n  private :v Int\n  public fun f [ {stat_src} ]\nend"
    units, rep = desugar(src)
    assert not rep.has_errors(), rep.format_all()
    m = [s for s in units[0].slots if isinstance(s, A.MethodDecl) and s.name == "f"][0]
    return m.body


def test_increment_local_becomes_assign_expr():
    body = _rewrite_of(":n = 0; ++n;")
    incr = body[1].expr
    assert isinstance(incr, A.AssignExpr)
    assert isinstance(incr.value, A.BinarySend) and incr.value.op == "+"


def test_increment_indexed_single_evaluation():
    body = _rewrite_of(":a = {# 1 #}; ++a[0];")
    incr = body[1].expr
    assert isinstance(incr, A.LetExpr)   # index evaluated once into a temp


def test_nil_safe_send_lowering():
    body = _rewrite_of(":r = nil; r ?.at: 0 ?.put: 1;")
    low = body[1].expr
    assert isinstance(low, A.LetExpr)
    assert isinstance(low.body, A.IfExpr)


def test_indexing_becomes_at_send():
    body = _rewrite_of(":a = {# 1 #}; :x = a[0]; a[0] = 2;")
    get = body[1].decls[0][2]
    assert isinstance(get, A.KeywordSend) and get.message_name == "at:"
    put = body[2].expr
    assert isinstance(put, A.KeywordSend) and put.message_name == "at:put:"


def test_short_creation_becomes_new():
    body = _rewrite_of(":p = T2(1, 2);")
    init = body[0].decls[0][2]
    assert isinstance(init, A.KeywordSend) and init.message_name == "new:"
    assert len(init.parts[0][1]) == 2


def test_multiple_assignment_lowering():
    body = _rewrite_of(":x Int; :y Int; x, y = [. 1, 2 .];")
    kinds = [type(st).__name__ for st in body]
    assert kinds[2] == "VarDeclStat"          # the tuple temp
    assert kinds[3] == "AssignStat"           # y = tmp f2
    assert kinds[4] == "AssignStat"           # x = tmp f1
    f2 = body[3].value
    assert isinstance(f2, A.UnarySend) and f2.selector == "f2"


def test_interpolation_rewrite():
    body = _rewrite_of(':i = 1; Out println: "i = #i and #{i + 1}";')
    send = body[1].expr
    arg = send.parts[0][1][0]
    assert isinstance(arg, A.BinarySend) and arg.op == "+"


def test_interpolation_segments():
    rep = Reporter()
    segs = split_interpolation("x = #v and #{e} done", rep, 1, 1)
    assert segs == [("text", "x = "), ("expr", "v"), ("text", " and "),
                    ("expr", "e"), ("text", " done")]
    assert split_interpolation(r"keep \# this", rep, 1, 1) == [("text", "keep # this")]


def test_unknown_metaobject_warns_and_drops():
    src = "package p\n@dynOnce object T\n  public fun f [ ]\nend"
    units, rep = desugar(src)
    assert any("unknown metaobject" in d.message for d in rep.items)
    assert units[0].meta_calls == []


def test_desugar_idempotent():
    src = '''package p
object T
    public :v Int
    public fun f [
        :a = {# 1, 2 #};
        ++v;
        a ?.at: 0 ?.put: 1;
        :x Int; :y Int;
        x, y = [. 1, 2 .];
        Out println: "v = #v";
    ]
end
'''
    cu, rep = parse_source(src)
    once = Desugarer(copy.deepcopy(cu.units), Reporter()).run()
    twice = Desugarer(copy.deepcopy(once), Reporter()).run()
    def normalize(units):
        # temp-name counters may differ between passes; compare modulo digits
        import re
        return re.sub(r"\$\d+", "$N", A.to_sexpr(units))
    assert normalize(twice) == normalize(once)


def test_no_surface_only_nodes_after_desugar():
    src = '''package p
object T
    public :v Int
    public fun f [
        :a = {# 1, 2 #};
        ++v;
        --v;
        :r = a?[0]?;
        a ?.at: 0 ?.put: 1;
        :x Int; :y Int;
        x, y = [. 1, 2 .];
        :p = T2(1);
        Out println: "v = #v";
    ]
end
'''
    cu, rep = parse_source(src)
    units = Desugarer(cu.units, rep).run()
    for node in A.walk(units):
        assert not isinstance(node, (A.Creation, A.IndexGet)), node
        if isinstance(node, A.PrefixOp):
            assert node.op not in ("++", "--"), node
        if isinstance(node, (A.UnarySend, A.KeywordSend)):
            assert node.mode != "?.", node
        if isinstance(node, A.AssignStat):
            assert len(node.targets) == 1, node
        if isinstance(node, A.VarDecl):
            assert not (node.qualifier in ("public", "protected")
                        and not node.is_shared and not node.is_const), node
        if isinstance(node, A.PrototypeDecl):
            assert not node.mixin_list and not node.context_params


GRAMMAR_DEFAULTS = '''package main
private object P
    public :n Int
    public fun init: (:k Int) [ n = k ]
end
private object Window
    private const :side = 4
    public fun (create: x1: Int (label: String = "w#{side * 2}")? (p: P = P(1))?) :t [
        Out println: (t f3), " ", (t f4) n;
    ]
end
public object Program
    public fun run [
        Window create: x1: 0;
        Window create: x1: 2 label: "given";
        Window create: x1: 3 p: P(7);
    ]
end
'''


def test_grammar_signature_defaults_are_desugared():
    cu, rep = parse_source(GRAMMAR_DEFAULTS)
    units = Desugarer(cu.units, rep).run()
    defaults = [node.argspec[2] for node in A.walk(units)
                if isinstance(node, A.GSel) and node.argspec[0] == "default"]
    assert len(defaults) == 2
    for node in A.walk(defaults):
        assert not isinstance(node, (A.Creation, A.IndexGet)), node
        assert not (isinstance(node, A.Lit) and "#" in str(node.value)), node


def test_grammar_signature_defaults_run_desugared(run):
    """An interpolated String default is expanded, and a creation
    expression default makes an object."""
    code, out, _ = run(GRAMMAR_DEFAULTS)
    assert (code, out) == (0, "w8 1\ngiven 1\nw8 7\n")


def test_a_mixin_host_keeps_its_own_public_variables(run):
    """Flattening `Host mixin Counter` gives the last clone the name `Host`;
    the base `Host'1`, which holds the host's slots, keeps the host's
    registry, so `v = 1` is still a write to the public `v`."""
    code, out, _ = run('''package main
private mixin(Any) object Counter
    public fun bump [ Out println: "bump"; ]
end
private object Host mixin Counter
    public :v Int
    public fun set [ v = 1; Out println: v; ]
end
public object Program
    public fun run [ Host set; ]
end
''')
    assert (code, out) == (0, "1\n")


def test_init_writes_a_variable_of_its_own_into_the_field(run):
    """`@init(x)` in `B` makes the initializer `x:`; `B`'s own private `x`
    is written as `self.x`, not through the setter `x:` of `A`'s public
    `x`, which would be the initializer itself."""
    code, out, _ = run('''package main
private object A
    public :x Int
end
private object B extends A
    @init(x)
    private :x Int
    public fun show [ Out println: self.x; ]
end
public object Program
    public fun run [ :b = B new: 5; b show; Out println: "made"; ]
end
''')
    assert (code, out) == (0, "5\nmade\n")
