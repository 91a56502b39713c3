"""A write to a public or protected variable is a send of its setter, which
the checker decides where it resolves the target: a sub-prototype that
overrides the setter sees every such write, while a local or a parameter of
the same name is not the variable."""

import pytest

from conftest import errors_of

WRITES = '''package main

private mixin object Counter
    public :w Int
    public fun setW [ w = 7; ]
end

private object Host mixin Counter
end

private object A
    public :v Int
    public fun writes [
        v = 1;
        ++v;
        --v;
        [ v = 4; ] eval;
        self addMethod: selector: #viaContext body: (:self A)[ v = 3; ];
        self ?viaContext;
    ]
    public fun %s
end

private object S extends A
    public override fun v: (:x Int) [ Out println: "v: " + x; super v: x; ]
end

private object T extends Host
    public override fun w: (:x Int) [ Out println: "w: " + x; super w: x; ]
end

public object Program
    public fun run [
        :s = S new;
        s writes;
        :t = T new;
        t setW;
        Out println: (s v), " ", (t w);
        s other;
        Out println: (s v);
    ]
end
'''


def test_an_overriding_setter_sees_every_write(run):
    """`v = e`, `++v`, `--v`, a write in a block, in a context block and in
    a mixin's body all send the setter to self."""
    code, out, _ = run(WRITES % "other [ ]")
    assert code == 0
    assert out == "v: 1\nv: 2\nv: 1\nv: 4\nv: 3\nw: 7\n3 7\n3\n"


def test_a_local_shadows_the_variable(run):
    code, out, _ = run(WRITES % "other [ :v = 10; v = 11; Out println: v; ]")
    assert code == 0
    assert out.splitlines()[-2:] == ["11", "3"]


def test_a_write_before_a_local_is_declared_goes_to_the_setter(run):
    code, out, _ = run(WRITES % "other [ v = 5; :v = 9; v = 6; Out println: v; ]")
    assert code == 0
    assert out.splitlines()[-3:] == ["v: 5", "6", "5"]


def test_a_parameter_of_the_same_name_is_read_only():
    assert "parameters are read-only: cannot assign to 'v'" in \
        errors_of(WRITES % "other: (:v Int) [ v = 1; ]")


@pytest.mark.parametrize("write, col", [
    ('v = "ten";', 24),
    ('[ v = "ten"; ] eval;', 26),
    (':x Int; x, v = [. 1, "ten" .];', 32),     # at the statement, not at `v`
])
def test_a_write_of_the_wrong_type_is_a_setter_send_that_fits_no_method(write, col):
    assert errors_of(WRITES % f"other [ {write} ]") == \
        f"<test>:21:{col}: error: 'A' has no method matching 'v: _'"


def test_a_generic_prototype_writes_a_public_variable_of_its_grandparent(run):
    code, out, _ = run('''package main

private object A
    public :v Int
end

private object B extends A
end

private object G<:T> extends B
    public fun bump [ v = 5; ++v; Out println: v; ]
end

public object Program
    public fun run [ G<Int> new bump; ]
end
''')
    assert (code, out) == (0, "6\n")
