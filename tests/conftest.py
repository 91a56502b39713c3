import sys

sys.setrecursionlimit(30000)

import pytest

from cyanine.driver import compile_program
from cyanine.interp import Interp


def compile_src(src, main_name="Program"):
    return compile_program([("<test>", src)], main_name=main_name)


def run_src(src, stdin="", main_name="Program"):
    """Compile and run; returns (exit_code, stdout, program)."""
    program = compile_src(src, main_name)
    assert not program.reporter.has_errors(), program.reporter.format_all()
    interp = Interp(program, stdin_text=stdin)
    code = interp.run()
    return code, interp.stdout(), program


def errors_of(src, main_name="Program"):
    program = compile_src(src, main_name)
    return program.reporter.format_all()


@pytest.fixture
def run():
    return run_src


@pytest.fixture
def errors():
    return errors_of
