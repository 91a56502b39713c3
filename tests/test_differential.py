"""`scripts/differential.py`: this checkout does not differ from itself, and
a copy whose run counts one step more differs at the first program that
runs.  Each side says how many programs ran past the compile."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCRIPT = os.path.join(ROOT, "scripts", "differential.py")
SRC = os.path.join(ROOT, "src")


def differential(old, new, *options):
    return subprocess.run([sys.executable, SCRIPT, old, new, *options],
                          capture_output=True, text=True, timeout=300)


def test_the_checkout_does_not_differ_from_itself():
    done = differential(SRC, SRC, "--seeds", "5", "--mutants", "20")
    # the corpus's 17 rejected programs and 18 of the 20 mutants end at a
    # diagnostic
    ran = "65 ran past the compile, 35 ended at a diagnostic, 0 raised\n"
    assert (done.returncode, done.stdout) == \
        (0, f"old: {ran}new: {ran}100 programs, no difference\n"), done.stderr


def test_a_copy_that_counts_one_more_step_differs(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "cyanine" / "interp.py", "a", encoding="utf-8") as fh:
        fh.write("\n\n_run = Interp.run\n\n\n"
                 "def _run_one_more(self):\n"
                 "    status = _run(self)\n"
                 "    self.steps += 1\n"
                 "    return status\n\n\n"
                 "Interp.run = _run_one_more\n")
    done = differential(SRC, str(copy), "--seeds", "", "--mutants", "0")
    assert done.returncode == 1, done.stderr
    ran = "63 ran past the compile, 17 ended at a diagnostic, 0 raised\n"
    assert done.stdout.startswith(f"old: {ran}new: {ran}01_hello.cyan differs:\n")
    assert "!= steps:" in done.stdout and "   status:" in done.stdout
