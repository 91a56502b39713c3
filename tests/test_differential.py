"""`scripts/differential.py`: this checkout does not differ from itself; a
copy whose run counts one step more, or one miss more, differs at the first
program that runs, while one that counts a miss less does not, since a
change may bind sends that missed before.  Each side says how many programs
ran past the compile and how many misses they counted."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCRIPT = os.path.join(ROOT, "scripts", "differential.py")
SRC = os.path.join(ROOT, "src")

# the corpus alone: its 17 rejected programs end at a diagnostic
CORPUS_RAN = "63 ran past the compile, 17 ended at a diagnostic, 0 raised"


def differential(old, new, *options):
    return subprocess.run([sys.executable, SCRIPT, old, new, *options],
                          capture_output=True, text=True, timeout=300)


def counting_copy(tmp_path, counter, delta):
    """A copy of `src/` whose `Interp.run` adds `delta` to `counter`."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "cyanine" / "interp.py", "a", encoding="utf-8") as fh:
        fh.write("\n\n_run = Interp.run\n\n\n"
                 "def _run_counting(self):\n"
                 "    status = _run(self)\n"
                 f"    self.{counter} += {delta}\n"
                 "    return status\n\n\n"
                 "Interp.run = _run_counting\n")
    return str(copy)


def test_the_checkout_does_not_differ_from_itself():
    done = differential(SRC, SRC, "--seeds", "5", "--mutants", "20")
    # 18 of the 20 mutants end at a diagnostic too
    ran = "65 ran past the compile, 35 ended at a diagnostic, 0 raised, 218 misses\n"
    assert (done.returncode, done.stdout) == \
        (0, f"old: {ran}new: {ran}100 programs, no difference\n"), done.stderr


def test_a_copy_that_counts_one_more_step_differs(tmp_path):
    done = differential(SRC, counting_copy(tmp_path, "steps", 1), "--seeds", "",
                        "--mutants", "0")
    assert done.returncode == 1, done.stderr
    ran = f"{CORPUS_RAN}, 212 misses\n"
    assert done.stdout.startswith(f"old: {ran}new: {ran}01_hello.cyan differs:\n")
    assert "!= steps:" in done.stdout and "   status:" in done.stdout


def test_a_copy_that_counts_one_more_miss_differs(tmp_path):
    done = differential(SRC, counting_copy(tmp_path, "misses", 1), "--seeds", "",
                        "--mutants", "0")
    assert done.returncode == 1, done.stderr
    assert done.stdout.startswith(f"old: {CORPUS_RAN}, 212 misses\n"
                                  f"new: {CORPUS_RAN}, 275 misses\n01_hello.cyan differs:\n")
    assert "!= misses:" in done.stdout and "   steps:" in done.stdout


def test_a_copy_that_counts_one_miss_less_does_not_differ(tmp_path):
    done = differential(SRC, counting_copy(tmp_path, "misses", -1), "--seeds", "",
                        "--mutants", "0")
    assert (done.returncode, done.stdout) == \
        (0, f"old: {CORPUS_RAN}, 212 misses\nnew: {CORPUS_RAN}, 149 misses\n"
            "80 programs, no difference\n"), done.stderr
