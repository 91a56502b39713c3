"""Seeded mutation fuzz over the golden corpus: whatever a mutant of a corpus
program is, compiling it, and running it when it compiles, ends in one of the
documented outcomes and never in a Python exception."""

import random
from pathlib import Path

from cyanine.driver import compile_program
from cyanine.interp import Interp
from cyanine.lexer import TOKENS

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# what a mutation may insert: every fixed token, the starts of the lexemes
# scanned by hand, non-ASCII digits, and blanks the lexer must count right
INSERTS = sorted(TOKENS) + [
    '"', "'", "#", "@", "/*", "*/", "//", "#{", "\\", "$$", "!!", "_",
    "²", "٣", "①", "\r", "\r\n", "\t", "\n", " ", "1", "1.5", "x", "fun", "end",
]


def mutants(seed, count):
    """`count` mutants of the corpus programs, each made by one to three cuts,
    duplications or insertions."""
    rng = random.Random(seed)
    sources = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.cyan"))]
    for _ in range(count):
        src = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            a = rng.randrange(len(src) + 1)
            b = min(len(src), a + rng.randint(1, 40))
            how = rng.randrange(3)
            if how == 0:
                src = src[:a] + src[b:]
            elif how == 1:
                src = src[:b] + src[a:b] + src[b:]
            else:
                src = src[:a] + rng.choice(INSERTS) + src[a:]
        yield src


def test_mutants_never_raise():
    for n, src in enumerate(mutants(seed=12, count=1000)):
        try:
            program = compile_program([("<fuzz>", src)])
            if program.ok():
                interp = Interp(program)
                interp.max_steps = 50_000
                interp.run()
        except Exception as exc:
            raise AssertionError(f"mutant {n} raised {exc!r}:\n{src}") from exc
