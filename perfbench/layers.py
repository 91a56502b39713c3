"""Per-layer tracing of cyanine from outside the package.

`Tracer.install()` wraps the entry point of each layer (the table `SPANS`)
in the cyanine modules themselves, and `uninstall()` restores them.  Each
call of a wrapped function is a span; a span's self time is its duration
minus the time of the spans it caused.  Spans are folded into per-name call
counts and self times as they close, so a pass of 100k sends keeps no span
list in memory.  `snapshot()` turns one pass of those totals into the
per-layer metrics and `reset()` starts the next pass.
"""

import functools
import importlib
import sys
import time

# metric prefix, module, class (or None for a module function), attribute
SPANS = (
    ("driver", "driver", None, "compile_program"),
    ("driver.prelude_copy", "driver", None, "_parsed_prelude"),
    ("lexer", "lexer", None, "tokenize"),
    ("parser", "parser", "Parser", "parse_unit"),
    ("desugar", "desugar", "Desugarer", "run"),
    ("prototypes.builtin_world", "prototypes", "PrototypeTable", "register_prelude_builtins"),
    ("prototypes.register", "prototypes", "PrototypeTable", "register_unit"),
    ("prototypes.link", "prototypes", "PrototypeTable", "link_unit"),
    ("prototypes.is_subtype", "prototypes", "PrototypeTable", "is_subtype"),
    ("checker", "checker", "Checker", "check_entry"),
    ("block_analysis", "block_analysis", None, "analyze_method"),
    ("interp.send", "interp", "Interp", "send"),
    ("interp.lookup", "interp", "Interp", "lookup"),
    ("interp.reaches", "interp", "Interp", "reaches"),
    ("interp.invoke", "interp", "Interp", "invoke"),
    ("interp.eval_block", "interp", "Interp", "eval_block_value"),
    ("interp.throw", "interp", "CyThrow", "__init__"),
    ("builtins", "builtins", None, "call"),
    ("grammar_methods.match", "grammar_methods", None, "match_message"),
)

# counts taken from what a span returns
RESULT_COUNTS = {
    "driver": ("prototypes.entries", lambda r: len(r.table.entries)),
    "lexer": ("lexer.tokens", lambda r: len(r[0])),
    "parser": ("parser.units", lambda r: len(r.units)),
    "block_analysis": ("block_analysis.blocks", len),
    "grammar_methods.match": ("grammar_methods.matches", lambda r: 1),
}


class _PeakList(list):
    """The interpreter's frame stack, remembering its greatest depth."""

    def __init__(self, tracer):
        super().__init__()
        self._tracer = tracer

    def append(self, frame):
        super().append(frame)
        if len(self) > self._tracer.peak_frames:
            self._tracer.peak_frames = len(self)


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0] for name, *_ in SPANS}     # calls, self ns
        self.counts = {key: 0 for key, _ in RESULT_COUNTS.values()}
        self.peak_frames = 0
        self._open = [[0]]      # child time of each open span, outermost first
        self._saved = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        open_spans = self._open
        counts = self.counts
        count_key, count_of = RESULT_COUNTS.get(name, (None, None))
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0]
            open_spans.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - t0
                open_spans.pop()
                open_spans[-1][0] += took
                stat[0] += 1
                stat[1] += took - children[0]
            if count_key is not None:
                counts[count_key] += count_of(result)
            return result
        return span

    def install(self):
        """Wrap every span target.  A module function is also replaced
        wherever another cyanine module imported it by name."""
        package = [m for name, m in sys.modules.items() if name.startswith("cyanine.")]
        for name, mod_name, cls_name, attr in SPANS:
            module = importlib.import_module(f"cyanine.{mod_name}")
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for other in package:
                if vars(other).get(attr) is original:
                    self._patch(other, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def watch_frames(self, interp):
        interp.frames = _PeakList(self)

    def reset(self):
        for stat in self.stats.values():
            stat[0] = stat[1] = 0
        for key in self.counts:
            self.counts[key] = 0
        self.peak_frames = 0

    def snapshot(self, sends):
        """The per-layer metrics of the pass traced since `reset`; `sends`
        is the sum of `Interp.steps` over the pass."""
        def ms(name):
            return self.stats[name][1] / 1e6

        def calls(name):
            return self.stats[name][0]

        matches = calls("grammar_methods.match")
        return {
            "driver.self_ms": ms("driver"),
            "driver.prelude_copy_ms": ms("driver.prelude_copy"),
            "prototypes.builtin_world_ms": ms("prototypes.builtin_world"),
            "lexer.self_ms": ms("lexer"),
            "lexer.tokens": self.counts["lexer.tokens"],
            "parser.self_ms": ms("parser"),
            "parser.units": self.counts["parser.units"],
            "desugar.self_ms": ms("desugar"),
            "prototypes.link_ms": ms("prototypes.link"),
            "prototypes.register_ms": ms("prototypes.register"),
            "prototypes.entries": self.counts["prototypes.entries"],
            "prototypes.is_subtype.calls": calls("prototypes.is_subtype"),
            "prototypes.is_subtype.self_ms": ms("prototypes.is_subtype"),
            "checker.self_ms": ms("checker"),
            "checker.entries": calls("checker"),
            "block_analysis.self_ms": ms("block_analysis"),
            "block_analysis.methods": calls("block_analysis"),
            "block_analysis.blocks": self.counts["block_analysis.blocks"],
            "interp.sends": sends,
            "interp.send.self_ms": ms("interp.send"),
            "interp.lookup.calls": calls("interp.lookup"),
            "interp.lookup.self_ms": ms("interp.lookup"),
            "interp.reaches.calls": calls("interp.reaches"),
            "interp.reaches.self_ms": ms("interp.reaches"),
            "interp.invoke.self_ms": ms("interp.invoke"),
            "interp.eval_block.calls": calls("interp.eval_block"),
            "interp.eval_block.self_ms": ms("interp.eval_block"),
            "interp.peak_frames": self.peak_frames,
            "interp.throws": calls("interp.throw"),
            "builtins.calls": calls("builtins"),
            "builtins.self_ms": ms("builtins"),
            "builtins.share": calls("builtins") / sends if sends else 0.0,
            "grammar_methods.match.calls": matches,
            "grammar_methods.match.self_ms": ms("grammar_methods.match"),
            # matches / attempts; 0 when nothing was attempted
            "grammar_methods.match_ratio":
                self.counts["grammar_methods.matches"] / matches if matches else 0.0,
        }
