"""The per-layer tracer of `perfbench/` wraps cyanine functions by name (its
table `SPANS`); a renamed one would break `perfbench/run.py --trace 1`."""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_every_span_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    try:
        for name, mod_name, cls_name, attr in layers.SPANS:
            module = importlib.import_module(f"cyanine.{mod_name}")
            if cls_name is None:
                assert callable(getattr(module, attr, None)), name
            else:
                # `Tracer.install` reads a method from the class's own dict
                owner = getattr(module, cls_name, None)
                assert owner is not None and attr in owner.__dict__, name
    finally:
        sys.modules.pop("layers", None)
