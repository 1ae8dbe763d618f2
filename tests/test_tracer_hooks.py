"""The benchmark's tracer (perfbench/spans.py) wraps private functions of
alphamod by name: each of them must still exist where it looks."""

import importlib.util
import sys
from pathlib import Path

import alphamod.cli  # noqa: F401  (install reads every layer module)

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("spans", _PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_tracer_wraps_and_restores_every_private_name():
    originals = {(layer, name): getattr(sys.modules[f"alphamod.{layer}"],
                                        name)
                 for layer, name in spans.PRIVATE}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (layer, name), fn in originals.items():
            wrapped = getattr(sys.modules[f"alphamod.{layer}"], name)
            assert wrapped is not fn and wrapped.__wrapped__ is fn
    finally:
        tracer.uninstall()
    for (layer, name), fn in originals.items():
        assert getattr(sys.modules[f"alphamod.{layer}"], name) is fn
