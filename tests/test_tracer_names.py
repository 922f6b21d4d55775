"""The layer tracer in perfbench/tracer.py wraps qcount functions by module and
name; every name it lists must still exist, or a traced run breaks."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_name_resolves():
    layers = load_layers()
    assert layers
    for module, names in layers.items():
        mod = importlib.import_module(f"qcount.{module}")
        for name in names:
            if (module, name) == ("oracles", "select"):
                # Traced as a method of both oracle classes.
                for cls in (mod.ExplicitSetOracle, mod.BitPatternOracle):
                    assert callable(getattr(cls, "select", None)), cls.__name__
            else:
                assert callable(getattr(mod, name, None)), f"qcount.{module}.{name}"
