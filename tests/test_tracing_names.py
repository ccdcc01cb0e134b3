"""The traced benchmark run (perfbench/run.py --trace 1) wraps cstirap
functions by module attribute; a renamed one would break that run, so
every wrapped name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import cstirap.phases

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    for _, module, attr in wrapped:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert callable(cstirap.phases.CompositeSequence.__post_init__)
