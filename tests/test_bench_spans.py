"""The benchmark's span names must resolve in the package.

``bench/tracer.py`` wraps functions by name (``<module>.<function>`` or
``<module>.<Class>.<method>``); a rename in ``eegadapt`` would otherwise
surface only when the benchmark runs with tracing on.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def resolve(name):
    """The walk Tracer.install makes: import eegadapt.<module>, then getattr
    along the remaining dotted parts. None when a part is missing."""
    module_name, *attrs = name.split(".")
    owner = importlib.import_module(f"eegadapt.{module_name}")
    for attr in attrs:
        owner = getattr(owner, attr, None)
    return owner


def test_every_span_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = [name for name in tracer.SPANS if not callable(resolve(name))]
    assert not unresolved, f"bench/tracer.py spans missing in eegadapt: {unresolved}"
