"""Every span the benchmark's tracer asks for still names a fockmin function.

`perfbench/tracer.py` patches fockmin's functions where their callers look
them up, and reports a name that no longer resolves as a missing layer,
whose metrics read null.  The tracer is loaded from its file and only
constructed, never installed, so nothing is patched here.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().missing == []
