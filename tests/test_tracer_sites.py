"""The benchmark tracer wraps module-level names of the package; each must
exist, so that a rename fails here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

from shiftmaxent import cli, measures, optimize

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_site_is_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"cli": cli, "measures": measures, "optimize": optimize}
    assert spans._SITES
    for module, attr, _ in spans._SITES:
        assert callable(getattr(modules[module], attr, None)), (module, attr)
