"""What the benchmark's tracer (bench/tracing.py) needs from the engine.

The tracer wraps each function it lists under every module-level name bound
to it and reads the hit ratios of two caches, so a refactor that renames a
traced function, drops an import the tracer relies on, or replaces a cache
breaks ``bench/run.py --trace 1``.  These checks only read the tracer's
table; they install nothing.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
TRACED = runpy.run_path(str(TRACING))["TRACED"]


def _module(name):
    return importlib.import_module(f"gridorbits.{name}")


@pytest.mark.parametrize("mod,attr", [(m, a) for m, attrs in TRACED.items() for a in attrs])
def test_traced_attribute_resolves(mod, attr):
    obj = _module(mod)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("mod,attr", [("grid_quiver", "window_products"), ("subspaces", "subspaces")])
def test_traced_caches_report_hits(mod, attr):
    info = getattr(_module(mod), attr).cache_info()
    assert info.hits >= 0 and info.misses >= 0


@pytest.mark.parametrize("defined,attr,binders", [
    ("exact_linalg", "rank", ["exact_linalg", "decomposition", "degeneration_lab"]),
    ("parametrizations", "sw_array",
     ["parametrizations", "orbit_poset", "degeneration_lab", "cli"]),
    ("subspaces", "column_chains", ["subspaces", "degeneration_lab"]),
])
def test_traced_function_bound_where_the_selftest_expects(defined, attr, binders):
    original = getattr(_module(defined), attr)
    assert [m for m in binders if getattr(_module(m), attr, None) is not original] == []
