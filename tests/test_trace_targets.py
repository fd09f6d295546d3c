"""The layer functions the benchmark's tracer wraps still exist.

`perfbench/tracer.py` names its targets by module and attribute and wraps
them from outside the library, so a rename in `transys` would silently
drop a layer from traced runs.  This reads the two target tables from that
file without importing it.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables():
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(
                node.targets[0], "id", None) in ("FUNCTION_SPANS",
                                                 "METHOD_SPANS"):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_traced_targets_exist_as_plain_functions():
    tables = _tables()
    assert tables["FUNCTION_SPANS"] and tables["METHOD_SPANS"]
    for _, module, name in tables["FUNCTION_SPANS"]:
        mod = importlib.import_module(f"transys.{module}")
        assert inspect.isfunction(getattr(mod, name, None)), \
            f"transys.{module}.{name}"
    for _, module, cls, name in tables["METHOD_SPANS"]:
        owner = getattr(importlib.import_module(f"transys.{module}"), cls)
        assert inspect.isfunction(owner.__dict__.get(name)), \
            f"transys.{module}.{cls}.{name}"
