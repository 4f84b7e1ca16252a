"""Every function the per-layer tracer wraps exists: each name in
`perfbench/tracing.BOUNDARY` resolves to a callable in its `zcoloring`
module, so deleting or renaming a traced function fails here rather than in
`Tracer.install`.  The dict is read from the source, not imported."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _boundary() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BOUNDARY" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no BOUNDARY")


def test_traced_boundary_names_resolve_to_callables():
    boundary = _boundary()
    assert boundary
    missing = []
    for layer, names in boundary.items():
        module = importlib.import_module(f"zcoloring.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert missing == []
