import ast
import importlib
import importlib.util
from pathlib import Path

import parapath

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "parapath"


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts, so no check may live only in one.
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements: {found}"


def test_benchmark_trace_targets_resolve():
    # The benchmark's tracer swaps wrappers in for these attributes, so a
    # rename or deletion breaks ``perfbench/run.py --trace 1``.
    tracing_file = PACKAGE.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing_file)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in tracing.TARGETS
        if not hasattr(importlib.import_module(f"parapath.{module}"), attr)
    ]
    assert not missing, f"tracer targets missing: {missing}"


def test_public_names_resolve():
    missing = [name for name in parapath.__all__ if not hasattr(parapath, name)]
    assert not missing, f"names in __all__ missing: {missing}"
