import ast
from pathlib import Path

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
