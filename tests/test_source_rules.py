"""Rules on the library source itself."""

import ast
from pathlib import Path

import charp_dilog


def test_no_assert_statements():
    # invariants are typed exceptions because python -O strips every assert
    files = sorted(Path(charp_dilog.__file__).parent.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"
