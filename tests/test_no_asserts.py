"""Checks in egr raise; none is an ``assert``, which ``python -O`` drops."""

import ast
import pathlib

import egr


def test_package_has_no_assert_statements():
    sources = sorted(pathlib.Path(egr.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found
