"""numpy is the only runtime dependency of the egr package."""

import ast
import pathlib
import re
import sys

import egr

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "egr"}


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(pathlib.Path(egr.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert not outside


def test_declared_numpy_floor_has_bitwise_count():
    # geometry reads JSON number rows with np.bitwise_count, new in numpy 2.0
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', pyproject.read_text())
    assert floor is not None
    assert (int(floor[1]), int(floor[2])) >= (2, 0)
