"""Source hygiene checks on the package and test modules."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package modules by file name (__init__.py imports names to re-export
# them), the test modules by their path in the repository
MODULES = {path.name: path for path in sorted((ROOT / "src" / "frustra").glob("*.py"))
           if path.name != "__init__.py"}
MODULES.update({path.relative_to(ROOT).as_posix(): path
                for path in sorted((ROOT / "tests").glob("*.py"))})


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_guard_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []
