"""Source hygiene checks on the package and test modules."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package modules by file name (__init__.py imports names to re-export
# them), the test modules by their path in the repository
MODULES = {path.name: path for path in sorted((ROOT / "src" / "frustra").glob("*.py"))
           if path.name != "__init__.py"}
MODULES.update({path.relative_to(ROOT).as_posix(): path
                for path in sorted((ROOT / "tests").glob("*.py"))})
# where a package function or class may be read
READERS = [path for folder in ("src", "tests", "perfbench")
           for path in sorted((ROOT / folder).rglob("*.py"))]


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


def unread_definitions(modules: dict[str, str], readers: list[str], text: str) -> list[str]:
    """Module-level functions and classes of ``modules`` (sources by name)
    that no reader source loads, by name or as an attribute, and that
    ``text`` never names; as ``module:name``."""
    read = set()
    for source in readers:
        read |= {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [f"{module}:{node.name}" for module, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
            and not re.search(rf"\b{node.name}\b", text)]


def test_guard_finds_unread_definitions():
    modules = {"a.py": "def used():\n    pass\n\n\nclass Unused:\n    pass\n\n\n"
                       "def documented():\n    pass\n\n\ndef _helper():\n    pass\n"}
    readers = ["from a import Unused, _helper\nused()\n", "def _helper():\n    pass\n",
               "x.used = 1\n"]
    assert unread_definitions(modules, readers, "call documented(x)") == [
        "a.py:Unused", "a.py:_helper"]
    assert unread_definitions(modules, readers + ["import a\na._helper(a.Unused)\n"],
                              "") == ["a.py:documented"]


def test_every_package_definition_has_a_reader():
    package = {name: path.read_text(encoding="utf-8") for name, path in MODULES.items()
               if not name.startswith("tests/")}
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unread_definitions(package, readers, readme) == []
