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
# where a package function or class may be read, and where the benchmark
# may name one
READERS = sorted((ROOT / "src").rglob("*.py"))
BENCHMARK_FILES = [path for path in sorted((ROOT / "perfbench").rglob("*"))
                   if path.suffix in (".py", ".md", ".json")]


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


def loaded_names(sources: list[str]) -> set[str]:
    """The names that ``sources`` load, by name or as an attribute."""
    read = set()
    for source in sources:
        read |= {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return read


def exported_names(init: str) -> set[str]:
    """The names that a package's ``init`` source imports to export them."""
    return {alias.asname or alias.name for node in ast.parse(init).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unread_definitions(modules: dict[str, str], readers: list[str], exported: set[str],
                       text: str) -> list[str]:
    """Module-level functions and classes of ``modules`` (sources by name)
    that no reader source loads, by name or as an attribute, that are not
    ``exported`` and that ``text`` never names; as ``module:name``."""
    read = loaded_names(readers) | exported
    return [f"{module}:{node.name}" for module, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
            and not re.search(rf"\b{node.name}\b", text)]


def test_guard_finds_unread_definitions():
    modules = {"a.py": "def used():\n    pass\n\n\nclass Unused:\n    pass\n\n\n"
                       "def benched():\n    pass\n\n\ndef _helper():\n    pass\n"}
    readers = ["from a import Unused, _helper\nused()\n", "def _helper():\n    pass\n",
               "x.used = 1\n"]
    assert unread_definitions(modules, readers, set(), "time benched(x)") == [
        "a.py:Unused", "a.py:_helper"]
    assert unread_definitions(modules, readers + ["import a\na._helper(a.Unused)\n"],
                              set(), "") == ["a.py:benched"]
    assert unread_definitions(modules, readers, {"Unused", "_helper"}, "") == ["a.py:benched"]


def test_guard_flags_a_test_only_helper():
    # a helper that only a test loads is flagged, since the readers are the
    # package's own sources; counting the test as a reader would keep it
    modules = {"a.py": "def core():\n    pass\n\n\ndef wrapper():\n    return core()\n"}
    test = "from a import wrapper\n\n\ndef test_wrapper():\n    assert wrapper() is None\n"
    assert unread_definitions(modules, [modules["a.py"]], set(), "") == ["a.py:wrapper"]
    assert unread_definitions(modules, [modules["a.py"], test], set(), "") == []
    assert exported_names("from .a import core, wrapper\n") == {"core", "wrapper"}
    assert unread_definitions(modules, [modules["a.py"]], {"wrapper"}, "") == []


def test_every_package_definition_has_a_reader():
    # a load in src/, an export of the package, or a mention in the benchmark
    package = {name: path.read_text(encoding="utf-8") for name, path in MODULES.items()
               if not name.startswith("tests/")}
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    init = (ROOT / "src" / "frustra" / "__init__.py").read_text(encoding="utf-8")
    benchmark = "\n".join(path.read_text(encoding="utf-8") for path in BENCHMARK_FILES)
    assert unread_definitions(package, readers, exported_names(init), benchmark) == []


def unread_exports(init: str, modules: list[str], text: str) -> list[str]:
    """The names that the package's ``init`` source imports to export them
    and that neither a module source loads nor ``text`` names."""
    read = loaded_names(modules)
    return [alias.name for node in ast.parse(init).body if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name not in read and not re.search(rf"\b{alias.name}\b", text)]


def test_guard_finds_unread_exports():
    init = "from .a import used, attribute, documented, unused\nfrom .b import Other\n"
    modules = ["from .a import used\nused(1)\n", "import a\nx = a.attribute\n",
               "def unused():\n    pass\n\n\nclass Other:\n    pass\n"]
    assert unread_exports(init, modules, "see `documented` and undocumented") == [
        "unused", "Other"]


def test_every_export_has_a_reader_or_the_readme():
    init = (ROOT / "src" / "frustra" / "__init__.py").read_text(encoding="utf-8")
    package = [path.read_text(encoding="utf-8") for name, path in MODULES.items()
               if not name.startswith("tests/")]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unread_exports(init, package, readme) == []


#: Per numpy.linalg._umath_linalg gufunc the package may call, the public
#: numpy.linalg function a test must pin it to; a gufunc missing here is
#: unpinned.
PUBLIC_LINALG = {"cholesky_lo": "cholesky", "eigh_lo": "eigh", "eigvalsh_lo": "eigvalsh",
                 "solve": "solve", "lstsq": "lstsq", "svd_f": "svd"}


def private_gufuncs(modules: dict[str, str]) -> dict[str, set[str]]:
    """Per ``_umath_linalg.<name>`` that ``modules`` (sources by name) call,
    the names a test may read it by: ``<name>`` on ``_umath_linalg``, and
    the module-level name its top-level statement assigns, if any."""
    found: dict[str, set[str]] = {}
    for source in modules.values():
        for statement in ast.parse(source).body:
            targets = {target.id for target in getattr(statement, "targets", [])
                       if isinstance(target, ast.Name)}
            for node in ast.walk(statement):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "_umath_linalg"):
                    found.setdefault(node.attr, {node.attr}).update(targets)
    return found


def unpinned_gufuncs(modules: dict[str, str], tests: list[str]) -> list[str]:
    """The gufuncs of :func:`private_gufuncs` that no test function reads,
    by one of its names, together with its ``linalg.<public>`` function."""
    gufuncs, pinned = private_gufuncs(modules), set()
    for source in tests:
        for test in ast.walk(ast.parse(source)):
            if not isinstance(test, ast.FunctionDef):
                continue
            public, read = set(), set()
            for node in ast.walk(test):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    on = getattr(node.value, "attr", getattr(node.value, "id", None))
                    (public if on == "linalg" else read).add(node.attr)
            pinned |= {name for name, names in gufuncs.items()
                       if names & read and PUBLIC_LINALG.get(name) in public}
    return sorted(set(gufuncs) - pinned)


def test_guard_finds_unpinned_gufuncs():
    modules = {"a.py": "from numpy.linalg import _umath_linalg\n"
                       "_eigh = wrap(_umath_linalg.eigh_lo)\n\n\n"
                       "def f(x):\n    return _umath_linalg.solve(x) + _umath_linalg.lstsq(x)"
                       " + _umath_linalg.qr_r_raw(x)\n"}
    tests = ["def test_a():\n    assert a._eigh(x) == np.linalg.eigh(x)\n",
             "def test_b():\n    np.linalg.solve(x)\n",
             "def test_c():\n    _umath_linalg.lstsq(x)\n\n\ndef test_d():\n    linalg.lstsq(x)\n"]
    assert private_gufuncs(modules) == {"eigh_lo": {"eigh_lo", "_eigh"}, "solve": {"solve"},
                                        "lstsq": {"lstsq"}, "qr_r_raw": {"qr_r_raw"}}
    assert unpinned_gufuncs(modules, tests) == ["lstsq", "qr_r_raw", "solve"]
    pins = ["def test_e():\n    _umath_linalg.lstsq(x) == linalg.lstsq(x)\n",
            "def test_f():\n    assert _umath_linalg.solve(x) == np.linalg.solve(x)\n"]
    assert unpinned_gufuncs(modules, tests + pins) == ["qr_r_raw"]


def test_every_private_gufunc_is_pinned_to_its_numpy_function():
    package = {name: path.read_text(encoding="utf-8") for name, path in MODULES.items()
               if not name.startswith("tests/")}
    tests = [path.read_text(encoding="utf-8") for name, path in MODULES.items()
             if name.startswith("tests/")]
    assert set(private_gufuncs(package)) == set(PUBLIC_LINALG)
    assert unpinned_gufuncs(package, tests) == []


def readme_python_block(readme: str, heading: str) -> str:
    """The fenced python block of the README section ``## heading``."""
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    # the quick start runs against the API it documents
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    namespace = {}
    exec(compile(readme_python_block(readme, "Library quick start"), "README.md", "exec"),
         namespace)
    assert namespace["sol"].phase.name == "FSP" and namespace["report"].n_sites == 3
