import ast
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from conftest import ROOT

# The package's __init__ imports names only to re-export them.
SOURCES = sorted(
    [p for p in (ROOT / "src" / "carpnet").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced afterwards."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c\nos.sep\n") == ["line 2: c"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in SOURCES
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def references(tree: ast.AST) -> Counter:
    """How often each identifier, attribute, imported name or string constant occurs."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1  # a name patched or looked up by string
    return names


def inherited(source: str, module: str) -> dict[str, set[str]]:
    """For each class that ``source`` defines, the names its base classes define.

    The source runs as ``module`` (its package resolves relative imports).
    """
    namespace = {"__name__": module, "__package__": module.rpartition(".")[0]}
    exec(compile(source, module, "exec"), namespace)
    return {name: {attr for base in cls.__mro__[1:] for attr in vars(base)}
            for name, cls in namespace.items()
            if isinstance(cls, type) and cls.__module__ == module}


def dead_definitions(library: dict[str, str], callers: list[str], text: str = "",
                     package: str = "") -> list[str]:
    """Top-level functions and classes, and non-dunder methods, of the ``library``
    sources (file name -> source) that no code names outside their own
    definition; ``callers`` are more sources, ``text`` other files read as words.
    A method that overrides a base class's is reached: whoever calls the base
    class's calls it.  The library's modules live in ``package``.
    """
    trees = {name: ast.parse(source) for name, source in library.items()}
    named = sum((references(tree) for tree in trees.values()), Counter())
    named += sum((references(ast.parse(source)) for source in callers), Counter())
    words = set(re.findall(r"\w+", text))
    dead = []
    for file, tree in trees.items():
        bases = inherited(library[file], ".".join(filter(None, (package, file[:-3]))))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            methods = [item for item in node.body if isinstance(item, ast.FunctionDef)
                       and not (item.name.startswith("__") and item.name.endswith("__"))
                       and item.name not in bases.get(node.name, ())]
            for qualname, defn in [(node.name, node),
                                   *((f"{node.name}.{m.name}", m) for m in methods)]:
                if named[defn.name] <= references(defn)[defn.name] and defn.name not in words:
                    dead.append(f"{file}: {qualname}")
    return dead


def test_scan_finds_a_dead_definition():
    library = {"m.py": "import argparse\n\n\n"
                       "def used():\n    return 1\n\n\n"
                       "def dead(n):\n    return dead(n - 1)\n\n\n"
                       "class C:\n    def __len__(self):\n        return 0\n\n"
                       "    def spare(self):\n        pass\n\n"
                       "    def patched(self):\n        pass\n\n\n"
                       "class P(argparse.ArgumentParser):\n"
                       "    def error(self, message):\n        pass\n\n"
                       "    def lone(self):\n        pass\n\n\n"
                       "def main():\n    pass\n"}
    callers = ["from m import C, P, used\nused()\nsetattr(C, 'patched', None)\n"]
    # argparse calls P.error, an override of ArgumentParser.error
    assert dead_definitions(library, callers, "script = 'm:main'") == [
        "m.py: dead", "m.py: C.spare", "m.py: P.lone"]


def test_no_dead_definitions():
    # The tests do not count as callers: a name only they reach is test-only API.
    library = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "carpnet").glob("*.py")) if p.name != "__init__.py"}
    callers = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "scripts").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py"))]
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")  # the console script
    assert dead_definitions(library, callers, text, package="carpnet") == []


@pytest.mark.parametrize("module", [
    "concurrent.futures.process",  # run_cascades_parallel imports it when it starts workers
    "networkx",  # only the tests use it, as a reference
])
def test_import_leaves_the_process_pool_unloaded(module):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, carpnet; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert proc.stdout.strip() == "False"
