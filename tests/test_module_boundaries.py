"""No module of the package reaches into another module's private names.

A `_`-prefixed name is an implementation detail of the module that defines
it. This walks every `src/rcc/*.py` with `ast` and fails on any import of
such a name from another module, and on any `module._name` attribute use
through a module imported by name.
"""

import ast
from pathlib import Path

import rcc

PACKAGE_DIR = Path(rcc.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: uses {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    violations = {
        path.name: found for path in sources if (found := _violations(path))
    }
    assert violations == {}


def test_checker_flags_private_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .net import _forward, logits\n"
        "from . import net\n"
        "net._softmax_batch(1)\n"
        "net.logits(1)\n"
    )
    assert _violations(source) == [
        "line 1: imports _forward",
        "line 3: uses net._softmax_batch",
    ]
