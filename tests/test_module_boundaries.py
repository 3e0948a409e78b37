"""Module boundaries inside the package, checked with `ast`.

A `_`-prefixed name is an implementation detail of the module that defines
it. This walks every `src/rcc/*.py` and fails on any import of such a name
from another module, and on any `module._name` attribute use through a
module imported by name. It also fails on a public top-level function or
class that no module of the package uses.
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


def test_only_synth_imports_csv():
    """One module knows the CSV dialect: the others read and write tables
    through `synth.read_csv` and `synth.write_csv`."""
    importers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        modules = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
        modules |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
        if "csv" in modules:
            importers.append(path.name)
    assert importers == ["synth.py"]


def test_only_load_split_calls_load_patches():
    """One place checks that a manifest split is there: every split the
    package scores comes through `harness.load_split`."""
    callers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "load_patches" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers.append(f"{path.name}: {getattr(top, 'name', top.lineno)}")
    assert callers == ["harness.py: load_split"]


# One-sample views of batched code that only callers outside the package
# use: the conv and pool, as oracles for the acceptance checks, and
# `render_scene`, which perfbench's set-up and the golden test call.
ORACLES = {"conv2d_forward", "maxpool_forward", "render_scene"}


def _unused_public_names(paths) -> list[str]:
    """Public top-level functions and classes that no code in `paths` uses.

    A use is a name or attribute read anywhere outside the definition
    itself; imports and `__all__` strings are not uses.
    """
    defined, used = {}, set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                defined[node.name] = path.name
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if not (is_def and name == node.name):
                    used.add(name)
    return sorted(f"{file}: {name}" for name, file in defined.items() if name not in used)


def test_every_public_function_and_class_has_a_caller_in_the_package():
    """No second surface beside the one the pipeline uses: a public function
    or class that nothing in `src/rcc` calls is dead weight."""
    unused = _unused_public_names(sorted(PACKAGE_DIR.glob("*.py")))
    assert [entry for entry in unused if entry.split(": ")[1] not in ORACLES] == []


def test_unused_name_checker(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .net import logits\n"
        "__all__ = ['orphan']\n"
        "def orphan():\n"
        "    return orphan()\n"
        "def used():\n"
        "    return logits\n"
        "class Shape:\n"
        "    pass\n"
        "def _private():\n"
        "    return used(), Shape\n"
    )
    assert _unused_public_names([source]) == ["sample.py: orphan"]


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
