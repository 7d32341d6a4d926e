"""Every public definition under ``src/`` is referenced from outside itself.

A definition is a module-level function, class or assigned name, or a
method of a module-level class, whose name does not start with an
underscore.  A
reference is an ``ast.Name``, an ``ast.Attribute`` or an import alias
with the same name anywhere in ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` or ``scripts/`` (the lint fixtures under
``tests/analysis/fixtures`` are never imported, so they do not count),
minus the references inside the definition's own body.  Matching is by
name alone, so the scan can miss a dead definition that shares its name
with a live one, but it never flags a definition some code names.

Exempt: dunders, rule classes registered with ``@register`` (the
registry reaches them), and methods that override a method of a
``src/`` base class (the base class's callers reach them).  A
definition reached only by a name built at run time goes in
``WAIVERS`` with the reason.
"""

from __future__ import annotations

import ast
import os
from collections import Counter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "tests", "benchmarks", "examples", "scripts")
EXCLUDED = (os.path.join("tests", "analysis", "fixtures"),)

# "module:qualname" -> why nothing names it in the scanned code.
WAIVERS: dict[str, str] = {}


def python_files(root: str = REPO_ROOT):
    for top in SCANNED:
        for directory, subdirs, files in os.walk(os.path.join(root, top)):
            relative = os.path.relpath(directory, root)
            if relative.startswith(EXCLUDED):
                subdirs[:] = []
                continue
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def referenced_names(tree: ast.AST) -> Counter:
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


def _is_registered(node: ast.ClassDef) -> bool:
    return any(isinstance(decorator, ast.Name) and decorator.id == "register"
               for decorator in node.decorator_list)


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _assigned_names(node: ast.Assign | ast.AnnAssign) -> list[str]:
    """The names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = []
    for target in targets:
        for item in ast.walk(target):
            if isinstance(item, ast.Name):
                names.append(item.id)
    return names


def definitions(modules: dict[str, ast.Module]):
    """Yield ``(module:qualname, name, node)`` for every scanned definition.

    ``modules`` maps a module name to its tree; only ``src/`` modules
    are passed in.
    """
    classes: dict[str, list[ast.ClassDef]] = {}
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)

    def inherited(node: ast.ClassDef, seen: set[str]) -> set[str]:
        methods: set[str] = set()
        for base in _base_names(node):
            if base in seen:
                continue
            seen.add(base)
            for parent in classes.get(base, ()):
                methods.update(item.name for item in parent.body
                               if isinstance(item, (ast.FunctionDef,
                                                    ast.AsyncFunctionDef)))
                methods |= inherited(parent, seen)
        return methods

    def public(name: str) -> bool:
        return not name.startswith("_")

    for module, tree in sorted(modules.items()):
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _assigned_names(node):
                    if public(name):
                        yield f"{module}:{name}", name, node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if public(node.name):
                    yield f"{module}:{node.name}", node.name, node
            elif isinstance(node, ast.ClassDef):
                if public(node.name) and not _is_registered(node):
                    yield f"{module}:{node.name}", node.name, node
                overridden = inherited(node, set())
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and public(item.name)
                            and item.name not in overridden
                            and not _is_registered(node)):
                        yield (f"{module}:{node.name}.{item.name}",
                               item.name, item)


def dead_definitions(root: str = REPO_ROOT) -> list[str]:
    trees = {path: parse(path) for path in python_files(root)}
    total: Counter = Counter()
    for tree in trees.values():
        total.update(referenced_names(tree))
    src = os.path.join(root, "src")
    modules = {
        os.path.relpath(path, src)[:-3].replace(os.sep, "."): tree
        for path, tree in trees.items()
        if path.startswith(src + os.sep)
    }
    dead = []
    for key, name, node in definitions(modules):
        if name.startswith("__") and name.endswith("__"):
            continue
        if total[name] - referenced_names(node)[name] <= 0:
            dead.append(key)
    return dead


def test_every_public_definition_is_referenced():
    dead = [key for key in dead_definitions() if key not in WAIVERS]
    assert dead == [], (
        "public src/ definitions that nothing outside themselves names: "
        f"{dead}; delete them, or waive one in WAIVERS with the reason "
        "nothing names it"
    )


def test_every_waiver_is_still_needed():
    dead = set(dead_definitions())
    assert [key for key in WAIVERS if key not in dead] == []


def test_scan_flags_an_unreferenced_method(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Base:\n"
        "    def hook(self):\n"
        "        return self.hook()\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "\n"
        "class Child(Base):\n"
        "    def hook(self):\n"
        "        return 1\n"
        "\n"
        "def used():\n"
        "    return Child().hook()\n"
        "\n"
        "def __getattr__(name):\n"
        "    return name\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import used\n"
    )
    # Base.hook is named only by itself and by Child.hook's caller;
    # Child.hook overrides a src/ base; Base.unused names only itself.
    assert dead_definitions(str(tmp_path)) == ["pkg.mod:Base.unused"]


def test_scan_flags_an_unreferenced_constant(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "USED = 1\n"
        "UNUSED: int = USED + 1\n"
        "PAIR, _PRIVATE = 2, 3\n"
        "__all__ = ['USED']\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import PAIR\n"
    )
    # USED is named by UNUSED's value; UNUSED only by its own binding.
    assert dead_definitions(str(tmp_path)) == ["pkg.mod:UNUSED"]
