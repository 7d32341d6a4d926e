"""Every third-party import is declared in ``pyproject.toml``.

CI installs ``.[dev]`` and nothing else, so a module that imports an
undeclared distribution cannot even be collected there.  Every
top-level import in ``src/``, ``tests/``, ``benchmarks/``, ``examples/``
and ``scripts/`` must name the standard library, ``repro``, a module
beside the importing file (``benchlib``, ``campaign_helpers``,
``workloads``, ...) or a distribution in the ``dev`` extra.
"""

from __future__ import annotations

import ast
import os
import re
import sys

from test_no_dead_definitions import REPO_ROOT, parse, python_files


def dev_distributions(pyproject: str) -> set[str]:
    """Import names of the ``dev`` extra's distributions.

    Read with a regex, not ``tomllib``, so the test also runs on 3.10.
    """
    with open(pyproject, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"^dev\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml has no dev extra"
    names = set()
    for requirement in re.findall(r'"([^"]+)"', block.group(1)):
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        names.add(re.sub(r"[-.]", "_", name.lower()))
    return names


def imported_modules(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def undeclared_imports(root: str = REPO_ROOT) -> list[str]:
    allowed = dev_distributions(os.path.join(root, "pyproject.toml"))
    allowed |= set(sys.stdlib_module_names) | {"repro"}
    undeclared = []
    for path in python_files(root):
        directory = os.path.dirname(path)
        for line, module in imported_modules(parse(path)):
            if module in allowed:
                continue
            if (os.path.exists(os.path.join(directory, module + ".py"))
                    or os.path.isdir(os.path.join(directory, module))):
                continue
            undeclared.append(f"{os.path.relpath(path, root)}:{line}: {module}")
    return undeclared


def test_every_import_is_declared():
    assert undeclared_imports() == []


def test_an_undeclared_import_is_flagged(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[project.optional-dependencies]\ndev = [\n    "pytest-benchmark>=4",\n]\n'
    )
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "helper.py").write_text("")
    (tmp_path / "src" / "mod.py").write_text(
        "import os\nimport helper\nimport pytest_benchmark\nimport networkx\n"
    )
    assert undeclared_imports(str(tmp_path)) == ["src/mod.py:4: networkx"]
