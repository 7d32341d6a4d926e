"""ISO rules: isolation between layers and between a clone's routers.

* ``ISO001`` — declarative per-module import contracts, checked
  transitively.  Generalizes the original one-off AST allowlist test
  for ``repro.differential.reference`` into a registry of
  :class:`~repro.analysis.contracts.ImportContract` entries covering
  the oracle, the concolic engine, the BGP model, util and the analysis
  package itself.  Violations are anchored at the import statement that
  creates the offending edge, with the reachability chain in the
  message.
* ``ISO002`` — a property's ``prepare``/``check`` and the explorer's
  clone plumbing (:data:`~repro.analysis.contracts.CLONE_READERS`) must
  not iterate a network's ``processes``: a lazy clone builds every
  router such a loop reaches.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis import contracts
from repro.analysis.astutil import module_prefix_match, walk_with_parents
from repro.analysis.contracts import ImportContract
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, Project
from repro.analysis.registry import register


def _matches_any(module: str, patterns: tuple[str, ...]) -> bool:
    return any(module_prefix_match(module, p) for p in patterns)


def _contract_roots(contract: ImportContract,
                    project: Project) -> list[str]:
    return sorted(
        name
        for name in project.by_name
        if _matches_any(name, contract.roots)
    )


def _chain(reached: dict[str, tuple[str, int]], module: str) -> str:
    """Render the import chain root -> … -> module."""
    links = [module]
    current = module
    while True:
        parent, _ = reached[current]
        if parent == current:
            break
        links.append(parent)
        current = parent
    return " -> ".join(reversed(links))


@register
class ImportContractRule:
    id = "ISO001"
    summary = "module imports outside its declared import contract"
    invariant = "oracle independence / layer isolation"

    def check(self, project: Project) -> Iterable[Finding]:
        lint_names = {m.name for m in project.lint_modules if m.name}
        for contract in contracts.IMPORT_CONTRACTS:
            roots = _contract_roots(contract, project)
            if not roots:
                continue
            yield from self._check_direct(contract, roots, project,
                                          lint_names)
            yield from self._check_closure(contract, roots, project,
                                           lint_names)

    def _check_direct(self, contract: ImportContract, roots: list[str],
                      project: Project,
                      lint_names: set[str]) -> Iterable[Finding]:
        if not contract.allow_direct:
            return
        allowed = contract.allow_direct + tuple(roots)
        for root in roots:
            module = project.by_name[root]
            for target, line in project.imports.get(root, []):
                if not target.startswith("repro"):
                    continue
                if _matches_any(target, allowed):
                    continue
                yield self._finding(
                    module, line,
                    f"[{contract.name}] {root} imports {target}, outside "
                    f"its direct-import allowlist — {contract.rationale}",
                )

    def _check_closure(self, contract: ImportContract, roots: list[str],
                       project: Project,
                       lint_names: set[str]) -> Iterable[Finding]:
        if not (contract.allow_transitive or contract.forbid):
            return
        reached = project.reachable_modules(roots)
        for target in sorted(reached):
            if target in roots or not target.startswith("repro"):
                continue
            importer, line = reached[target]
            forbidden = _matches_any(target, contract.forbid)
            outside_allow = contract.allow_transitive and not _matches_any(
                target, contract.allow_transitive + tuple(contract.roots)
            )
            if not (forbidden or outside_allow):
                continue
            # Anchor at the importing module when it is being linted,
            # else at the contract root so a subtree lint still reports.
            anchor_name = importer if importer in lint_names else roots[0]
            anchor = project.by_name[anchor_name]
            anchor_line = line if anchor_name == importer else 1
            kind = "forbidden" if forbidden else "outside the allowlist"
            yield self._finding(
                anchor, anchor_line,
                f"[{contract.name}] {target} is {kind} but reachable: "
                f"{_chain(reached, target)} — {contract.rationale}",
            )

    @staticmethod
    def _finding(module: ModuleInfo, line: int, message: str) -> Finding:
        return Finding(
            rule="ISO001",
            path=module.relpath,
            line=line,
            col=0,
            message=message,
            line_text=module.line_text(line),
        )


# Calls that iterate their first argument.
_ITERATING_CALLS = frozenset({
    "sorted", "list", "tuple", "set", "frozenset", "dict", "iter",
    "enumerate", "min", "max", "sum", "any", "all",
})
_VIEW_METHODS = frozenset({"items", "values", "keys"})


def _iterates(node: ast.Attribute, parents: list[ast.AST]) -> bool:
    """True when ``node`` (an ``X.processes``) is iterated: looped over,
    handed to an iterating call or unpacked, as it is or through
    ``.items()``/``.values()``/``.keys()``; an ``.items()`` or
    ``.values()`` view counts wherever it goes."""
    source: ast.AST = node
    rest = list(parents)
    if (
        len(rest) >= 2
        and isinstance(rest[-1], ast.Attribute)
        and rest[-1].attr in _VIEW_METHODS
        and isinstance(rest[-2], ast.Call)
        and rest[-2].func is rest[-1]
    ):
        if rest[-1].attr != "keys":
            return True
        source = rest[-2]
        rest = rest[:-2]
    if not rest:
        return False
    user = rest[-1]
    if isinstance(user, (ast.For, ast.AsyncFor, ast.comprehension)):
        return user.iter is source
    if isinstance(user, ast.Starred):
        return True
    return (
        isinstance(user, ast.Call)
        and isinstance(user.func, ast.Name)
        and user.func.id in _ITERATING_CALLS
        and bool(user.args)
        and user.args[0] is source
    )


def _in_held_function(names: tuple[str, ...] | None,
                      parents: list[ast.AST]) -> bool:
    """True when a node under ``parents`` sits in a function held to
    ISO002 (any enclosing function named in ``names``; any at all for
    None)."""
    functions = [
        node.name for node in parents
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    if names is None:
        return bool(functions)
    return any(name in names for name in functions)


@register
class CloneProcessIteration:
    id = "ISO002"
    summary = ("a check or the explorer iterates a network's processes, "
               "building every router of a lazy clone")
    invariant = "copy-on-touch clones (invariant 5)"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.lint_modules:
            if not module.name:
                continue
            scopes = [
                names for pattern, names in contracts.CLONE_READERS.items()
                if module_prefix_match(module.name, pattern)
            ]
            if not scopes:
                continue
            hits = [
                node for node, parents in walk_with_parents(module.tree)
                if isinstance(node, ast.Attribute)
                and node.attr == "processes"
                and _iterates(node, parents)
                and any(_in_held_function(names, parents) for names in scopes)
            ]
            for node in sorted(hits, key=lambda n: (n.lineno, n.col_offset)):
                yield Finding(
                    rule=self.id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "iterates a network's processes, which builds "
                        "every router of a lazy clone; read "
                        "materialized() or look routers up by name"
                    ),
                    line_text=module.line_text(node.lineno),
                )
