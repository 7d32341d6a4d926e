"""HRM rules: worker hermeticity.

* ``HRM001`` — dataclasses shipped over transports (the
  :data:`~repro.analysis.contracts.WIRE_DATACLASSES` inventory) must be
  ``@dataclass``-decorated with every field annotated, no mutable
  class-level defaults, and no annotation naming a statically
  unpicklable type (sockets, threads, locks, futures, …);
* ``HRM002`` — modules transitively importable from the worker entry
  points (``run_task``/``run_shard`` in ``repro.core.parallel``) must
  not consult ``os.environ``, rebind globals, or mutate module-level
  state: a task outcome must be a pure function of the task.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis import contracts
from repro.analysis.astutil import import_aliases, qualified_call_name
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, Project
from repro.analysis.registry import register


def _finding(module: ModuleInfo, rule: str, node: ast.AST,
             message: str) -> Finding:
    line = getattr(node, "lineno", 1)
    return Finding(
        rule=rule,
        path=module.relpath,
        line=line,
        col=getattr(node, "col_offset", 0),
        message=message,
        line_text=module.line_text(line),
    )


# -- HRM001 -------------------------------------------------------------------

_IMMUTABLE_CONST = (ast.Constant,)


def _annotation_tokens(annotation: ast.expr) -> set[str]:
    """Every bare name appearing anywhere in an annotation."""
    tokens: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            tokens.add(node.id)
        elif isinstance(node, ast.Attribute):
            tokens.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("Snapshot | None") — split crudely.
            tokens.update(
                piece
                for piece in node.value.replace("[", " ")
                .replace("]", " ")
                .replace("|", " ")
                .replace(",", " ")
                .split()
            )
    return tokens


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return True
    return False


@register
class WireDataclassFields:
    id = "HRM001"
    summary = ("transport-shipped dataclass with unannotated or "
               "unpicklable fields")
    invariant = "clones share nothing mutable with the live system (invariant 5)"

    def check(self, project: Project) -> Iterable[Finding]:
        for module_name, class_names in contracts.WIRE_DATACLASSES.items():
            module = project.by_name.get(module_name)
            if module is None:
                continue
            classes = {
                node.name: node
                for node in module.tree.body
                if isinstance(node, ast.ClassDef)
            }
            for class_name in class_names:
                node = classes.get(class_name)
                if node is None:
                    yield _finding(
                        module, self.id, module.tree,
                        f"wire dataclass {class_name} is declared in the "
                        "inventory but missing from "
                        f"{module_name} — update contracts.WIRE_DATACLASSES",
                    )
                    continue
                yield from self._check_class(module, node)

    def _check_class(self, module: ModuleInfo,
                     node: ast.ClassDef) -> Iterable[Finding]:
        if not _is_dataclass_decorated(node):
            yield _finding(
                module, self.id, node,
                f"{node.name} ships over transports but is not a "
                "@dataclass; field-annotated dataclasses are the only "
                "audited wire shape",
            )
            return
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign):
                for token in sorted(
                    _annotation_tokens(stmt.annotation)
                    & contracts.UNPICKLABLE_TOKENS
                ):
                    yield _finding(
                        module, self.id, stmt,
                        f"{node.name} field annotation names {token!r}, "
                        "which cannot cross a pickle boundary",
                    )
            elif isinstance(stmt, ast.Assign):
                if isinstance(stmt.value, _IMMUTABLE_CONST):
                    continue  # class attribute holding a constant is fine
                targets = ", ".join(
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                )
                yield _finding(
                    module, self.id, stmt,
                    f"{node.name}.{targets} is an unannotated class-level "
                    "assignment of a non-constant: annotate it as a field "
                    "or it becomes shared mutable class state",
                )


# -- HRM002 -------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "collections.deque",
    "collections.defaultdict", "collections.Counter",
    "collections.OrderedDict", "itertools.count", "threading.local",
})
_IMMUTABLE_CALLS = frozenset({
    "tuple", "frozenset", "struct.Struct", "re.compile", "typing.TypeVar",
    "TypeVar", "collections.namedtuple", "object",
})
_MUTATOR_METHODS = frozenset({
    "append", "add", "insert", "extend", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "appendleft", "put",
})


def _module_level_mutables(module: ModuleInfo,
                           aliases: dict[str, str]) -> dict[str, str]:
    """Module-level names bound to mutable state, with a description.

    A literal container, a call to a known-mutable constructor, or a
    call to anything not known immutable (repro classes: a module-level
    instance is state by definition).
    """
    mutables: dict[str, str] = {}
    for stmt in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        described = None
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            described = "a mutable container literal"
        elif isinstance(value, ast.Call):
            name = qualified_call_name(value.func, aliases)
            if name in _MUTABLE_CALLS:
                described = f"{name}()"
            elif name is not None and name not in _IMMUTABLE_CALLS and (
                name.startswith("repro.") or name[:1].isupper()
            ):
                described = f"an instance of {name}"
        if described is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                mutables[target.id] = described
    return mutables


def _worker_modules(project: Project) -> dict[str, tuple[str, int]]:
    return project.reachable_modules(list(contracts.WORKER_ROOTS))


@register
class WorkerGlobalState:
    id = "HRM002"
    summary = ("worker-reachable code touching os.environ or "
               "module-level mutable state")
    invariant = "clones share nothing mutable with the live system (invariant 5)"

    def check(self, project: Project) -> Iterable[Finding]:
        reachable = _worker_modules(project)
        lint_names = {m.name for m in project.lint_modules if m.name}
        for name in sorted(reachable):
            if name not in lint_names:
                continue
            module = project.by_name[name]
            yield from self._check_module(module)

    def _check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        aliases = import_aliases(module.tree)
        mutables = _module_level_mutables(module, aliases)
        instance_names = {
            name for name, desc in mutables.items()
            if desc.startswith("an instance")
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Global):
                yield _finding(
                    module, self.id, node,
                    "global rebinding in worker-reachable code: a "
                    "task outcome must be a pure function of the task "
                    f"(module {module.name} is importable from "
                    "run_task/run_shard)",
                )
            elif isinstance(node, ast.Attribute) and node.attr == "environ":
                base = qualified_call_name(node.value, aliases)
                if base == "os":
                    yield _finding(
                        module, self.id, node,
                        "os.environ consulted in worker-reachable code; "
                        "ship configuration inside the task instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, mutables,
                                            instance_names)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                yield from self._check_store(module, node, mutables)

    def _check_call(self, module: ModuleInfo, node: ast.Call,
                    mutables: dict[str, str],
                    instance_names: set[str]) -> Iterable[Finding]:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "next"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in mutables
        ):
            target = node.args[0].id
            yield _finding(
                module, self.id, node,
                f"next({target}) advances module-level mutable state "
                f"({mutables[target]}) from worker-reachable code",
            )
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in mutables
        ):
            target = func.value.id
            is_instance = target in instance_names
            if is_instance or func.attr in _MUTATOR_METHODS:
                kind = (
                    "a module-level instance"
                    if is_instance
                    else "module-level mutable state"
                )
                yield _finding(
                    module, self.id, node,
                    f"{target}.{func.attr}(...) touches {kind} "
                    f"({mutables[target]}) from worker-reachable code",
                )

    def _check_store(self, module: ModuleInfo, node: ast.AST,
                     mutables: dict[str, str]) -> Iterable[Finding]:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:  # Delete
            targets = list(node.targets)  # type: ignore[union-attr]
        for target in targets:
            if (
                isinstance(target, (ast.Subscript, ast.Attribute))
                and isinstance(target.value, ast.Name)
                and target.value.id in mutables
            ):
                yield _finding(
                    module, self.id, node,
                    f"store into module-level mutable {target.value.id} "
                    f"({mutables[target.value.id]}) from worker-"
                    "reachable code",
                )
