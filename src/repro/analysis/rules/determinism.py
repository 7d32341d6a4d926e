"""DET rules: nondeterminism sources.

* ``DET001`` — iteration over a set/frozenset-typed value that escapes
  into ordered output (a for loop, an ordered comprehension, ``list``/
  ``tuple``/``enumerate``/``join``/argument splat) without ``sorted``;
* ``DET002`` — filesystem listings (``os.listdir``, ``glob``,
  ``Path.iterdir``/``glob``/``rglob``, ``os.scandir``, ``os.walk``)
  consumed without ``sorted`` — directory order is filesystem-specific;
* ``DET003`` — raw entropy and wall-clock sources (module-level
  ``random`` draws, unseeded ``random.Random()``, ``uuid``,
  ``os.urandom``, ``secrets``, ``time.time``, naive ``datetime.now``)
  outside ``repro.util.rng``;
* ``DET004`` — ``id()`` anywhere and builtin ``hash()`` outside a
  ``__hash__`` dunder: both are process-local identities, and anything
  they feed (digests, cache keys, merge order) silently diverges
  across processes — ``util.hashing``/``Expr.fp`` are the stable
  replacements.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis import contracts
from repro.analysis.astutil import (
    enclosing_function,
    import_aliases,
    qualified_call_name,
    walk_with_parents,
)
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, Project
from repro.analysis.registry import register

# Consumers that do not depend on iteration order.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "set", "frozenset", "len", "sum", "min", "max", "any",
    "all", "Counter", "collections.Counter",
})
# Consumers that turn an unordered iterable into ordered output.
_ORDERING_CALLS = frozenset({"list", "tuple", "enumerate", "iter", "next"})

_SET_METHODS = frozenset({
    "union", "difference", "intersection", "symmetric_difference", "copy",
})


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


# -- DET001 -------------------------------------------------------------------


class _SetTypes(ast.NodeVisitor):
    """Scope-local inference of which names hold sets.

    One forward pass per scope: a name assigned from a set-typed
    expression (or annotated ``set[...]``) is set-typed from then on.
    Deliberately local — attributes and cross-function flow are out of
    scope, keeping the rule's false-positive rate near zero.
    """

    def __init__(self, aliases: dict[str, str]):
        self.aliases = aliases
        self.set_names: set[str] = set()

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            name = qualified_call_name(node.func, self.aliases)
            if name in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
            ):
                return self.is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def _annotation_is_set(self, annotation: ast.expr | None) -> bool:
        if annotation is None:
            return False
        root = annotation
        if isinstance(root, ast.Subscript):
            root = root.value
        return isinstance(root, ast.Name) and root.id in ("set", "frozenset")

    def learn(self, scope: ast.AST) -> None:
        for node in _shallow_walk(scope):
            if isinstance(node, ast.Assign) and self.is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if self._annotation_is_set(node.annotation):
                    self.set_names.add(node.target.id)
            elif isinstance(node, ast.arg) and self._annotation_is_set(
                node.annotation
            ):
                self.set_names.add(node.arg)


def _shallow_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope without descending into nested function scopes.

    Class bodies stay in the enclosing scope (their statements execute
    there); each function body is its own scope and gets its own pass.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _iter_escapes(scope: ast.AST, types: _SetTypes) -> Iterator[ast.expr]:
    """Yield set-typed expressions whose iteration order escapes."""
    # A comprehension handed straight to an order-insensitive consumer
    # (`sorted(f(x) for x in s)`, `max(... for x in s)`) never leaks
    # iteration order; collect those first and skip their generators.
    # AST nodes hash by object identity, so the set membership test
    # below is "is this the same node", not a value comparison.
    absorbed: set[ast.expr] = set()
    for node in _shallow_walk(scope):
        if isinstance(node, ast.Call):
            name = qualified_call_name(node.func, types.aliases)
            if name in _ORDER_INSENSITIVE:
                absorbed.update(
                    arg
                    for arg in node.args
                    if isinstance(arg, (ast.ListComp, ast.GeneratorExp))
                )
    for node in _shallow_walk(scope):
        if isinstance(node, ast.For) and types.is_set_expr(node.iter):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            if node in absorbed:
                continue
            for comp in node.generators:
                if types.is_set_expr(comp.iter):
                    yield comp.iter
        elif isinstance(node, ast.Call):
            name = qualified_call_name(node.func, types.aliases)
            if name in _ORDERING_CALLS and node.args and types.is_set_expr(
                node.args[0]
            ):
                yield node.args[0]
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and types.is_set_expr(node.args[0])
            ):
                yield node.args[0]
        elif isinstance(node, ast.Starred) and types.is_set_expr(node.value):
            yield node.value


def _function_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register
class UnsortedSetIteration:
    id = "DET001"
    summary = ("set/frozenset iteration escaping into ordered output "
               "without sorted()")
    invariant = "task-ordered merge / deterministic reports"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.lint_modules:
            aliases = import_aliases(module.tree)
            module_types = _SetTypes(aliases)
            module_types.learn(module.tree)
            found: dict[tuple[int, int], ast.expr] = {}
            for expr in _iter_escapes(module.tree, module_types):
                found.setdefault((expr.lineno, expr.col_offset), expr)
            for scope in _function_scopes(module.tree):
                types = _SetTypes(aliases)
                # Module-level set names stay visible inside functions.
                types.set_names |= module_types.set_names
                types.learn(scope)
                for expr in _iter_escapes(scope, types):
                    found.setdefault((expr.lineno, expr.col_offset), expr)
            for _, expr in sorted(found.items()):
                yield _finding(
                    module, self.id, expr,
                    "iteration order of a set escapes into ordered "
                    "output; wrap the iterable in sorted(...) (or "
                    "consume it order-insensitively)",
                )


# -- DET002 -------------------------------------------------------------------

_FS_LISTING_CALLS = frozenset({
    "os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob",
})
_FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})


@register
class UnsortedFsListing:
    id = "DET002"
    summary = "filesystem listing consumed without sorted()"
    invariant = "deterministic reports at any worker count"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.lint_modules:
            aliases = import_aliases(module.tree)
            for node, parents in walk_with_parents(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = qualified_call_name(node.func, aliases)
                is_listing = name in _FS_LISTING_CALLS or (
                    name is None
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _FS_LISTING_METHODS
                )
                if not is_listing or self._is_sorted(parents):
                    continue
                label = name or node.func.attr  # type: ignore[union-attr]
                yield _finding(
                    module, self.id, node,
                    f"{label}() returns entries in filesystem order; "
                    "wrap the call in sorted(...)",
                )

    @staticmethod
    def _is_sorted(parents: list[ast.AST]) -> bool:
        parent = parents[-1] if parents else None
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in ("sorted", "set", "frozenset", "len")
        )


# -- DET003 -------------------------------------------------------------------

_RANDOM_MODULE_FNS = (
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
)
_ENTROPY_CALLS = frozenset(
    {f"random.{fn}" for fn in _RANDOM_MODULE_FNS}
    | {
        "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5",
        "os.urandom", "os.getrandom",
        "time.time", "time.time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)


@register
class UnseededEntropy:
    id = "DET003"
    summary = ("raw entropy/clock source outside the seeded rng "
               "service (util.rng)")
    invariant = "seeded RNG derivation (invariant 2)"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.lint_modules:
            if module.name in contracts.ENTROPY_EXEMPT_MODULES:
                continue
            aliases = import_aliases(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = qualified_call_name(node.func, aliases)
                if name is None:
                    continue
                if name in _ENTROPY_CALLS or name.startswith("secrets."):
                    yield _finding(
                        module, self.id, node,
                        f"{name}() draws process-local entropy or wall "
                        "clock; derive randomness via util.rng "
                        "(derive_seed / RandomService) instead",
                    )
                elif name == "random.Random" and not (
                    node.args or node.keywords
                ):
                    yield _finding(
                        module, self.id, node,
                        "random.Random() with no seed is entropy-"
                        "seeded; pass a seed derived via "
                        "util.rng.derive_seed",
                    )


# -- DET004 -------------------------------------------------------------------


@register
class ProcessLocalIdentity:
    id = "DET004"
    summary = "id()/builtin hash() used outside a __hash__ dunder"
    invariant = "process-stable digests (invariants 4 and 6)"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.lint_modules:
            for node, parents in walk_with_parents(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("id", "hash")
                ):
                    continue
                if node.func.id == "hash":
                    function = enclosing_function(parents)
                    if function is not None and function.name in (
                        "__hash__", "__eq__"
                    ):
                        continue
                builtin = node.func.id
                yield _finding(
                    module, self.id, node,
                    f"{builtin}() is a process-local identity — salted "
                    "per interpreter — and must never feed digests, "
                    "cache keys or merge order; use util.hashing."
                    "stable_hash (or Expr.fp) instead",
                )
