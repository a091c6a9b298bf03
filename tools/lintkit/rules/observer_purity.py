"""Family 3 — observer-purity.

Replay observers (``ReplayObserver`` implementations) share one replay
pass: every policy's pipeline is handed the same chunk's numpy columns, the
next policy replays that chunk, and the cluster or policy an observer was
constructed around keeps serving the replay loop.  An observer may *read*
anything it was handed but may only ever *write* its own state.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lintkit.core import (
    FileContext,
    LintConfig,
    Project,
    ProjectRule,
    Violation,
    dotted_name,
)

__all__ = ["ObserverParamMutationRule", "parameter_stores"]

_OBSERVER_BASE = "ReplayObserver"

#: ndarray methods that write into the array they are called on.
_IN_PLACE_METHODS = frozenset({"fill", "sort", "partition", "put", "resize"})


def observer_classes(project: Project) -> list[tuple[FileContext, ast.ClassDef]]:
    found = []
    for (module, name), (ctx, cls) in sorted(project.classes.items()):
        if name == _OBSERVER_BASE:
            continue
        if project.is_subclass_of(ctx, cls, _OBSERVER_BASE):
            found.append((ctx, cls))
    return found


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class ObserverParamMutationRule(ProjectRule):
    """Observers never write into anything they were handed — not the
    policy/cluster they observe, not a chunk's or a batch's columns: no
    attribute or item assignment, no ``setattr``, no ``out=`` argument and
    no in-place ndarray method (``fill``, ``sort``, ``partition``, ``put``,
    ``resize``) rooted at a parameter."""

    rule_id = "observer-param-mutation"
    summary = "observers write only their own state, never into a parameter"

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Violation]:
        for ctx, cls in observer_classes(project):
            for name, fn in _methods(cls).items():
                params = {
                    a.arg
                    for a in (
                        fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                    )
                    if a.arg not in ("self", "cls")
                }
                if fn.args.vararg:
                    params.add(fn.args.vararg.arg)
                if fn.args.kwarg:
                    params.add(fn.args.kwarg.arg)
                for node, store in parameter_stores(fn, params):
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"`{cls.name}.{fn.name}` {store}; observers write only "
                        "their own state",
                    )


def parameter_stores(
    fn: ast.FunctionDef, params: set[str]
) -> Iterator[tuple[ast.AST, str]]:
    """Each store of *fn* into one of *params*, with what it does: an
    attribute or item assignment, ``setattr``, an ``out=`` argument or an
    in-place ndarray method (``fill``, ``sort``, ``partition``, ``put``,
    ``resize``) rooted at the parameter."""
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            if dotted_name(node.func) == "setattr" and node.args:
                root = _root_name(node.args[0])
                if root in params:
                    yield node, f"mutates parameter `{root}` via setattr()"
            for keyword in node.keywords:
                if keyword.arg == "out" and _root_name(keyword.value) in params:
                    yield node, (
                        f"writes into `{ast.unparse(keyword.value)}` via out=, "
                        "a column of a parameter"
                    )
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _IN_PLACE_METHODS
                and _root_name(func.value) in params
            ):
                yield node, (
                    f"calls `{ast.unparse(func)}()`, which writes into a "
                    "parameter's array in place"
                )
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                if _root_name(target) in params:
                    yield node, (
                        f"assigns to `{ast.unparse(target)}`, an attribute of a parameter"
                    )


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None

