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

__all__ = ["ObserverParamMutationRule"]

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
                if not params:
                    continue
                yield from self._check_stores(ctx, cls, fn, params)

    def _check_stores(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        params: set[str],
    ) -> Iterator[Violation]:
        for node in ast.walk(fn):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, cls, fn, params, node)
                continue
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    if root in params:
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            f"`{cls.name}.{fn.name}` assigns to "
                            f"`{ast.unparse(target)}`, an attribute of a "
                            "parameter; observers write only their own state",
                        )

    def _check_call(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        params: set[str],
        node: ast.Call,
    ) -> Iterator[Violation]:
        where = f"`{cls.name}.{fn.name}`"
        if dotted_name(node.func) == "setattr" and node.args:
            root = _root_name(node.args[0])
            if root in params:
                yield ctx.violation(
                    node,
                    self.rule_id,
                    f"{where} mutates parameter `{root}` via setattr(); "
                    "observers write only their own state",
                )
        for keyword in node.keywords:
            if keyword.arg == "out" and _root_name(keyword.value) in params:
                yield ctx.violation(
                    node,
                    self.rule_id,
                    f"{where} writes into `{ast.unparse(keyword.value)}` via "
                    "out=, a column of a parameter; observers write only "
                    "their own state",
                )
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _IN_PLACE_METHODS
            and _root_name(func.value) in params
        ):
            yield ctx.violation(
                node,
                self.rule_id,
                f"{where} calls `{ast.unparse(func)}()`, which writes into a "
                "parameter's array in place; observers write only their "
                "own state",
            )


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None

