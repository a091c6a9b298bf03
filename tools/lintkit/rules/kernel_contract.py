"""Family 2 — kernel-contract.

Policies are pure kernels (see ``docs/architecture.md``, "policy kernel
contract"): ``access(request, seq)`` returns an ``AccessOutcome`` and
mutates nothing but replacement state; kernels never touch files, sockets
or the request they were handed.  These rules apply to every class in the
analysis set that subclasses ``CachePolicy`` — and the registry is
cross-checked so a policy cannot dodge them by not being analyzed.
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

__all__ = [
    "KernelAccessOutcomeRule",
    "KernelNoIORule",
    "KernelRequestMutationRule",
    "policy_classes",
]

_POLICY_BASE = "CachePolicy"


def policy_classes(
    project: Project,
) -> list[tuple[FileContext, ast.ClassDef]]:
    """Every concrete policy class in the analysis set: subclasses of
    ``CachePolicy`` (resolved by lineage), excluding the base itself."""
    found = []
    for (module, name), (ctx, cls) in sorted(project.classes.items()):
        if name == _POLICY_BASE:
            continue
        if project.is_subclass_of(ctx, cls, _POLICY_BASE):
            found.append((ctx, cls))
    return found


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _lineage_methods(
    project: Project, ctx: FileContext, cls: ast.ClassDef
) -> dict[str, ast.FunctionDef]:
    """Method table over the resolvable lineage (subclass overrides win)."""
    table: dict[str, ast.FunctionDef] = {}
    for _, ancestor in project.class_lineage(ctx, cls):
        for name, fn in _methods(ancestor).items():
            table.setdefault(name, fn)
    return table


def _annotation_text(annotation: ast.AST | None) -> str | None:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value
    return ast.unparse(annotation)


class KernelAccessOutcomeRule(ProjectRule):
    """``access`` is the kernel's only output channel: it must exist, be
    annotated ``-> AccessOutcome``, and never return bare/None."""

    rule_id = "kernel-access-outcome"
    summary = "policy classes implement access(request, seq) -> AccessOutcome"

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Violation]:
        for ctx, cls in policy_classes(project):
            if _is_abstract(cls):
                continue
            table = _lineage_methods(project, ctx, cls)
            access = table.get("access")
            if access is None:
                yield ctx.violation(
                    cls,
                    self.rule_id,
                    f"policy class `{cls.name}` defines no access() method "
                    "anywhere in its lineage",
                )
                continue
            returns = _annotation_text(access.returns)
            if returns is None or returns.split(".")[-1].strip('"\'') != "AccessOutcome":
                yield ctx.violation(
                    access if access in cls.body else cls,
                    self.rule_id,
                    f"`{cls.name}.access` must be annotated "
                    f"`-> AccessOutcome` (found `{returns}`)",
                )
            own_access = _methods(cls).get("access")
            if own_access is not None:
                for node in ast.walk(own_access):
                    if isinstance(node, ast.Return) and (
                        node.value is None
                        or (
                            isinstance(node.value, ast.Constant)
                            and node.value.value is None
                        )
                    ):
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            f"`{cls.name}.access` returns None; every access "
                            "must produce an AccessOutcome event",
                        )


class KernelNoIORule(ProjectRule):
    """A policy kernel must be replayable anywhere: no files, sockets,
    processes or terminal output from inside a policy class."""

    rule_id = "kernel-no-io"
    summary = "no file/network/process I/O inside policy classes"

    _BARE_CALLS = {"open", "input", "print", "breakpoint"}
    _MODULE_ROOTS = {
        "os",
        "io",
        "sys",
        "socket",
        "ssl",
        "http",
        "urllib",
        "requests",
        "subprocess",
        "shutil",
        "pathlib",
        "tempfile",
        "logging",
    }

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Violation]:
        for ctx, cls in policy_classes(project):
            for node in ast.walk(cls):
                if not isinstance(node, ast.Call):
                    continue
                chain = dotted_name(node.func)
                if chain is None:
                    continue
                root = chain.split(".")[0]
                if chain in self._BARE_CALLS:
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"`{chain}()` inside policy class `{cls.name}`: kernels "
                        "perform no I/O; report through AccessOutcome instead",
                    )
                elif root in self._MODULE_ROOTS and "." in chain:
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"`{chain}()` inside policy class `{cls.name}`: kernels "
                        "must not touch the OS, filesystem or network",
                    )


class KernelRequestMutationRule(ProjectRule):
    """The request is shared by every policy in a multi-policy replay;
    a kernel writing to it corrupts its neighbours' inputs."""

    rule_id = "kernel-request-mutation"
    summary = "access()/prepare() never assign to the request they receive"

    _METHODS = ("access", "prepare")

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Violation]:
        for ctx, cls in policy_classes(project):
            for name, fn in _methods(cls).items():
                if name not in self._METHODS:
                    continue
                params = [
                    a.arg
                    for a in fn.args.posonlyargs + fn.args.args
                    if a.arg not in ("self", "cls")
                ]
                if not params:
                    continue
                request_param = params[0]
                yield from self._check_stores(ctx, cls, fn, request_param)

    def _check_stores(
        self, ctx: FileContext, cls: ast.ClassDef, fn: ast.FunctionDef, param: str
    ) -> Iterator[Violation]:
        for node in ast.walk(fn):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if chain == "setattr" and node.args:
                    root = _root_name(node.args[0])
                    if root == param:
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            f"`{cls.name}.{fn.name}` mutates its request via "
                            "setattr(); requests are immutable inputs",
                        )
                continue
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if _root_name(target) == param:
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            f"`{cls.name}.{fn.name}` assigns to "
                            f"`{ast.unparse(target)}`; requests are shared, "
                            "immutable inputs",
                        )


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_abstract(cls: ast.ClassDef) -> bool:
    """Heuristic: class declares abstract methods or an ABC/Protocol base."""
    for base in cls.bases:
        name = dotted_name(base) or ""
        if name.split(".")[-1] in ("ABC", "Protocol"):
            return True
    for keyword in cls.keywords:
        if keyword.arg == "metaclass":
            return True
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in item.decorator_list:
                if (dotted_name(deco) or "").endswith("abstractmethod"):
                    return True
    return False
