"""Family 2 — kernel-contract.

Policies are pure kernels (see ``docs/architecture.md``, "policy kernel
contract"): ``batch_access(chunk)`` returns an ``AccessOutcomeBatch`` and
mutates nothing but replacement state; kernels never touch files, sockets
or the chunk they were handed.  These rules apply to every class in the
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
from tools.lintkit.rules.observer_purity import parameter_stores

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
    """``batch_access`` is the kernel's only output channel: it must exist,
    be annotated ``-> AccessOutcomeBatch``, and never return bare/None."""

    rule_id = "kernel-access-outcome"
    summary = "policy classes implement batch_access(chunk) -> AccessOutcomeBatch"

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Violation]:
        for ctx, cls in policy_classes(project):
            if _is_abstract(cls):
                continue
            table = _lineage_methods(project, ctx, cls)
            replay = table.get("batch_access")
            if replay is None:
                yield ctx.violation(
                    cls,
                    self.rule_id,
                    f"policy class `{cls.name}` defines no batch_access() method "
                    "anywhere in its lineage",
                )
                continue
            returns = _annotation_text(replay.returns)
            if returns is None or returns.split(".")[-1].strip('"\'') != "AccessOutcomeBatch":
                yield ctx.violation(
                    replay if replay in cls.body else cls,
                    self.rule_id,
                    f"`{cls.name}.batch_access` must be annotated "
                    f"`-> AccessOutcomeBatch` (found `{returns}`)",
                )
            own_replay = _methods(cls).get("batch_access")
            if own_replay is not None:
                for node in ast.walk(own_replay):
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
                            f"`{cls.name}.batch_access` returns None; every "
                            "replay must produce an AccessOutcomeBatch",
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
                        "perform no I/O; report through AccessOutcomeBatch instead",
                    )
                elif root in self._MODULE_ROOTS and "." in chain:
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"`{chain}()` inside policy class `{cls.name}`: kernels "
                        "must not touch the OS, filesystem or network",
                    )


class KernelRequestMutationRule(ProjectRule):
    """The chunk is shared by every policy in a multi-policy replay pass; a
    kernel writing into it corrupts its neighbours' inputs.  No attribute
    or item assignment, no ``setattr``, no ``out=`` argument and no
    in-place ndarray method rooted at the chunk (or at the stream
    ``prepare`` indexes)."""

    rule_id = "kernel-request-mutation"
    summary = "batch_access()/prepare() never store into the chunk or stream they receive"

    _METHODS = ("batch_access", "prepare")

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
                for node, store in parameter_stores(fn, {params[0]}):
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"`{cls.name}.{fn.name}` {store}; the requests a policy "
                        "is handed are shared, immutable inputs",
                    )


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
