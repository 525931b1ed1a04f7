"""Cross-module project index: classes, locks, and guarded state.

The per-file rules (RPL001–RPL010) see one module at a time, which is
exactly the wrong granularity for concurrency discipline: whether
``queue.py`` may take ``_seq_lock`` depends on what ``jobs.py`` holds
when it calls in.  This module builds the shared picture the
concurrency rules (RPL011–RPL013) analyze:

* every class in the linted file set, keyed by its dotted qualname
  (``repro.service.jobs.JobRegistry``, from :attr:`SourceFile.module`);
* its **lock attributes** — ``self.X = threading.Lock()`` / ``RLock`` /
  ``Condition`` assignments, resolved through the import map so aliased
  spellings still count;
* its **attribute types** where statically derivable (constructor
  calls, ``x if cond else None`` ternaries, parameter and variable
  annotations) — what lets a rule know ``self._queue.get(...)`` blocks;
* per method, every ``self.F`` **field access** (read/write), every
  lock **acquisition** (``with self._lock:``), and every call, each
  tagged with the set of locks *lexically held* at that point;
* a **held-at-entry** fixed point: an underscore-prefixed method called
  only from sites that hold ``_lock`` is analyzed as holding ``_lock``
  on entry (``JobRegistry._note_terminal`` is the motivating case);
* explicit ``# repro-lint: guarded-by=_lock`` annotations on
  field-assignment lines (from :attr:`SourceFile.directives`).

Everything here is pure data extraction; the judgment calls (what
counts as a violation) live in :mod:`repro.lint.concurrency`.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterable, Iterator

from repro.lint.model import MUTATOR_METHODS, SourceFile

__all__ = [
    "ProjectIndex",
    "ClassInfo",
    "MethodInfo",
    "FieldAccess",
    "Acquisition",
    "CallSite",
    "HeldLock",
]

#: Fully-qualified constructors that create a mutual-exclusion object.
LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
})


@dataclasses.dataclass(frozen=True)
class HeldLock:
    """One lock held at a program point, with where it came from."""

    attr: str
    #: Line the ``with self.attr:`` sits on; 0 = held at method entry
    #: (inferred from every internal call site holding it).
    line: int

    def describe(self, path: str) -> str:
        if self.line == 0:
            return f"`self.{self.attr}` (held at method entry)"
        return f"`self.{self.attr}` (acquired {path}:{self.line})"


@dataclasses.dataclass(frozen=True)
class FieldAccess:
    """One read or write of ``self.<attr>`` inside a method."""

    attr: str
    kind: str  # "read" | "write"
    line: int
    col: int
    held: tuple[HeldLock, ...]


@dataclasses.dataclass(frozen=True)
class Acquisition:
    """One ``with self.<attr>:`` lock acquisition."""

    attr: str
    line: int
    col: int
    held: tuple[HeldLock, ...]  # locks already held when acquiring


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call made inside a method, tagged with the held-lock set.

    Exactly one of the shapes is populated:

    * ``resolved`` — a fully-qualified import-resolved target
      (``os.fsync``);
    * ``self_method`` — ``self.m(...)``;
    * ``attr`` + ``method`` — ``self.X.m(...)``, a call through a field;
    * ``local_type`` + ``method`` — a call on a local whose constructor
      resolved (``t = threading.Thread(...); t.join()``).
    """

    line: int
    col: int
    held: tuple[HeldLock, ...]
    resolved: str | None = None
    self_method: str | None = None
    attr: str | None = None
    method: str | None = None
    local_type: str | None = None


@dataclasses.dataclass
class MethodInfo:
    """Everything the rules need to know about one method."""

    name: str
    line: int
    accesses: list[FieldAccess] = dataclasses.field(default_factory=list)
    acquisitions: list[Acquisition] = dataclasses.field(default_factory=list)
    calls: list[CallSite] = dataclasses.field(default_factory=list)
    #: Locks provably held whenever this method runs (fixed point over
    #: internal call sites; always empty for public methods).
    entry_held: frozenset[str] = frozenset()

    @property
    def is_internal(self) -> bool:
        return self.name.startswith("_") and not self.name.startswith("__")

    def effective_held(self, held: tuple[HeldLock, ...]) -> frozenset[str]:
        """Lexically-held locks plus the held-at-entry set."""
        return frozenset(h.attr for h in held) | self.entry_held


@dataclasses.dataclass
class ClassInfo:
    """One class, its locks, its typed attributes, and its methods."""

    name: str
    path: str
    module: str
    line: int
    lock_attrs: dict[str, str] = dataclasses.field(default_factory=dict)
    attr_types: dict[str, str] = dataclasses.field(default_factory=dict)
    methods: dict[str, MethodInfo] = dataclasses.field(default_factory=dict)
    #: Explicit ``guarded-by`` annotations: field -> lock attr.
    guarded_by: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Line of each guarded-by annotation, for finding locations.
    guarded_by_lines: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"

    def iter_methods(self) -> Iterator[MethodInfo]:
        for name in sorted(self.methods):
            yield self.methods[name]


class ProjectIndex:
    """The cross-module view the project-scoped rules run against."""

    def __init__(self, classes: list[ClassInfo]) -> None:
        self.classes = sorted(classes, key=lambda c: (c.path, c.line))
        self.by_qualname = {cls.qualname: cls for cls in self.classes}

    @classmethod
    def build(cls, sources: Iterable[SourceFile]) -> "ProjectIndex":
        classes: list[ClassInfo] = []
        for src in sources:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef):
                    classes.append(_build_class(src, node))
        for info in classes:
            _solve_entry_held(info)
        return cls(classes)

    def resolve_attr_class(
        self, cls: ClassInfo, attr: str
    ) -> ClassInfo | None:
        """The :class:`ClassInfo` a typed attribute points at, if indexed."""
        type_name = cls.attr_types.get(attr)
        if type_name is None:
            return None
        return self.by_qualname.get(type_name)


# -- class extraction ----------------------------------------------------


def _self_attr(node: ast.expr) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _build_class(src: SourceFile, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(
        name=node.name, path=src.path, module=src.module, line=node.lineno
    )
    local_classes = {
        n.name for n in ast.walk(src.tree) if isinstance(n, ast.ClassDef)
    }
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scanner = _MethodScanner(src, info, stmt, local_classes)
            info.methods[stmt.name] = scanner.run()
    return info


def _annotation_type(
    annotation: ast.expr | None, src: SourceFile, local_classes: set[str],
    module: str,
) -> str | None:
    """The top-level resolvable type named by an annotation, if any.

    Handles ``T``, ``pkg.T``, ``T | None``, ``Optional[T]``, subscripted
    generics (``queue.Queue[...]`` resolves to its base) and quoted
    string annotations (re-parsed).  Only the *top-level* type counts:
    ``list[threading.Thread]`` is a list, not a Thread, so it resolves
    to nothing rather than mistyping the container as its element.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    return _type_of_expr(annotation, src, local_classes, module)


def _type_of_expr(
    node: ast.expr, src: SourceFile, local_classes: set[str], module: str
) -> str | None:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _type_of_expr(node.left, src, local_classes, module)
        if left is not None:
            return left
        return _type_of_expr(node.right, src, local_classes, module)
    if isinstance(node, ast.Subscript):
        base = _resolve_type(node.value, src, local_classes, module)
        if base in ("typing.Optional", "typing.Union"):
            inner = node.slice
            elements = (
                inner.elts if isinstance(inner, ast.Tuple) else [inner]
            )
            for element in elements:
                resolved = _type_of_expr(
                    element, src, local_classes, module
                )
                if resolved is not None:
                    return resolved
            return None
        return base
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _resolve_type(node, src, local_classes, module)
    return None


def _resolve_type(
    node: ast.expr, src: SourceFile, local_classes: set[str], module: str
) -> str | None:
    """Dotted qualname of a type expression, if derivable."""
    if isinstance(node, ast.Name):
        if node.id in ("None", "Optional", "Union", "self"):
            return None
        resolved = src.imports.get(node.id)
        if resolved is not None:
            return resolved
        if node.id in local_classes:
            return f"{module}.{node.id}"
        return None
    resolved = src.resolve_call(node)
    return resolved


class _MethodScanner:
    """One pass over a method body, tracking the lexically-held locks.

    Nested ``def``/``lambda``/``class`` bodies are skipped: they run at
    some later time under some other lock regime, so attributing the
    enclosing held set to them would be wrong in both directions.
    """

    def __init__(
        self,
        src: SourceFile,
        cls: ClassInfo,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        local_classes: set[str],
    ) -> None:
        self.src = src
        self.cls = cls
        self.fn = fn
        self.local_classes = local_classes
        self.info = MethodInfo(name=fn.name, line=fn.lineno)
        #: Parameter name -> annotated type (feeds ``self.x = param``).
        self.param_types: dict[str, str] = {}
        #: Local variable name -> constructed type.
        self.local_types: dict[str, str] = {}

    def run(self) -> MethodInfo:
        args = self.fn.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
        ):
            resolved = _annotation_type(
                arg.annotation, self.src, self.local_classes,
                self.cls.module,
            )
            if resolved is not None:
                self.param_types[arg.arg] = resolved
        for stmt in self.fn.body:
            self._scan(stmt, ())
        return self.info

    # -- recording ------------------------------------------------------

    def _record_access(
        self, attr: str, kind: str, node: ast.AST,
        held: tuple[HeldLock, ...],
    ) -> None:
        self.info.accesses.append(FieldAccess(
            attr=attr, kind=kind,
            line=getattr(node, "lineno", self.fn.lineno),
            col=getattr(node, "col_offset", 0) + 1,
            held=held,
        ))
        if kind == "write":
            lock = self.src.directives.guarded_by.get(
                getattr(node, "lineno", -1)
            )
            if lock is not None and attr not in self.cls.guarded_by:
                self.cls.guarded_by[attr] = lock
                self.cls.guarded_by_lines[attr] = getattr(
                    node, "lineno", self.fn.lineno
                )

    def _record_attr_value(self, attr: str, value: ast.expr) -> None:
        """Type/lock bookkeeping for ``self.attr = <value>``."""
        candidates: list[ast.expr] = [value]
        if isinstance(value, ast.IfExp):
            candidates = [value.body, value.orelse]
        for candidate in candidates:
            if isinstance(candidate, ast.Call):
                resolved = self.src.resolve_call(candidate.func)
                if resolved is None and isinstance(
                    candidate.func, ast.Name
                ) and candidate.func.id in self.local_classes:
                    resolved = f"{self.cls.module}.{candidate.func.id}"
                if resolved is None:
                    continue
                if resolved in LOCK_FACTORIES:
                    self.cls.lock_attrs.setdefault(
                        attr, resolved.rsplit(".", 1)[1]
                    )
                else:
                    self.cls.attr_types.setdefault(attr, resolved)
                return
            if isinstance(candidate, ast.Name):
                param = self.param_types.get(candidate.id)
                if param is not None:
                    self.cls.attr_types.setdefault(attr, param)
                    return

    # -- the walk -------------------------------------------------------

    def _scan_all(
        self, nodes: Iterable[ast.AST], held: tuple[HeldLock, ...]
    ) -> None:
        for node in nodes:
            self._scan(node, held)

    def _scan(self, node: ast.AST, held: tuple[HeldLock, ...]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._scan_with(node, held)
        elif isinstance(node, ast.Call):
            self._scan_call(node, held)
        elif isinstance(node, ast.Assign):
            self._scan(node.value, held)
            for target in node.targets:
                self._scan_store(target, held)
            self._note_assign_types(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._scan(node.value, held)
                self._scan_store(node.target, held)
                self._note_assign_types([node.target], node.value)
            attr = _self_attr(node.target)
            if attr is not None:
                annotated = _annotation_type(
                    node.annotation, self.src, self.local_classes,
                    self.cls.module,
                )
                if annotated is not None:
                    self.cls.attr_types.setdefault(attr, annotated)
        elif isinstance(node, ast.AugAssign):
            self._scan(node.value, held)
            self._scan_store(node.target, held)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._scan_store(target, held)
        elif isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                self._record_access(attr, "read", node, held)
            else:
                self._scan(node.value, held)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                   ast.ClassDef)
        ):
            return  # deferred execution: a different lock regime
        else:
            self._scan_all(ast.iter_child_nodes(node), held)

    def _scan_with(
        self, node: ast.With | ast.AsyncWith, held: tuple[HeldLock, ...]
    ) -> None:
        inner = held
        for item in node.items:
            ctx = item.context_expr
            attr = _self_attr(ctx)
            if attr is not None and attr in self.cls.lock_attrs:
                if all(h.attr != attr for h in inner):
                    self.info.acquisitions.append(Acquisition(
                        attr=attr, line=ctx.lineno,
                        col=ctx.col_offset + 1, held=inner,
                    ))
                    inner = inner + (HeldLock(attr, ctx.lineno),)
            else:
                self._scan(ctx, inner)
            if item.optional_vars is not None:
                self._scan_store(item.optional_vars, inner)
        self._scan_all(node.body, inner)

    def _scan_call(
        self, node: ast.Call, held: tuple[HeldLock, ...]
    ) -> None:
        func = node.func
        handled_func = False
        if isinstance(func, ast.Attribute):
            recv_attr = _self_attr(func.value)
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                # self.m(...) — a method (or callable-field) call.
                self.info.calls.append(CallSite(
                    line=node.lineno, col=node.col_offset + 1,
                    held=held, self_method=func.attr,
                ))
                handled_func = True
            elif recv_attr is not None:
                # self.X.m(...) — a call through a field.
                kind = (
                    "write" if func.attr in MUTATOR_METHODS else "read"
                )
                self._record_access(recv_attr, kind, func.value, held)
                self.info.calls.append(CallSite(
                    line=node.lineno, col=node.col_offset + 1,
                    held=held, attr=recv_attr, method=func.attr,
                ))
                handled_func = True
            elif isinstance(func.value, ast.Name):
                local = self.local_types.get(func.value.id)
                if local is not None:
                    self.info.calls.append(CallSite(
                        line=node.lineno, col=node.col_offset + 1,
                        held=held, local_type=local, method=func.attr,
                    ))
                    handled_func = True
        resolved = self.src.resolve_call(func)
        if resolved is not None:
            self.info.calls.append(CallSite(
                line=node.lineno, col=node.col_offset + 1,
                held=held, resolved=resolved,
            ))
            handled_func = True
        if not handled_func:
            self._scan(func, held)
        self._scan_all(node.args, held)
        self._scan_all((kw.value for kw in node.keywords), held)

    def _scan_store(
        self, target: ast.expr, held: tuple[HeldLock, ...]
    ) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._record_access(attr, "write", target, held)
            return
        if isinstance(target, ast.Subscript):
            root = _self_attr(target.value)
            if root is not None:
                # self.F[k] = v mutates F.
                self._record_access(root, "write", target, held)
            else:
                self._scan(target.value, held)
            self._scan(target.slice, held)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_store(element, held)
            return
        if isinstance(target, ast.Starred):
            self._scan_store(target.value, held)
            return
        if isinstance(target, ast.Name):
            return
        self._scan(target, held)

    def _note_assign_types(
        self, targets: list[ast.expr], value: ast.expr
    ) -> None:
        for target in targets:
            attr = _self_attr(target)
            if attr is not None:
                self._record_attr_value(attr, value)
            elif isinstance(target, ast.Name) and isinstance(
                value, ast.Call
            ):
                resolved = self.src.resolve_call(value.func)
                if resolved is not None:
                    self.local_types[target.id] = resolved


# -- held-at-entry fixed point ------------------------------------------


def _solve_entry_held(cls: ClassInfo) -> None:
    """Infer locks every caller provably holds when entering a method.

    Only underscore-prefixed (non-dunder) methods participate: a public
    method is callable from outside the class with nothing held, so its
    entry set is always empty.  For internal methods the entry set is
    the *intersection* over every internal call site of (caller's entry
    set ∪ locks lexically held at the site) — grown monotonically to a
    fixed point, so helper chains (``create`` → ``_note_terminal``)
    resolve without annotations.  A method with no internal call sites
    keeps an empty entry set (it may be a thread target or callback).
    """
    internal = {
        name for name, m in cls.methods.items() if m.is_internal
    }
    if not internal:
        return
    sites: dict[str, list[tuple[str, frozenset[str]]]] = {
        name: [] for name in internal
    }
    for caller_name, caller in cls.methods.items():
        for call in caller.calls:
            if call.self_method in sites:
                sites[call.self_method].append(
                    (caller_name, frozenset(h.attr for h in call.held))
                )
    entry: dict[str, frozenset[str]] = {
        name: frozenset() for name in internal
    }
    changed = True
    while changed:
        changed = False
        for name in sorted(internal):
            call_sites = sites[name]
            if not call_sites:
                continue
            candidate: frozenset[str] | None = None
            for caller_name, held in call_sites:
                caller_entry = entry.get(caller_name, frozenset())
                site_held = held | caller_entry
                candidate = (
                    site_held if candidate is None
                    else candidate & site_held
                )
            assert candidate is not None
            if candidate != entry[name]:
                entry[name] = candidate
                changed = True
    for name in internal:
        cls.methods[name].entry_held = entry[name]
