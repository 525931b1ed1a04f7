"""The rule catalog: determinism, pool safety, error-taxonomy hygiene.

Every rule is grounded in an invariant this reproduction actually relies
on (CONTRIBUTING.md "Invariants you must not break", docs/parallel.md):
the sequence→cost map is a pure function, the 768-chain ensemble reshards
bit-identically via ``OffsetRNG``, and pool payloads must survive a
``spawn`` start method.  Codes are stable (``RPL0xx``); ``RPL000`` is the
analyzer's own meta code (unused/unknown/rationale-less suppressions) and
``RPL999`` reports unparsable files.

Each rule declares ``scope`` — dotted module prefixes it checks
(``repro.pool`` covers ``repro.pool.net``), matched against each file's
:attr:`~repro.lint.model.SourceFile.module`.  Rules with an empty
``scope`` check every linted file.  The one way to exempt a site is an
inline suppression with a rationale (:mod:`repro.lint.engine`).
"""

from __future__ import annotations

import ast
from typing import Any, Iterator

from repro.lint.model import MUTATOR_METHODS, Finding, SourceFile

__all__ = ["Rule", "RULES", "iter_rules"]

#: Meta codes the engine itself emits; kept out of the rule registry but
#: documented and selectable alongside it.
META_CODES = ("RPL000", "RPL999")


class Rule:
    """Base class: one registered check with a stable code.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding a :class:`Finding` per violation via :meth:`finding`.
    Rules with ``project = True`` implement :meth:`check_project`
    instead: the engine runs them once over the cross-module
    :class:`~repro.lint.index.ProjectIndex` rather than per file, and
    scopes each *finding* (not each file) by the module it lands in.
    """

    code: str = ""
    name: str = ""
    severity: str = "error"
    summary: str = ""
    #: Dotted module prefixes the rule checks (empty = every module).
    scope: tuple[str, ...] = ()
    #: True = runs once over the whole-project index (RPL011–RPL013).
    project: bool = False

    def applies_to(self, module: str) -> bool:
        """Whether ``module`` (``repro.pool.net``) is in this rule's scope."""
        return not self.scope or any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, index: Any) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, src: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=src.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            severity=self.severity,
            rule=self.name,
        )

    def finding_at(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        """A finding at an explicit location (project-rule form)."""
        return Finding(
            path=path,
            line=line,
            col=col,
            code=self.code,
            message=message,
            severity=self.severity,
            rule=self.name,
        )


RULES: dict[str, Rule] = {}


def _register(cls: type[Rule]) -> type[Rule]:
    rule = cls()
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return cls


def iter_rules() -> tuple[Rule, ...]:
    """All registered rules in code order."""
    return tuple(RULES[code] for code in sorted(RULES))


#: Packages whose modules feed deterministic, seed-reproducible output.
_DETERMINISTIC = ("repro.kernels", "repro.seqopt", "repro.core", "repro.pool")

#: ``random`` module *global-state* draws (the hidden shared Mersenne
#: Twister).  ``random.Random(seed)`` / ``SystemRandom`` instances are
#: fine — they carry their own state.  ``random.seed`` is absent: global
#: reseeding is RPL003's finding on every path.
_RANDOM_GLOBAL_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: The only ``numpy.random`` attributes deterministic code may call:
#: explicit-generator construction, never the legacy global ``RandomState``.
_NUMPY_RANDOM_ALLOWED = frozenset({
    "BitGenerator", "Generator", "MT19937", "PCG64", "PCG64DXSM",
    "Philox", "SFC64", "SeedSequence", "default_rng",
})


@_register
class NoGlobalRandomState(Rule):
    """RPL001 — no global-state RNG calls in deterministic paths.

    ``random.shuffle`` / ``np.random.rand`` draw from hidden process-wide
    state: the result depends on every earlier draw anywhere in the
    process, so resharding the ensemble (or merely importing a module
    that also draws) silently changes answers.  All randomness must flow
    through a seeded ``np.random.Generator`` (host) or ``DeviceRNG``
    (device) — see CONTRIBUTING invariant 3.
    """

    code = "RPL001"
    name = "no-global-random-state"
    severity = "error"
    summary = "global-state RNG call in a deterministic path"
    scope = _DETERMINISTIC

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = src.resolve_call(node.func)
            if resolved is None:
                continue
            if resolved.startswith("random."):
                fn = resolved.removeprefix("random.")
                if fn in _RANDOM_GLOBAL_FNS:
                    yield self.finding(
                        src, node,
                        f"call to `{resolved}` uses the process-wide RNG; "
                        "draw from a seeded `np.random.Generator` (or a "
                        "`random.Random(seed)` instance) instead",
                    )
            elif resolved.startswith("numpy.random."):
                fn = resolved.removeprefix("numpy.random.")
                if "." in fn or fn in _NUMPY_RANDOM_ALLOWED or fn == "seed":
                    continue  # np.random.seed is RPL003's finding
                yield self.finding(
                    src, node,
                    f"call to `{resolved}` uses numpy's legacy global "
                    "RandomState; construct the stream explicitly with "
                    "`np.random.default_rng(seed)`",
                )


#: Wall-clock and entropy reads that make a "deterministic" path depend on
#: when/where it runs.  ``time.perf_counter``/``monotonic`` stay legal:
#: they feed *measured* wall-time reporting, which is kept strictly apart
#: from modeled results (CONTRIBUTING invariant 4).
_WALL_CLOCK_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy read",
    "uuid.uuid1": "host/time-derived identifier",
    "uuid.uuid4": "OS entropy read",
}


@_register
class NoWallClockInDeterministicPaths(Rule):
    """RPL002 — no wall-clock/entropy reads in deterministic paths.

    A modeled result that embeds ``time.time()`` or ``os.urandom`` output
    is unreproducible by construction.  Measured wall time must come from
    ``time.perf_counter`` and stay in ``wall_time_s``-style fields.
    """

    code = "RPL002"
    name = "no-wall-clock"
    severity = "error"
    summary = "wall-clock or entropy read in a deterministic path"
    scope = _DETERMINISTIC + ("repro.gpusim",)

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = src.resolve_call(node.func)
            if resolved in _WALL_CLOCK_CALLS:
                yield self.finding(
                    src, node,
                    f"`{resolved}` is a {_WALL_CLOCK_CALLS[resolved]}; "
                    "deterministic paths must not depend on when or where "
                    "they run (use `time.perf_counter` only for *measured* "
                    "wall-time reporting)",
                )


@_register
class SeededGeneratorsOnly(Rule):
    """RPL003 — every RNG stream is constructed from an explicit seed.

    ``np.random.default_rng()`` without arguments pulls OS entropy, and
    ``np.random.seed`` / ``random.seed`` mutate global state behind every
    other consumer's back.  The motivating bug: ``repro profile`` once
    hard-coded ``default_rng(0)`` instead of threading the user's
    ``--seed`` through — seeds must arrive as data, not literals buried
    in call sites (applies everywhere, not just deterministic paths).
    """

    code = "RPL003"
    name = "seeded-generators-only"
    severity = "error"
    summary = "unseeded generator construction or global reseeding"
    scope = ()

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = src.resolve_call(node.func)
            if resolved == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        src, node,
                        "`default_rng()` without a seed draws OS entropy; "
                        "pass the seed explicitly so the run is replayable",
                    )
            elif resolved in ("numpy.random.seed", "random.seed"):
                yield self.finding(
                    src, node,
                    f"`{resolved}` reseeds shared global state; construct "
                    "a local `np.random.Generator`/`random.Random` with "
                    "the seed instead",
                )


#: Builtin consumers whose output order mirrors iteration order.
_ORDER_SENSITIVE_CONSUMERS = frozenset(
    {"list", "tuple", "enumerate", "iter", "reversed"}
)


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@_register
class NoOrderedIterationOverSets(Rule):
    """RPL004 — set iteration order must never feed ordered output.

    Python sets iterate in hash order, which varies with insertion
    history (and, for strings, with ``PYTHONHASHSEED``).  A ``for`` loop,
    list/dict comprehension or ``list()/enumerate()`` over a set bakes
    that order into results; reduce order-insensitively (``min``/``sum``/
    membership) or go through ``sorted(...)`` first.
    """

    code = "RPL004"
    name = "no-ordered-set-iteration"
    severity = "warning"
    summary = "iteration over a set feeding ordered output"
    scope = ()

    _MESSAGE = (
        "iterating a set in {context} leaks hash order into ordered "
        "output; wrap it in `sorted(...)` or reduce order-insensitively"
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter):
                    yield self.finding(
                        src, node.iter,
                        self._MESSAGE.format(context="a for loop"),
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield self.finding(
                            src, gen.iter,
                            self._MESSAGE.format(
                                context="an ordered comprehension"
                            ),
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SENSITIVE_CONSUMERS
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield self.finding(
                        src, node.args[0],
                        self._MESSAGE.format(
                            context=f"`{node.func.id}(...)`"
                        ),
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield self.finding(
                        src, node.args[0],
                        self._MESSAGE.format(context="`str.join`"),
                    )


#: Methods that accept task callables destined for worker processes.
_POOL_SINK_METHODS = frozenset(
    {"imap_unordered", "run_thunks", "apply_async", "submit"}
)


@_register
class SpawnPicklablePoolTasks(Rule):
    """RPL005 — no lambdas or nested functions as pool task payloads.

    ``ProcessPool`` payloads must survive pickling under the ``spawn``
    start method (docs/parallel.md): lambdas and functions defined inside
    another function cannot be pickled, so they work only by accident of
    ``fork`` inheritance.  Task callables must be module-level functions
    with picklable arguments — exactly how :mod:`repro.pool.worker` is
    built.
    """

    code = "RPL005"
    name = "spawn-picklable-pool-tasks"
    severity = "error"
    summary = "spawn-unpicklable callable passed as a pool task"
    scope = ()

    def check(self, src: SourceFile) -> Iterator[Finding]:
        yield from _PoolTaskVisitor(self, src).run()


class _PoolTaskVisitor(ast.NodeVisitor):
    """Tracks function nesting to recognize closures passed to pool sinks."""

    def __init__(self, rule: Rule, src: SourceFile) -> None:
        self.rule = rule
        self.src = src
        self.findings: list[Finding] = []
        #: One set of locally-defined function names per enclosing def.
        self._nested: list[set[str]] = []

    def run(self) -> list[Finding]:
        self.visit(self.src.tree)
        return self.findings

    # -- scope bookkeeping ---------------------------------------------

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if self._nested:  # a def inside a def = a closure candidate
            self._nested[-1].add(node.name)
        self._nested.append(set())
        self.generic_visit(node)
        self._nested.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- sink detection -------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        sink = self._sink_arguments(node)
        if sink is not None:
            for arg in sink:
                self._flag_unpicklable(arg)
        self.generic_visit(node)

    def _sink_arguments(self, node: ast.Call) -> list[ast.expr] | None:
        """The argument expressions carrying task callables, if a sink."""
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _POOL_SINK_METHODS:
                return list(node.args) + [kw.value for kw in node.keywords]
            if func.attr == "map" and _names_a_pool(func.value):
                return list(node.args) + [kw.value for kw in node.keywords]
        target = _process_target(node)
        if target is not None:
            return [target]
        return None

    def _flag_unpicklable(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                self.findings.append(self.rule.finding(
                    self.src, node,
                    "lambda passed as a pool task cannot be pickled under "
                    "the spawn start method; use a module-level function",
                ))
            elif isinstance(node, ast.Name) and any(
                node.id in scope for scope in self._nested
            ):
                self.findings.append(self.rule.finding(
                    self.src, node,
                    f"nested function `{node.id}` passed as a pool task "
                    "cannot be pickled under the spawn start method; "
                    "hoist it to module level",
                ))


def _names_a_pool(receiver: ast.expr) -> bool:
    """Whether ``receiver.map(...)``'s receiver is pool-like by name."""
    if isinstance(receiver, ast.Name):
        return "pool" in receiver.id.lower()
    if isinstance(receiver, ast.Attribute):
        return "pool" in receiver.attr.lower()
    return False


def _process_target(node: ast.Call) -> ast.expr | None:
    """The ``target=`` of a ``Process(...)`` construction, if present."""
    func = node.func
    is_process = (
        isinstance(func, ast.Name) and func.id == "Process"
    ) or (
        isinstance(func, ast.Attribute) and func.attr == "Process"
    )
    if not is_process:
        return None
    for kw in node.keywords:
        if kw.arg == "target":
            return kw.value
    return None


_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "OrderedDict",
     "Counter"}
)


def _mutable_module_bindings(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                    ast.DictComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


@_register
class NoMutableModuleState(Rule):
    """RPL006 — worker-executed modules must not mutate module globals.

    A module-level list/dict mutated from inside a function is per-process
    state: under ``fork`` each worker inherits a divergent copy, under
    ``spawn`` a fresh one, and the parent never sees either — the classic
    source of "works serially, drifts with --workers N".  Import-time
    registration that is never touched post-import carries an inline
    suppression saying so.
    """

    code = "RPL006"
    name = "no-mutable-module-state"
    severity = "error"
    summary = "module-level mutable state mutated inside a function"
    scope = _DETERMINISTIC + ("repro.gpusim",)

    def check(self, src: SourceFile) -> Iterator[Finding]:
        bindings = _mutable_module_bindings(src.tree)
        if not bindings:
            return
        for fn in ast.walk(src.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    for name in node.names:
                        if name in bindings:
                            yield self.finding(
                                src, node,
                                f"`global {name}` rebinds module-level "
                                "mutable state from inside a function; "
                                "pass state explicitly or key it per call",
                            )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in bindings
                    and node.func.attr in MUTATOR_METHODS
                ):
                    yield self.finding(
                        src, node,
                        f"`{node.func.value.id}.{node.func.attr}(...)` "
                        "mutates module-level state inside a function; "
                        "worker processes each see a divergent copy",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in bindings
                        ):
                            yield self.finding(
                                src, target,
                                f"subscript assignment into module-level "
                                f"`{target.value.id}` inside a function "
                                "mutates shared state; worker processes "
                                "each see a divergent copy",
                            )


@_register
class ClassifiedErrorHandling(Rule):
    """RPL007 — no silent swallows or anonymous raises in supervised code.

    The pool/resilience layers sort every failure through the
    ``register_transient``/``classify_error`` taxonomy
    (:mod:`repro.gpusim.errors`); an ``except Exception: pass`` deletes
    the evidence that drives retry-vs-quarantine decisions, and a bare
    ``raise Exception`` can never be classified better than "fatal".
    """

    code = "RPL007"
    name = "classified-error-handling"
    severity = "error"
    summary = "unclassifiable error handling in a supervised path"
    scope = ("repro.pool", "repro.resilience")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ExceptHandler):
                if self._is_broad(node.type) and self._swallows(node.body):
                    yield self.finding(
                        src, node,
                        "broad except clause silently swallows the error; "
                        "record it, re-raise, or classify it via "
                        "`repro.gpusim.errors.classify_error`",
                    )
            elif isinstance(node, ast.Raise):
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id in (
                    "Exception", "BaseException"
                ):
                    yield self.finding(
                        src, node,
                        f"`raise {exc.id}` cannot be classified by the "
                        "transient/fatal taxonomy; raise a specific error "
                        "type (and `register_transient` it if retryable)",
                    )

    @staticmethod
    def _is_broad(type_node: ast.expr | None) -> bool:
        return type_node is None or (
            isinstance(type_node, ast.Name)
            and type_node.id in ("Exception", "BaseException")
        )

    @staticmethod
    def _swallows(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or `...`
            return False
        return True


#: ``subprocess`` entry points that block until the child finishes.
_SUBPROCESS_BLOCKING = frozenset({
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output",
})


@_register
class BoundedBlockingCalls(Rule):
    """RPL008 — blocking child/pipe waits in supervised paths need bounds.

    The supervision contract (docs/parallel.md) is that a hung child is
    *always* reaped: a ``subprocess.run`` without ``timeout=``, a
    ``.wait()``/``.communicate()`` with no deadline, an unbounded
    ``multiprocessing.connection.wait`` or a bare ``.recv()`` outside the
    multiplexer can stall the whole pool forever.  Sites that are provably
    bounded by construction carry an inline suppression with the proof as
    its rationale.
    """

    code = "RPL008"
    name = "bounded-blocking-calls"
    severity = "warning"
    summary = "unbounded blocking call in a supervised path"
    scope = ("repro.pool", "repro.resilience")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = src.resolve_call(node.func)
            keywords = {kw.arg for kw in node.keywords}
            if resolved in _SUBPROCESS_BLOCKING:
                if "timeout" not in keywords:
                    yield self.finding(
                        src, node,
                        f"`{resolved}` without `timeout=` can block the "
                        "supervisor forever; pass an explicit deadline",
                    )
            elif resolved == "multiprocessing.connection.wait":
                if len(node.args) < 2 and "timeout" not in keywords:
                    yield self.finding(
                        src, node,
                        "`connection.wait` without a timeout cannot serve "
                        "watchdog deadlines or retry cool-downs; pass one",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("communicate", "wait", "recv")
                and not node.args
                and "timeout" not in keywords
            ):
                yield self.finding(
                    src, node,
                    f"unbounded `.{node.func.attr}()` on a child/pipe "
                    "handle; bound it with a timeout or document why it "
                    "cannot block (inline suppression with rationale)",
                )


#: The modules that may touch raw sockets; everything else goes through
#: the factories these modules export.
_NET_TRANSPORT = ("repro.pool.net", "repro.pool.agent", "repro.pool.hosts")


def _settimeout_disarms(node: ast.Call) -> bool:
    """``settimeout()`` / ``settimeout(None)`` — an *unarmed* socket."""
    if not node.args and not node.keywords:
        return True
    if node.args and isinstance(node.args[0], ast.Constant):
        return node.args[0].value is None
    return False


@_register
class TimeoutBoundedSockets(Rule):
    """RPL009 — every socket in the net transport carries a deadline.

    The distributed pool's supervision ladder (docs/distributed.md) only
    works if *no* socket operation can block forever: heartbeat deadlines
    and the agent's watchdog both ride on ``socket.timeout`` firing.  A
    socket created without arming a timeout — or one disarmed with
    ``settimeout(None)`` — silently reintroduces the unbounded hang the
    ladder exists to prevent.  Sockets must come from the
    :func:`repro.pool.net.client_socket` / ``listener_socket`` factories,
    which arm the timeout at construction.
    """

    code = "RPL009"
    name = "timeout-bounded-sockets"
    severity = "error"
    summary = "socket without an armed timeout in the net transport"
    scope = _NET_TRANSPORT

    def check(self, src: SourceFile) -> Iterator[Finding]:
        armed_scopes = self._scopes_that_arm(src)
        for scope, node in self._socket_calls(src):
            resolved = src.resolve_call(node.func)
            if resolved == "socket.create_connection":
                if len(node.args) < 2 and not any(
                    kw.arg == "timeout" for kw in node.keywords
                ):
                    yield self.finding(
                        src, node,
                        "`socket.create_connection` without `timeout=` "
                        "can block the connect forever; pass an explicit "
                        "deadline (see `repro.pool.net.client_socket`)",
                    )
            elif resolved == "socket.socket":
                if scope not in armed_scopes:
                    yield self.finding(
                        src, node,
                        "raw `socket.socket(...)` is never armed with a "
                        "timeout in this scope; use the bounded factories "
                        "in `repro.pool.net` or call "
                        "`settimeout(deadline)` before any I/O",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "settimeout"
                and _settimeout_disarms(node)
            ):
                yield self.finding(
                    src, node,
                    "`settimeout(None)` disarms the socket's deadline and "
                    "makes every recv/send unbounded; the transport "
                    "contract requires an explicit finite timeout",
                )

    @staticmethod
    def _socket_calls(
        src: SourceFile,
    ) -> Iterator[tuple[ast.AST | None, ast.Call]]:
        """Every call node, tagged with its enclosing function (or None)."""
        def walk(node: ast.AST, scope: ast.AST | None):
            for child in ast.iter_child_nodes(node):
                child_scope = (
                    child
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    else scope
                )
                if isinstance(child, ast.Call):
                    yield (child_scope, child)
                yield from walk(child, child_scope)

        yield from walk(src.tree, None)

    def _scopes_that_arm(self, src: SourceFile) -> set[ast.AST]:
        """Functions containing a ``settimeout`` call with a finite value."""
        armed: set[ast.AST] = set()
        for scope, node in self._socket_calls(src):
            if (
                scope is not None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "settimeout"
                and not _settimeout_disarms(node)
            ):
                armed.add(scope)
        return armed


#: Modes that create or mutate file content.  ``r``/``rb`` opens are
#: reads and always fine; ``+`` upgrades a read to a write.
_WRITE_MODE_CHARS = frozenset("wax+")


def _write_mode(node: ast.Call) -> str | None:
    """The constant mode string of an ``open``-style call if it writes.

    Returns ``None`` for reads and for dynamic (non-constant) modes —
    the rule only flags what it can prove, so a computed mode never
    produces a false positive.
    """
    mode_node: ast.expr | None = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode_node = kw.value
    if mode_node is None:
        return None  # defaults to "r"
    if not isinstance(mode_node, ast.Constant):
        return None
    mode = mode_node.value
    if not isinstance(mode, str):
        return None
    if _WRITE_MODE_CHARS.intersection(mode):
        return mode
    return None


@_register
class DurableStateWrites(Rule):
    """RPL010 — persisted state goes through the durable write helpers.

    The durability contracts of the journal, checkpoints and the result
    cache (docs/service.md, docs/resilience.md) all reduce to two
    primitives in :mod:`repro.resilience.atomic`: ``atomic_write_text``
    (temp + fsync + rename, so readers never observe a torn file) and
    ``durable_append_text`` (append + flush + fsync, so acknowledged
    records survive a crash).  A bare ``open(path, "w")`` or
    ``path.write_text`` in these trees silently drops both guarantees —
    it truncates in place and buffers in the page cache, which is
    exactly the corruption-and-loss shape the helpers exist to prevent.
    Genuinely ephemeral writes (startup handshakes, test scratch) carry
    an inline suppression saying why durability does not apply.
    """

    code = "RPL010"
    name = "durable-state-writes"
    severity = "error"
    summary = "state persisted without the shared durable-write helpers"
    scope = ("repro.service", "repro.resilience")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "write_text", "write_bytes"
            ):
                yield self.finding(
                    src, node,
                    f"`.{func.attr}(...)` truncates in place and is not "
                    "fsync'd; persist through "
                    "`repro.resilience.atomic.atomic_write_text` / "
                    "`durable_append_text`",
                )
                continue
            is_open = (
                (isinstance(func, ast.Name) and func.id == "open")
                or (isinstance(func, ast.Attribute) and func.attr == "open"
                    and src.resolve_call(func) in (None, "io.open"))
            )
            if not is_open:
                continue
            mode = _write_mode(node)
            if mode is not None:
                yield self.finding(
                    src, node,
                    f"bare `open(..., {mode!r})` bypasses the crash-safety "
                    "contract (no fsync, torn files on crash); use "
                    "`repro.resilience.atomic.atomic_write_text` / "
                    "`durable_append_text`, or suppress with a rationale "
                    "if the file is genuinely ephemeral",
                )


# The concurrency rules (RPL011–RPL013) live in their own module but
# register into ``RULES`` at import time; the import sits at the bottom
# so ``Rule``/``_register`` exist by the time it runs.
from repro.lint import concurrency as _concurrency  # noqa: E402,F401  # isort: skip
