"""The repo-specific contract rules.

Every rule encodes an invariant one of the measurement-engine PRs
established (see ``CONTRIBUTING.md`` for the full origin stories):

========  ============================================================
RL001     no unseeded numpy randomness outside ``_resolve_rng``
RL002     sketch/plan merges must guard on ``counts_key`` (or
          equivalent) before touching counts
RL003     executor construction must be paired with deterministic
          release (``shutdown``/``close``/``release``/``with``; or an
          owning class that exposes ``close()``)
RL004     no per-row Python ``for`` loops in the designated hot modules
          (functions marked as property-test oracles are exempt)
RL005     no mutable default arguments; no ndarray-keyed memo dicts
RL006     no lambdas or locally-defined closures handed to
          process-backed executor fans (they do not pickle)
RL007     ``span(...)`` timing contexts must be entered with ``with``
          (a span that is never exited records nothing)
RL008     hot modules must not materialise a whole stripe-store view
          (``np.asarray``/``.copy()``/``.tobytes()`` on ``_bits``/
          ``_buf``/``stripe(...)``); bounded slices only
RL009     every whole-payload wire ``unpack*`` (first parameter
          ``data``) must verify checksums via ``read_envelope`` or
          delegate to a decoder that does
RL010     hot modules must not swallow broad exceptions (``except
          Exception``/``BaseException`` handlers must re-raise), and
          retry sleeps must route through the seeded backoff helper
          ``sleep_backoff``
========  ============================================================

Rules are deliberately syntactic and conservative: they flag the
patterns that bit this repo, not every theoretical variant. The escape
hatch (``# reprolint: disable=CODE(reason)``) exists precisely because
a heuristic can be wrong -- but it must say *why*.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Sequence

from tools.reprolint.engine import Finding, ModuleContext

# --------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------- #


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """The dotted name a call targets, else ``None``."""
    return dotted_name(node.func)


def tail_name(node: ast.AST) -> str | None:
    """The last identifier of a call target (``c`` for ``a.b.c(...)``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _numpy_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(module aliases of ``numpy``, names bound to ``numpy.random``)."""
    numpy_names: set[str] = set()
    random_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.random":
                    random_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        random_names.add(alias.asname or "random")
    return numpy_names, random_names


def _finding(
    ctx: ModuleContext, node: ast.AST, code: str, message: str
) -> Finding:
    return Finding(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


# --------------------------------------------------------------------- #
# RL001 -- unseeded randomness
# --------------------------------------------------------------------- #


class UnseededRngRule:
    """Unseeded RNGs make bootstrap nulls irreproducible (PR 5).

    Flags ``np.random.default_rng()`` called with no seed, and *any* use
    of the legacy global-state API (``np.random.seed``,
    ``np.random.rand``, ...), anywhere but inside the single blessed
    ``_resolve_rng`` warn-path -- the one place an unseeded fallback is
    allowed, because it is the place that warns about it.
    """

    code = "RL001"
    title = "unseeded numpy randomness outside _resolve_rng"

    #: Legacy global-state entry points; even "seeded" uses mutate
    #: process-global state, which concurrent callers cannot reproduce.
    LEGACY = frozenset(
        {
            "seed",
            "rand",
            "randn",
            "randint",
            "random_sample",
            "ranf",
            "sample",
            "choice",
            "shuffle",
            "permutation",
            "RandomState",
        }
    )
    BLESSED_FUNCTION = "_resolve_rng"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        numpy_names, random_names = _numpy_aliases(ctx.tree)
        direct_default_rng = {
            alias.asname or alias.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "numpy.random"
            for alias in node.names
            if alias.name == "default_rng"
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            is_np_random = (
                len(parts) >= 2
                and (
                    (parts[0] in numpy_names and parts[1] == "random")
                    or parts[0] in random_names
                )
            )
            attr = parts[-1]
            if is_np_random and attr in self.LEGACY:
                yield _finding(
                    ctx,
                    node,
                    self.code,
                    f"legacy global-state RNG call np.random.{attr}(...); "
                    "use an explicit np.random.Generator (route unseeded "
                    "fallbacks through _resolve_rng)",
                )
                continue
            is_default_rng = (is_np_random and attr == "default_rng") or (
                len(parts) == 1 and parts[0] in direct_default_rng
            )
            if not is_default_rng or node.args or node.keywords:
                continue
            function = ctx.enclosing_function(node)
            if function is not None and function.name == self.BLESSED_FUNCTION:
                continue
            yield _finding(
                ctx,
                node,
                self.code,
                "unseeded np.random.default_rng(); published measurements "
                "must be reproducible -- pass a seed, or route the fallback "
                "through _resolve_rng so it warns",
            )


# --------------------------------------------------------------------- #
# RL002 -- unguarded sketch/plan merges
# --------------------------------------------------------------------- #


class UnguardedMergeRule:
    """Merging counts without a compatibility guard corrupts them (PR 3/4).

    Two counts vectors only combine if they measure the *same structure
    in the same region order* -- the ``counts_key`` contract. Any
    merge-like method on a sketch/plan class must either call a
    ``*check_mergeable*`` helper, compare ``counts_key``/``key``
    identities itself, or delegate to a sibling merge method that does.
    """

    code = "RL002"
    title = "sketch/plan merge without a counts_key-compatible guard"

    MERGE_NAMES = frozenset(
        {"__add__", "__iadd__", "__sub__", "__isub__", "merge", "merge_with", "combine"}
    )
    CLASS_MARKERS = ("Sketch", "Plan", "Counter", "Matrix")
    GUARD_ATTRS = frozenset({"counts_key", "key"})

    def _is_guarded(self, method: ast.FunctionDef) -> bool:
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute):
                if node.attr in self.GUARD_ATTRS:
                    return True
                if "check_mergeable" in node.attr:
                    return True
                # delegation to a sibling merge method (e.g. __radd__
                # routing through __add__, which holds the real guard)
                if (
                    node.attr in self.MERGE_NAMES
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    return True
            elif isinstance(node, ast.Name) and "check_mergeable" in node.id:
                return True
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for klass in ast.walk(ctx.tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            if not any(m in klass.name for m in self.CLASS_MARKERS):
                continue
            for method in klass.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name not in self.MERGE_NAMES:
                    continue
                if self._is_guarded(method):
                    continue
                yield _finding(
                    ctx,
                    method,
                    self.code,
                    f"{klass.name}.{method.name} combines counts without a "
                    "compatibility guard; call a *_check_mergeable helper or "
                    "compare counts_key before touching counts",
                )


# --------------------------------------------------------------------- #
# RL003 -- executor lifecycle
# --------------------------------------------------------------------- #


class ExecutorLifecycleRule:
    """Worker pools must be released deterministically (PR 5).

    A pool left to interpreter-exit teardown can race CPython's atexit
    machinery (the OSError race PR 5 fixed). Every executor constructed
    in a scope must be released in that scope (``with``, or a
    ``shutdown()``/``close()``/``release()`` call, including via
    ``getattr``), or be stored on ``self`` of a class that exposes
    ``close``/``shutdown`` for its owner to call.
    """

    code = "RL003"
    title = "executor constructed without a deterministic release path"

    FACTORY_NAMES = frozenset(
        {
            "ProcessPoolExecutor",
            "ThreadPoolExecutor",
            "ProcessExecutor",
            "ThreadExecutor",
            "SupervisedExecutor",
            "get_executor",
            "resolve_executor",
        }
    )
    RELEASE_NAMES = frozenset({"shutdown", "close", "release"})

    def _is_factory_call(self, node: ast.Call) -> bool:
        name = tail_name(node.func)
        if name not in self.FACTORY_NAMES:
            return False
        # get_executor("serial") resolves to the poolless in-process
        # backend; there is nothing to release.
        if name in ("get_executor", "resolve_executor") and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and arg.value == "serial":
                return False
        return True

    def _scope_releases(self, scope: ast.AST) -> bool:
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and node.attr in self.RELEASE_NAMES:
                return True
            if isinstance(node, ast.Call):
                name = tail_name(node.func)
                if name in self.RELEASE_NAMES:
                    return True
                if name == "getattr" and any(
                    isinstance(arg, ast.Constant)
                    and arg.value in self.RELEASE_NAMES
                    for arg in node.args
                ):
                    return True
            if isinstance(node, (ast.With, ast.AsyncWith)):
                return True
        return False

    def _class_has_release(self, klass: ast.ClassDef | None) -> bool:
        if klass is None:
            return False
        return any(
            isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and member.name in self.RELEASE_NAMES
            for member in klass.body
        )

    def _assigns_to_self(self, ctx: ModuleContext, call: ast.Call) -> bool:
        parent = ctx.parent(call)
        targets: list[ast.expr] = []
        if isinstance(parent, ast.Assign):
            targets = parent.targets
        elif isinstance(parent, (ast.AnnAssign, ast.AugAssign)):
            targets = [parent.target]
        return any(
            isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
            for t in targets
        )

    def _inside_with(self, ctx: ModuleContext, call: ast.Call) -> bool:
        node: ast.AST | None = call
        while node is not None:
            parent = ctx.parent(node)
            if isinstance(parent, ast.withitem) and parent.context_expr is node:
                return True
            node = parent
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and self._is_factory_call(node)):
                continue
            if self._inside_with(ctx, node):
                continue
            if self._assigns_to_self(ctx, node):
                if self._class_has_release(ctx.enclosing_class(node)):
                    continue
                yield _finding(
                    ctx,
                    node,
                    self.code,
                    f"{tail_name(node.func)} stored on self, but the class "
                    "defines no close()/shutdown() for its owner to release "
                    "the pool deterministically",
                )
                continue
            if self._scope_releases(ctx.enclosing_scope(node)):
                continue
            yield _finding(
                ctx,
                node,
                self.code,
                f"{tail_name(node.func)} is never released in this scope; "
                "use a with-block or pair it with shutdown()/close() (a "
                "pool reaped at interpreter exit can race atexit and "
                "raise OSError)",
            )


# --------------------------------------------------------------------- #
# RL004 -- per-row loops in hot modules
# --------------------------------------------------------------------- #


class PerRowLoopRule:
    """Hot paths must stay vectorised (PRs 1-5's core speedups).

    Flags ``for`` statements that iterate dataset/index rows inside the
    designated hot modules. Functions kept *deliberately* row-wise as
    property-test oracles are exempt when marked: name them
    ``*_loop``/``*_oracle`` or say "oracle" in their docstring.
    """

    code = "RL004"
    title = "per-row Python loop in a designated hot module"

    HOT_FILE_SUFFIXES = (
        "core/deviation.py",
        "core/partition_plan.py",
        "stats/resample_plan.py",
    )
    HOT_DIR_MARKERS = ("/stream/", "/fleet/")
    ORACLE_NAME_SUFFIXES = ("_loop", "_oracle")
    ROW_NAMES = frozenset({"rows", "transactions"})
    ROW_COUNT_ATTRS = frozenset({"n_rows", "n_transactions"})
    DATASETISH = re.compile(r"^(dataset\d*|data|rows|transactions|snapshot|pool|pooled)$")

    @classmethod
    def is_hot(cls, path: str) -> bool:
        posix = path.replace("\\", "/")
        if any(posix.endswith(suffix) for suffix in cls.HOT_FILE_SUFFIXES):
            return True
        return any(marker in posix for marker in cls.HOT_DIR_MARKERS)

    def _row_iterable(self, node: ast.expr) -> bool:
        """Does this expression iterate per row when used in ``for``?"""
        if isinstance(node, ast.Name):
            return node.id in self.ROW_NAMES or bool(
                re.match(r"^(dataset\d*|snapshot)$", node.id)
            )
        if isinstance(node, ast.Attribute):
            return node.attr in self.ROW_NAMES
        if isinstance(node, ast.Call):
            name = tail_name(node.func)
            if name == "enumerate" and node.args:
                return self._row_iterable(node.args[0])
            if name == "range" and node.args:
                inner = node.args[-1] if len(node.args) > 1 else node.args[0]
                if isinstance(inner, ast.Call):
                    inner_name = tail_name(inner.func)
                    if inner_name == "len" and inner.args:
                        target = inner.args[0]
                        if isinstance(target, ast.Name):
                            return bool(self.DATASETISH.match(target.id))
                        if isinstance(target, ast.Attribute):
                            return target.attr in self.ROW_NAMES
                if isinstance(inner, ast.Attribute):
                    return inner.attr in self.ROW_COUNT_ATTRS
        return False

    def _is_oracle(self, function: ast.FunctionDef | ast.AsyncFunctionDef | None) -> bool:
        if function is None:
            return False
        if function.name.endswith(self.ORACLE_NAME_SUFFIXES):
            return True
        docstring = ast.get_docstring(function) or ""
        return "oracle" in docstring.lower()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.is_hot(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            if not self._row_iterable(node.iter):
                continue
            if self._is_oracle(ctx.enclosing_function(node)):
                continue
            yield _finding(
                ctx,
                node,
                self.code,
                "per-row Python loop in a hot module; vectorise (bincount/"
                "searchsorted/GEMM), or mark the function as a property-"
                "test oracle (name it *_loop/*_oracle or say 'oracle' in "
                "its docstring)",
            )


# --------------------------------------------------------------------- #
# RL005 -- mutable defaults and ndarray-keyed memos
# --------------------------------------------------------------------- #


class MutableStateRule:
    """Two silent-corruption classics the memo-heavy engine cannot afford.

    (a) mutable default arguments are shared across calls; (b) a dict
    subscripted with an ndarray either crashes (ndarrays are unhashable)
    or, via an object key, memoises on identity that can be recycled --
    key memos on stable identities (``counts_key``, ``id()`` *with* a
    liveness guard, ``tobytes()``) instead.
    """

    code = "RL005"
    title = "mutable default argument / ndarray-keyed memo dict"

    ARRAY_FACTORIES = frozenset(
        {
            "array",
            "asarray",
            "asanyarray",
            "ascontiguousarray",
            "zeros",
            "zeros_like",
            "ones",
            "ones_like",
            "empty",
            "empty_like",
            "full",
            "full_like",
            "arange",
            "linspace",
            "concatenate",
            "stack",
            "vstack",
            "hstack",
        }
    )

    def _mutable_default(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call) and not node.args and not node.keywords:
            return tail_name(node.func) in ("list", "dict", "set")
        return False

    def _check_defaults(
        self, ctx: ModuleContext, function: ast.AST, args: ast.arguments
    ) -> Iterator[Finding]:
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if self._mutable_default(default):
                yield _finding(
                    ctx,
                    default,
                    self.code,
                    "mutable default argument is shared across calls; "
                    "default to None and create the container inside",
                )

    def _annotation_mentions(self, node: ast.expr | None, needles: tuple[str, ...]) -> bool:
        if node is None:
            return False
        text = ast.dump(node)
        return any(needle in text for needle in needles)

    def _scope_findings(
        self, ctx: ModuleContext, scope: ast.AST
    ) -> Iterator[Finding]:
        dict_names: set[str] = set()
        array_names: set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (
                scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
            ):
                if self._annotation_mentions(
                    arg.annotation, ("ndarray", "NDArray")
                ):
                    array_names.add(arg.arg)
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self._classify(target.id, node.value, dict_names, array_names)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if self._annotation_mentions(node.annotation, ("ndarray", "NDArray")):
                    array_names.add(node.target.id)
                elif self._annotation_mentions(node.annotation, ("dict", "Dict")):
                    dict_names.add(node.target.id)
        for node in ast.walk(scope):
            key: ast.expr | None = None
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in dict_names
            ):
                key = node.slice
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "setdefault", "pop")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in dict_names
                and node.args
            ):
                key = node.args[0]
            if (
                key is not None
                and isinstance(key, ast.Name)
                and key.id in array_names
            ):
                yield _finding(
                    ctx,
                    node,
                    self.code,
                    "dict keyed by an ndarray; arrays are unhashable (or "
                    "alias via recycled identities) -- key the memo on a "
                    "stable identity such as counts_key or tobytes()",
                )

    def _classify(
        self,
        name: str,
        value: ast.expr,
        dict_names: set[str],
        array_names: set[str],
    ) -> None:
        if isinstance(value, ast.Dict) or (
            isinstance(value, ast.Call)
            and tail_name(value.func) in ("dict", "defaultdict", "OrderedDict")
        ):
            dict_names.add(name)
        elif isinstance(value, ast.Call):
            func = value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.ARRAY_FACTORIES
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
            ):
                array_names.add(name)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        scopes: list[ast.AST] = [ctx.tree]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
                yield from self._check_defaults(ctx, node, node.args)
            elif isinstance(node, ast.Lambda):
                yield from self._check_defaults(ctx, node, node.args)
        for scope in scopes:
            yield from self._scope_findings(ctx, scope)


# --------------------------------------------------------------------- #
# RL006 -- unpicklable workers on process fans
# --------------------------------------------------------------------- #


class UnpicklableWorkerRule:
    """Process pools pickle their workers; lambdas/closures do not (PR 4).

    Flags a lambda or a locally-defined function handed to ``.map`` /
    ``.submit`` of an executor that is *provably* process-backed in the
    same scope (constructed from ``ProcessPoolExecutor``,
    ``ProcessExecutor``, or ``get_executor("process")``), and lambdas
    passed alongside an ``executor="process"`` keyword.
    """

    code = "RL006"
    title = "lambda/closure handed to a process-backed executor fan"

    PROCESS_FACTORIES = frozenset({"ProcessPoolExecutor", "ProcessExecutor"})

    def _is_process_factory(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = tail_name(node.func)
        if name in self.PROCESS_FACTORIES:
            return True
        if name in ("get_executor", "resolve_executor") and node.args:
            arg = node.args[0]
            return isinstance(arg, ast.Constant) and arg.value == "process"
        return False

    def _local_function_names(self, scope: ast.AST) -> set[str]:
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return set()
        return {
            node.name
            for node in ast.walk(scope)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not scope
        }

    def _worker_violation(
        self, worker: ast.expr, local_functions: set[str]
    ) -> str | None:
        if isinstance(worker, ast.Lambda):
            return "a lambda"
        if isinstance(worker, ast.Name) and worker.id in local_functions:
            return f"locally-defined function {worker.id!r} (a closure)"
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # scope -> names bound to a provably process-backed executor
        process_names: dict[ast.AST, set[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and self._is_process_factory(
                node.value
            ):
                scope = ctx.enclosing_scope(node)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        process_names.setdefault(scope, set()).add(target.id)

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            scope = ctx.enclosing_scope(node)
            local_functions = self._local_function_names(scope)

            # fan(..., executor="process") with a lambda in the argument
            # list: the callee will pickle that worker downstream.
            for keyword in node.keywords:
                if (
                    keyword.arg == "executor"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value == "process"
                ):
                    for arg in node.args:
                        what = self._worker_violation(arg, local_functions)
                        if what is not None:
                            yield _finding(
                                ctx,
                                arg,
                                self.code,
                                f"{what} passed to a call fanning over the "
                                "process executor; process workers must be "
                                "importable top-level functions",
                            )

            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("map", "submit")
                and node.args
            ):
                continue
            receiver = node.func.value
            is_process = self._is_process_factory(receiver) or (
                isinstance(receiver, ast.Name)
                and receiver.id in process_names.get(scope, set())
            )
            if not is_process:
                continue
            what = self._worker_violation(node.args[0], local_functions)
            if what is not None:
                yield _finding(
                    ctx,
                    node.args[0],
                    self.code,
                    f"{what} handed to {node.func.attr}() of a process-"
                    "backed executor; it cannot be pickled to the workers "
                    "-- hoist it to a module-level function",
                )


# --------------------------------------------------------------------- #
# RL007 -- spans must be entered
# --------------------------------------------------------------------- #


class SpanContextRule:
    """A span only records its timing when its ``with`` block exits (PR 7).

    ``registry.span("name")`` returns a context manager; calling it
    without entering it starts no clock and records nothing, so the
    metric silently never appears. Flags any ``*.span("name")`` call
    (one string-literal argument -- the :mod:`repro.obs` signature,
    which also keeps ``re.Match.span(group)`` out of scope) that is not
    the context expression of a ``with`` statement.
    """

    code = "RL007"
    title = "span() call not entered with a with-statement"

    def _is_span_call(self, node: ast.Call) -> bool:
        if tail_name(node.func) != "span":
            return False
        # the obs signature: exactly one positional string literal
        return (
            len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        )

    def _inside_with(self, ctx: ModuleContext, call: ast.Call) -> bool:
        node: ast.AST | None = call
        while node is not None:
            parent = ctx.parent(node)
            if isinstance(parent, ast.withitem) and parent.context_expr is node:
                return True
            node = parent
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and self._is_span_call(node)):
                continue
            if self._inside_with(ctx, node):
                continue
            yield _finding(
                ctx,
                node,
                self.code,
                "span() returns a context manager and records its timing "
                "only on exit; enter it with a with-statement "
                "(`with registry.span(...)`) or the span never appears",
            )


# --------------------------------------------------------------------- #
# RL008 -- whole-stripe materialisation in hot modules
# --------------------------------------------------------------------- #


class StripeMaterializeRule:
    """Out-of-core scans must not densify a whole stripe store (PR 8).

    The mmap backend only stays out-of-core if hot paths read stripe
    views in place: one ``np.asarray``/``.copy()``/``.tobytes()`` over a
    whole store view silently pages the entire file into a private RAM
    buffer, and every "larger than RAM" guarantee is gone. Flags calls
    that materialise an *unsubscripted* store view (a ``_bits``/``_buf``
    attribute, or a ``.stripe(...)`` result) inside the hot modules;
    slices of a view (``buf[a:b].copy()``) are bounded and stay legal.
    Deliberately row-wise property-test oracles are exempt under RL004's
    marking convention (``*_loop``/``*_oracle`` names or "oracle" in the
    docstring).
    """

    code = "RL008"
    title = "whole-stripe materialisation in a hot module"

    #: the out-of-core storage layer is hot for this rule even though
    #: RL004's loop rule does not cover it
    HOT_EXTRA_SUFFIXES = (
        "data/storage.py",
        "data/transactions.py",
    )
    STORE_VIEW_TAILS = frozenset({"_bits", "_buf"})
    COPY_FUNCS = frozenset(
        {"array", "asarray", "asanyarray", "ascontiguousarray"}
    )
    COPY_METHODS = frozenset({"copy", "tobytes"})

    @classmethod
    def is_hot(cls, path: str) -> bool:
        posix = path.replace("\\", "/")
        if any(posix.endswith(suffix) for suffix in cls.HOT_EXTRA_SUFFIXES):
            return True
        return PerRowLoopRule.is_hot(path)

    def _is_store_view(self, node: ast.expr) -> bool:
        """An unsubscripted whole-store view expression."""
        if isinstance(node, (ast.Name, ast.Attribute)):
            return tail_name(node) in self.STORE_VIEW_TAILS
        if isinstance(node, ast.Call):
            return tail_name(node.func) == "stripe"
        return False

    def _is_oracle(
        self, function: ast.FunctionDef | ast.AsyncFunctionDef | None
    ) -> bool:
        if function is None:
            return False
        if function.name.endswith(PerRowLoopRule.ORACLE_NAME_SUFFIXES):
            return True
        docstring = ast.get_docstring(function) or ""
        return "oracle" in docstring.lower()

    def _violation(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                func.attr in self.COPY_METHODS
                and self._is_store_view(func.value)
            ):
                return f".{func.attr}()"
            if (
                func.attr in self.COPY_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
                and node.args
                and self._is_store_view(node.args[0])
            ):
                return f"np.{func.attr}(...)"
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.is_hot(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            what = self._violation(node)
            if what is None:
                continue
            if self._is_oracle(ctx.enclosing_function(node)):
                continue
            yield _finding(
                ctx,
                node,
                self.code,
                f"{what} over a whole stripe view materialises the full "
                "store in RAM, defeating the out-of-core backend; operate "
                "on bounded slices (row blocks / byte ranges), or mark "
                "the function as a property-test oracle",
            )


# --------------------------------------------------------------------- #
# RL009 -- wire unpack paths must pass the checksum trust boundary
# --------------------------------------------------------------------- #


class WireTrustBoundaryRule:
    """Wire decoders must verify checksums before constructing (PR 9).

    ``repro.wire.format.read_envelope`` is the single trust boundary of
    the wire format: magic, version, kind, framing, and every section
    CRC32 are checked there *before* any caller sees payload bytes. A
    decoder that builds objects from raw bytes without going through it
    happily constructs garbage from corrupted or foreign input.

    The convention the wire package pins: a whole-payload decoder is a
    function named ``unpack*`` whose first parameter is ``data``
    (untrusted bytes). Every such function must call ``read_envelope``
    itself, or delegate to another ``unpack*`` function (itself subject
    to this rule) or a ``*from_envelope`` constructor (which only
    accepts already-verified ``Envelope`` objects). Section-level
    decoders take ``payload`` (post-verification bytes) as their first
    parameter and are out of scope by that naming.
    """

    code = "RL009"
    title = "wire unpack path skipping the read_envelope trust boundary"

    NAME_RE = re.compile(r"^_?unpack")
    UNTRUSTED_FIRST_ARG = "data"

    def _first_arg(
        self, function: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> str | None:
        args = function.args.posonlyargs + function.args.args
        names = [a.arg for a in args if a.arg not in ("self", "cls")]
        return names[0] if names else None

    def _is_trusted(
        self, function: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            if tail_name(node.func) == "read_envelope":
                return True
            # delegation must target a repo decoder by bare name --
            # struct.unpack_from and friends (attribute calls) prove
            # nothing about checksums
            if isinstance(node.func, ast.Name) and (
                self.NAME_RE.match(node.func.id)
                or node.func.id.endswith("from_envelope")
            ):
                return True
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self.NAME_RE.match(node.name):
                continue
            if self._first_arg(node) != self.UNTRUSTED_FIRST_ARG:
                continue
            if self._is_trusted(node):
                continue
            yield _finding(
                ctx,
                node,
                self.code,
                f"{node.name}() decodes untrusted payload bytes without "
                "read_envelope; every wire unpack path must verify the "
                "section checksums before constructing objects (call "
                "read_envelope, or delegate to an unpack*/[*_]from_envelope "
                "decoder that does)",
            )


# --------------------------------------------------------------------- #
# RL010 -- swallowed failures and raw sleeps in hot modules
# --------------------------------------------------------------------- #


class SwallowedFailureRule:
    """Failures in hot modules must stay typed and loud (PR 10).

    Two contracts from the resilience layer. First, an ``except
    Exception`` / ``except BaseException`` handler in a hot module must
    re-raise somewhere in its body: a broad handler that swallows turns
    a dead worker or a poisoned shard into a silently wrong fan result,
    the exact failure mode :class:`SupervisedExecutor` exists to
    prevent (record-then-typed-raise paths carry a reasoned disable).
    Second, sleeping outside the blessed ``sleep_backoff`` helper is
    how unseeded, unreproducible retry pacing sneaks in -- every retry
    delay must come from the seeded ``backoff_delay``.

    The hot scope is RL004's (designated core files plus ``/stream/``
    and ``/fleet/``) extended with ``/resilience/`` itself.
    """

    code = "RL010"
    title = "swallowed broad exception or raw sleep in a hot module"

    BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})
    SLEEP_HOME = "sleep_backoff"

    @classmethod
    def is_hot(cls, path: str) -> bool:
        posix = path.replace("\\", "/")
        return PerRowLoopRule.is_hot(posix) or "/resilience/" in posix

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        kind = handler.type
        if kind is None:
            return True
        names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        return any(
            tail_name(name) in self.BROAD_EXCEPTIONS for name in names
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.is_hot(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                if not self._is_broad(node):
                    continue
                if any(
                    isinstance(inner, ast.Raise)
                    for stmt in node.body
                    for inner in ast.walk(stmt)
                ):
                    continue
                yield _finding(
                    ctx,
                    node,
                    self.code,
                    "broad exception handler swallows the failure in a hot "
                    "module; re-raise a typed repro error (or record and "
                    "re-raise later, with a reasoned disable)",
                )
            elif isinstance(node, ast.Call) and tail_name(node.func) == "sleep":
                function = ctx.enclosing_function(node)
                if function is not None and function.name == self.SLEEP_HOME:
                    continue
                yield _finding(
                    ctx,
                    node,
                    self.code,
                    "raw sleep in a hot module; retry pacing must route "
                    "through repro.resilience.backoff.sleep_backoff with a "
                    "seeded backoff_delay",
                )


RULES: Sequence[object] = (
    UnseededRngRule(),
    UnguardedMergeRule(),
    ExecutorLifecycleRule(),
    PerRowLoopRule(),
    MutableStateRule(),
    UnpicklableWorkerRule(),
    SpanContextRule(),
    StripeMaterializeRule(),
    WireTrustBoundaryRule(),
    SwallowedFailureRule(),
)

#: code -> (title, docstring) for --list-rules and the docs.
RULE_DOCS: dict[str, tuple[str, str]] = {
    rule.code: (rule.title, (rule.__doc__ or "").strip()) for rule in RULES
}
