"""Per-file AST rules: the contracts a single module can violate on its own.

Each rule encodes one invariant the repo's correctness rests on; the module
docstring of :mod:`repro.analysis` lists them with the PRs that introduced
the underlying contract.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.engine import ERROR, WARNING, FileContext, Finding, Rule

__all__ = [
    "DeterminismRule",
    "StrictJsonRule",
    "DurabilityRule",
    "HotPathAllocationRule",
    "BroadExceptRule",
    "PickleSafetyRule",
    "GlobalMemoRule",
]


def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _bound_names(tree: ast.AST) -> set:
    """Every name the module binds anywhere (assignment, def, argument, import)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[0])
    return names


# ------------------------------------------------------------- determinism
class DeterminismRule(Rule):
    """Batch ≡ instance bit-identity rests on every random draw flowing from
    an explicit seed and a fixed draw budget (PR 1/3/4).  Global RNG state,
    wall-clock reads and the builtin ``hash()`` (salted per process for
    ``str``/``bytes``) silently break that: results stop being a function
    of ``(spec, seed)``."""

    id = "determinism"
    description = (
        "no seedless default_rng(), global numpy.random/random samplers, "
        "wall-clock time.time(), or builtin hash() in repro code"
    )
    severity = ERROR

    #: numpy.random members that are seeded constructors, not global samplers.
    _NP_ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "RandomState",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )
    #: stdlib ``random`` members that take an explicit seed.
    _STDLIB_ALLOWED = frozenset({"Random"})

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        hash_rebound = "hash" in _bound_names(ctx.tree)
        for call in _walk_calls(ctx.tree):
            dotted = ctx.imports.resolve_call(call)
            builtin_hash = (
                isinstance(call.func, ast.Name)
                and call.func.id == "hash"
                and not hash_rebound
            )
            if builtin_hash or dotted == "builtins.hash":
                yield self.finding(
                    ctx,
                    call,
                    "builtin hash(): str/bytes hashes are salted per process "
                    "(PYTHONHASHSEED), so a seed derived from one differs "
                    "between runs; use zlib.crc32 or hashlib",
                )
                continue
            if dotted is None:
                continue
            if dotted == "numpy.random.default_rng":
                if not call.args and not call.keywords:
                    yield self.finding(
                        ctx,
                        call,
                        "seedless np.random.default_rng(): results become "
                        "irreproducible; pass an explicit seed or "
                        "SeedSequence",
                    )
                continue
            if dotted.startswith("numpy.random."):
                member = dotted.split(".")[2]
                if member not in self._NP_ALLOWED:
                    yield self.finding(
                        ctx,
                        call,
                        f"global numpy.random sampler np.random.{member}(): "
                        "draws from hidden global state; use a seeded "
                        "Generator (np.random.default_rng(seed))",
                    )
                continue
            if dotted.startswith("random."):
                member = dotted.split(".")[1]
                if member not in self._STDLIB_ALLOWED:
                    yield self.finding(
                        ctx,
                        call,
                        f"stdlib global sampler random.{member}(): draws from "
                        "hidden global state; use random.Random(seed) or a "
                        "seeded NumPy Generator",
                    )
                continue
            if dotted in ("time.time", "time.time_ns"):
                yield self.finding(
                    ctx,
                    call,
                    f"wall-clock {dotted}(): nondeterministic input to repro "
                    "code; use time.perf_counter() for timing measurements "
                    "or thread a timestamp in as data",
                )


# -------------------------------------------------------------- strict-json
class StrictJsonRule(Rule):
    """Result sinks must emit strict JSON (PR 8): ``json.dumps`` happily
    writes ``NaN``/``Infinity``, which sqlite/jq/parquet consumers reject.
    Every serialisation must either go through ``repro.core.jsonio`` (which
    sanitises non-finite floats to null) or pass ``allow_nan=False`` so a
    non-finite value fails loudly at write time."""

    id = "strict-json"
    description = (
        "json.dump/json.dumps outside repro.core.jsonio must pass "
        "allow_nan=False (or route through jsonio.dumps_strict)"
    )
    severity = ERROR

    #: Files allowed to call json.dumps without allow_nan=False: the strict
    #: wrapper itself.
    exempt_suffixes = ("repro/core/jsonio.py",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.posix.endswith(self.exempt_suffixes):
            return
        for call in _walk_calls(ctx.tree):
            dotted = ctx.imports.resolve_call(call)
            if dotted not in ("json.dump", "json.dumps"):
                continue
            if any(
                keyword.arg == "allow_nan"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
                for keyword in call.keywords
            ):
                continue
            yield self.finding(
                ctx,
                call,
                f"{dotted}() without allow_nan=False can emit non-strict "
                "NaN/Infinity tokens; pass allow_nan=False or use "
                "repro.core.jsonio.dumps_strict",
            )


# --------------------------------------------------------------- durability
class DurabilityRule(Rule):
    """A rename is only crash-durable once the *directory* is fsynced
    (PR 8): without it, a completed ``os.replace`` can vanish on power
    failure even though the file's bytes were fsynced.  Any function that
    renames must fsync the directory (or delegate to the atomic-write
    helper, which does)."""

    id = "durability"
    description = (
        "functions calling os.replace/os.rename must also call the "
        "directory-fsync helper (repro.core.durability.fsync_dir)"
    )
    severity = ERROR

    _RENAMES = frozenset({"os.replace", "os.rename"})
    #: A call whose terminal name is one of these satisfies the rule: either
    #: the fsync itself or a helper that performs rename+fsync internally.
    _SATISFIES = frozenset(
        {
            "fsync_dir",
            "_fsync_dir",
            "atomic_write_text",
            "_atomic_write_text",
            "_atomic_write",
        }
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            renames: list = []
            satisfied = False
            for call in self._own_calls(node):
                dotted = ctx.imports.resolve_call(call)
                if dotted in self._RENAMES:
                    renames.append(call)
                terminal = self._terminal(call.func)
                if terminal in self._SATISFIES:
                    satisfied = True
            if renames and not satisfied:
                for call in renames:
                    yield self.finding(
                        ctx,
                        call,
                        f"{ctx.imports.resolve_call(call)}() in "
                        f"{node.name}() without a directory fsync: the "
                        "rename can vanish on power failure; call "
                        "repro.core.durability.fsync_dir(directory) after "
                        "it (or use atomic_write_text)",
                    )

    @staticmethod
    def _terminal(node: ast.AST) -> "str | None":
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    @staticmethod
    def _own_calls(function: ast.AST) -> Iterator[ast.Call]:
        """Calls in ``function``'s body, excluding nested function bodies
        (each nested function is checked independently)."""
        stack = list(ast.iter_child_nodes(function))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------- hot path
class HotPathAllocationRule(Rule):
    """The recorded speedups (PR 6/7) rest on hot loops reusing persistent
    scratch buffers.  Functions marked ``@hot_path`` (see
    :mod:`repro.core.hotpath`) — or listed in the rule config — may not call
    allocating array combinators, and ufunc-style calls must pass ``out=``."""

    id = "hot-path-alloc"
    description = (
        "@hot_path functions may not call np.append/np.concatenate/... and "
        "must pass out= to ufunc-style numpy calls"
    )
    severity = WARNING

    #: Always-allocating combinators: never allowed on a hot path.
    _FORBIDDEN = frozenset(
        {
            "append",
            "concatenate",
            "vstack",
            "hstack",
            "dstack",
            "column_stack",
            "row_stack",
            "stack",
            "block",
            "tile",
            "repeat",
            "resize",
            "pad",
        }
    )
    #: Ufunc-style calls that allocate a fresh result unless out= is passed.
    _OUT_REQUIRED = frozenset(
        {
            "add",
            "subtract",
            "multiply",
            "divide",
            "true_divide",
            "floor_divide",
            "power",
            "exp",
            "expm1",
            "log",
            "log1p",
            "sqrt",
            "square",
            "abs",
            "absolute",
            "negative",
            "maximum",
            "minimum",
            "matmul",
            "dot",
            "clip",
            "less",
            "less_equal",
            "greater",
            "greater_equal",
            "equal",
            "not_equal",
            "logical_and",
            "logical_or",
            "logical_not",
        }
    )

    def __init__(self, extra_functions: "Iterable[str] | None" = None) -> None:
        #: Qualified names (``Class.method`` or ``function``) treated as hot
        #: even without the decorator — the "listed in the rule config" hook.
        self.extra_functions = frozenset(extra_functions or ())

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for function, qualname in self._functions(ctx.tree):
            if not (
                self._marked(function) or qualname in self.extra_functions
            ):
                continue
            for call in _walk_calls(function):
                dotted = ctx.imports.resolve_call(call)
                if dotted is None or not dotted.startswith("numpy."):
                    continue
                member = dotted.split(".", 1)[1]
                if member in self._FORBIDDEN:
                    yield self.finding(
                        ctx,
                        call,
                        f"np.{member}() allocates on @hot_path function "
                        f"{qualname}(); preallocate scratch and write into "
                        "it instead",
                    )
                elif member in self._OUT_REQUIRED and not any(
                    keyword.arg == "out" for keyword in call.keywords
                ):
                    yield self.finding(
                        ctx,
                        call,
                        f"np.{member}() without out= on @hot_path function "
                        f"{qualname}(); pass out=<scratch> to avoid a fresh "
                        "allocation per call",
                    )

    @staticmethod
    def _marked(function: ast.AST) -> bool:
        for decorator in function.decorator_list:
            if isinstance(decorator, ast.Name) and decorator.id == "hot_path":
                return True
            if isinstance(decorator, ast.Attribute) and decorator.attr == "hot_path":
                return True
        return False

    @staticmethod
    def _functions(tree: ast.Module) -> Iterator[tuple]:
        """``(node, qualname)`` for every function, methods as ``Class.name``."""
        def visit(node: ast.AST, prefix: str) -> Iterator[tuple]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    yield child, qual
                    yield from visit(child, f"{qual}.")
                elif isinstance(child, ast.ClassDef):
                    yield from visit(child, f"{prefix}{child.name}.")

        yield from visit(tree, "")


# ------------------------------------------------------------ broad excepts
_NOQA_RATIONALE_RE = re.compile(r"#\s*noqa:\s*BLE001\s*-\s*\S")


class BroadExceptRule(Rule):
    """Bare/broad excepts swallow real bugs (a typo'd attribute inside a
    store write reads as "cell failed, recompute").  Each one must carry a
    rationale: either the rule's pragma with a ``--`` tail or the
    pre-existing ``# noqa: BLE001 - <why>`` convention.  Handlers that
    re-raise (cleanup-then-``raise``) are exempt — they swallow nothing."""

    id = "broad-except"
    description = (
        "bare except / except Exception / except BaseException needs a "
        "rationale pragma (# lint: disable=broad-except -- <why>)"
    )
    severity = WARNING
    requires_rationale = True

    _BROAD = frozenset({"Exception", "BaseException"})

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._reraises(node):
                continue
            if self._has_noqa_rationale(ctx, node.lineno):
                continue
            caught = "bare except" if node.type is None else (
                f"except {ast.unparse(node.type)}"
            )
            yield self.finding(
                ctx,
                node,
                f"{caught}: swallows unrelated bugs; narrow the exception "
                "type or add a rationale "
                "(# lint: disable=broad-except -- <why>)",
            )

    def _is_broad(self, annotation: "ast.AST | None") -> bool:
        if annotation is None:
            return True
        if isinstance(annotation, ast.Tuple):
            return any(self._is_broad(element) for element in annotation.elts)
        if isinstance(annotation, ast.Name):
            return annotation.id in self._BROAD
        if isinstance(annotation, ast.Attribute):
            return annotation.attr in self._BROAD
        return False

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(stmt, ast.Raise) and stmt.exc is None
            for stmt in handler.body
        )

    @staticmethod
    def _has_noqa_rationale(ctx: FileContext, lineno: int) -> bool:
        if 1 <= lineno <= len(ctx.lines):
            return bool(_NOQA_RATIONALE_RE.search(ctx.lines[lineno - 1]))
        return False


# ------------------------------------------------------------ pickle safety
class PickleSafetyRule(Rule):
    """Cell tasks cross process boundaries (PR 8): a lambda or a
    function defined inside another function cannot be pickled, and reaches
    the pool only to kill every cell at submit time.  Payload factories must
    be module-level callables (or ``functools.partial`` over them)."""

    id = "pickle-safety"
    description = (
        "no lambdas or locally-defined functions in CellTask payloads or "
        "executor/client submit() calls"
    )
    severity = ERROR

    #: Constructor names whose arguments cross a process boundary.
    _PAYLOAD_CTORS = frozenset({"CellTask"})
    #: Method names that ship their arguments to a worker.
    _SUBMIT_METHODS = frozenset({"submit"})

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._visit(ctx, ctx.tree, local_callables=frozenset())

    def _visit(
        self, ctx: FileContext, node: ast.AST, local_callables: frozenset
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._visit(
                    ctx, child, local_callables | self._locals_of(child)
                )
                continue
            if isinstance(child, ast.Call) and self._is_boundary(child):
                yield from self._check_args(ctx, child, local_callables)
            yield from self._visit(ctx, child, local_callables)

    def _is_boundary(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in self._PAYLOAD_CTORS
        if isinstance(func, ast.Attribute):
            return (
                func.attr in self._PAYLOAD_CTORS
                or func.attr in self._SUBMIT_METHODS
            )
        return False

    def _check_args(
        self, ctx: FileContext, call: ast.Call, local_callables: frozenset
    ) -> Iterator[Finding]:
        values = [
            arg for arg in call.args if not isinstance(arg, ast.Starred)
        ] + [keyword.value for keyword in call.keywords]
        target = (
            call.func.id
            if isinstance(call.func, ast.Name)
            else f".{call.func.attr}"
        )
        for value in values:
            if isinstance(value, ast.Lambda):
                yield self.finding(
                    ctx,
                    value,
                    f"lambda passed into {target}(): lambdas cannot cross a "
                    "process boundary; use a module-level function "
                    "or functools.partial",
                )
            elif isinstance(value, ast.Name) and value.id in local_callables:
                yield self.finding(
                    ctx,
                    value,
                    f"locally-defined callable {value.id!r} passed into "
                    f"{target}(): closures cannot cross a process "
                    "boundary; hoist it to module level",
                )

    @staticmethod
    def _locals_of(function: ast.AST) -> frozenset:
        """Names bound to nested defs or lambdas in ``function``'s own body."""
        names = set()
        stack = list(ast.iter_child_nodes(function))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
                continue  # its internals are a separate scope
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Lambda
            ):
                names.update(
                    target.id
                    for target in node.targets
                    if isinstance(target, ast.Name)
                )
            stack.extend(ast.iter_child_nodes(node))
        return frozenset(names)


# -------------------------------------------------------------- global memo
class GlobalMemoRule(Rule):
    """A process-global memo is hidden state shared by every run in the
    process: how warm it is changes what a run costs, so cold and warm
    measurements of the same work disagree.  State that caches belongs to
    an object the caller creates and owns."""

    id = "global-memo"
    description = (
        "no process-global functools.lru_cache / functools.cache memos in "
        "repro code"
    )
    severity = ERROR

    _MEMOS = frozenset({"functools.lru_cache", "functools.cache"})

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            dotted = ctx.imports.resolve(node)
            if dotted in self._MEMOS:
                yield self.finding(
                    ctx,
                    node,
                    f"{dotted}: a process-global memo makes a run's cost "
                    "depend on what ran before it in the process; keep the "
                    "cache on an object the caller owns",
                )
