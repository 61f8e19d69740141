"""The reprolint rule catalogue.

Each rule enforces one repo invariant that ordinary linters cannot see
(see ``docs/STATIC_ANALYSIS.md`` for the rationale behind each):

=======  =========================  ==========================================
Rule     Pragma                     Invariant
=======  =========================  ==========================================
REP001   (none)                     pragmas must suppress something
REP002   (none)                     pragma names must be known
REP101   allow-nondeterminism       no ``random`` stdlib module
REP102   allow-nondeterminism       no ``np.random`` global-state calls
REP103   allow-nondeterminism       no unseeded ``np.random.default_rng()``
REP104   allow-wallclock            no wall-clock reads in deterministic code
REP201   allow-unsafe-write         file writes go through ``core.artifacts``
REP301   allow-bare-except          no bare ``except:``
REP302   allow-broad-except         ``except Exception`` needs a pragma
REP303   allow-service-swallow      service ``except`` re-raises or records
REP401   allow-unsorted-set         no bare-``set`` iteration in hot paths
REP402   allow-unordered-merge      result merges fold in deterministic order
=======  =========================  ==========================================

Rules are syntactic: they resolve import aliases (``import numpy as np``,
``from datetime import datetime``) but do no type inference.  The escape
hatch for the inevitable false positive is the per-line pragma — which is
itself audited (REP001/REP002).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.findings import Finding

#: Packages whose dispatch-loop determinism the paper's reproduction
#: depends on: every random draw must come from an explicitly plumbed
#: ``np.random.Generator`` and no decision may read the wall clock.
#: Wall-clock is legitimate only in the supervision/measurement layers
#: (``repro.core.runner``, ``repro.eval.harness``), which sit outside
#: this scope.
DETERMINISTIC_SCOPE = (
    "repro.sim",
    "repro.ml",
    "repro.mobility",
    "repro.dispatch",
    "repro.faults",
)

#: Hot paths where set-iteration order feeds numeric results.
ORDERING_SCOPE = (
    "repro.sim",
    "repro.ml",
    "repro.core",
    "repro.dispatch",
)

#: The parallel-rollout layer, whose merge/reduce steps must stay order-
#: insensitive so the merged output is a pure function of the *set* of
#: per-episode results (the parallel == serial gate depends on it).
MERGE_SCOPE = ("repro.rollouts",)

#: The one module allowed to perform raw file writes: the atomic,
#: manifest-verified artifact layer from PR 2.
ARTIFACT_LAYER = ("repro.core.artifacts",)

#: The parallel-rollout layer, where episode results must be pure
#: functions of episode specs: worker identity (pids, worker indices)
#: and wall-clock values must never flow into seeds or merged results,
#: or parallel runs stop being bit-identical to the serial path.
ROLLOUT_SCOPE = ("repro.rollouts",)

#: ``np.random`` attributes that are *constructors* of explicit
#: generators — the sanctioned API.  Everything else on ``np.random``
#: touches the hidden global ``RandomState`` and is banned.
_NP_RANDOM_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "RandomState",  # explicit legacy object; still seedable and local
    }
)

#: Canonical dotted names that read the wall clock (or a monotonic clock
#: whose value depends on when the process runs — equally unreproducible).
_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Canonical dotted names of raw persistence entry points that bypass the
#: atomic artifact layer (``repro.core.artifacts``).
_RAW_WRITE_CALLS = frozenset(
    {
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
        "numpy.savetxt",
        "json.dump",
        "pickle.dump",
        "pickle.dumps",  # usually feeds a raw write right after
        "shutil.copyfile",
        "shutil.copy",
        "shutil.copy2",
    }
)

#: Attribute calls that write files regardless of receiver type.
_RAW_WRITE_METHODS = frozenset({"write_text", "write_bytes"})

#: ``open`` modes that create or mutate files.
_WRITE_MODE_CHARS = frozenset("wax+")


def module_matches(module: str, prefixes: tuple[str, ...]) -> bool:
    """True when ``module`` is one of ``prefixes`` or nested inside one."""
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to canonical dotted origins, from import statements.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``; star imports and
    relative imports are ignored (reprolint rules target absolute stdlib /
    numpy names only).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".", 1)[0]
                canonical = name.name if name.asname else name.name.split(".", 1)[0]
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def dotted_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a Name/Attribute chain, or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class Rule:
    """One invariant checker: metadata plus a ``check`` entry point."""

    rule_id: str
    name: str
    pragma: str
    description: str
    #: Module prefixes the rule applies to (``None`` = entire tree).
    scope: tuple[str, ...] | None = None
    #: Module prefixes exempt from the rule.
    exempt: tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if self.exempt and module_matches(module, self.exempt):
            return False
        if self.scope is None:
            return True
        return module_matches(module, self.scope)

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            message=message,
            pragma=self.pragma,
        )


# -- determinism ---------------------------------------------------------------


@dataclass(frozen=True)
class ImportRandomRule(Rule):
    """REP101: the stdlib ``random`` module hides global mutable state."""

    rule_id: str = "REP101"
    name: str = "determinism/import-random"
    pragma: str = "allow-nondeterminism"
    description: str = (
        "the stdlib `random` module draws from hidden global state; use an "
        "explicitly plumbed np.random.Generator instead"
    )

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name.split(".", 1)[0] == "random":
                        yield self.finding(
                            path, node, "import of the stdlib `random` module"
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module and node.module.split(".", 1)[0] == "random":
                    yield self.finding(
                        path, node, "import from the stdlib `random` module"
                    )


@dataclass(frozen=True)
class NumpyGlobalRandomRule(Rule):
    """REP102/REP103: np.random global-state calls and unseeded rng."""

    rule_id: str = "REP102"
    name: str = "determinism/np-random-global"
    pragma: str = "allow-nondeterminism"
    description: str = (
        "np.random.<fn>() draws from the hidden global RandomState; "
        "construct and plumb an np.random.Generator; "
        "np.random.default_rng() without a seed is unreproducible"
    )

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name is None or not name.startswith("numpy.random."):
                continue
            tail = name[len("numpy.random."):]
            attr = tail.split(".", 1)[0]
            if attr not in _NP_RANDOM_CONSTRUCTORS:
                yield self.finding(
                    path,
                    node,
                    f"`{name}` uses numpy's global RandomState; plumb an "
                    "explicit np.random.Generator",
                )
            elif tail == "default_rng" and not node.args and not node.keywords:
                yield Finding(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule="REP103",
                    message=(
                        "np.random.default_rng() without a seed is entropy-"
                        "seeded and unreproducible; pass an explicit seed"
                    ),
                    pragma=self.pragma,
                )


@dataclass(frozen=True)
class WallClockRule(Rule):
    """REP104: no wall-clock reads inside the deterministic core."""

    rule_id: str = "REP104"
    name: str = "determinism/wall-clock"
    pragma: str = "allow-wallclock"
    description: str = (
        "wall-clock/monotonic reads make the 5-minute dispatch loop "
        "unreproducible; simulation time is the only clock here (wall-clock "
        "belongs to core.runner / eval.harness)"
    )
    scope: tuple[str, ...] | None = DETERMINISTIC_SCOPE

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in _WALLCLOCK_CALLS:
                yield self.finding(
                    path, node, f"wall-clock read `{name}()` in deterministic code"
                )


# -- durability ----------------------------------------------------------------


def _literal_mode(node: ast.Call) -> str | None:
    """The mode string of an ``open(...)`` call, when statically known."""
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


@dataclass(frozen=True)
class UnsafeWriteRule(Rule):
    """REP201: raw file writes bypass the atomic artifact layer."""

    rule_id: str = "REP201"
    name: str = "durability/unsafe-write"
    pragma: str = "allow-unsafe-write"
    description: str = (
        "raw writes (open-for-write, np.savez, json.dump, Path.write_text, "
        "...) can tear on crash and silently rename (.npz); route them "
        "through repro.core.artifacts"
    )
    exempt: tuple[str, ...] = ARTIFACT_LAYER

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in _RAW_WRITE_CALLS:
                yield self.finding(
                    path,
                    node,
                    f"`{name}` bypasses the atomic artifact layer "
                    "(repro.core.artifacts)",
                )
                continue
            if name == "open" or name == "io.open":
                mode = _literal_mode(node)
                if mode is None or any(c in _WRITE_MODE_CHARS for c in mode):
                    shown = "?" if mode is None else mode
                    yield self.finding(
                        path,
                        node,
                        f"`open(..., {shown!r})` writes outside "
                        "repro.core.artifacts; use atomic_write_bytes / "
                        "atomic_write_json / atomic_savez",
                    )
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _RAW_WRITE_METHODS
            ):
                yield self.finding(
                    path,
                    node,
                    f"`.{node.func.attr}()` writes outside "
                    "repro.core.artifacts; use atomic_write_bytes/"
                    "atomic_write_json",
                )


# -- exception hygiene ---------------------------------------------------------


def _names_in_handler(handler_type: ast.expr | None) -> list[ast.expr]:
    if handler_type is None:
        return []
    if isinstance(handler_type, ast.Tuple):
        return list(handler_type.elts)
    return [handler_type]


@dataclass(frozen=True)
class BareExceptRule(Rule):
    """REP301: bare ``except:`` swallows KeyboardInterrupt and SystemExit."""

    rule_id: str = "REP301"
    name: str = "exceptions/bare-except"
    pragma: str = "allow-bare-except"
    description: str = (
        "bare `except:` catches KeyboardInterrupt/SystemExit; name the "
        "exception types"
    )

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(path, node, "bare `except:`")


@dataclass(frozen=True)
class BroadExceptRule(Rule):
    """REP302: broad catches are only legitimate at degradation points."""

    rule_id: str = "REP302"
    name: str = "exceptions/broad-except"
    pragma: str = "allow-broad-except"
    description: str = (
        "`except Exception` hides bugs unless the site is a sanctioned "
        "degradation point (DispatchGuard, the supervisor's retry loop); "
        "narrow the types or add the pragma with a justification"
    )

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            # Cleanup-and-reraise handlers cannot swallow anything: a bare
            # ``raise`` in the handler body re-raises the original.
            if any(
                isinstance(stmt, ast.Raise) and stmt.exc is None
                for stmt in node.body
            ):
                continue
            for expr in _names_in_handler(node.type):
                if isinstance(expr, ast.Name) and expr.id in (
                    "Exception",
                    "BaseException",
                ):
                    yield self.finding(
                        path,
                        node,
                        f"broad `except {expr.id}` without a "
                        "`# repro: allow-broad-except` pragma",
                    )
                    break


#: Packages forming the resilient dispatch service: every swallowed
#: exception there must leave an observable trace.
SERVICE_SCOPE = ("repro.service",)

#: Method/function names whose call makes a swallowed exception
#: observable: the service's sanctioned incident recorders.
_SERVICE_RECORDERS = frozenset(
    {
        "record_failure",
        "record_incident",
        "quarantine",
        "record_violation",
    }
)


@dataclass(frozen=True)
class ServiceExceptionRule(Rule):
    """REP303: the service may degrade, but never silently."""

    rule_id: str = "REP303"
    name: str = "exceptions/service-swallow"
    pragma: str = "allow-service-swallow"
    description: str = (
        "an `except` in repro.service that neither re-raises nor records "
        "an incident (record_failure / record_incident / quarantine / "
        "record_violation) turns a failure into silence; degraded service "
        "must always leave an observable trace"
    )
    scope: tuple[str, ...] | None = SERVICE_SCOPE

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._leaves_a_trace(node):
                continue
            yield self.finding(
                path,
                node,
                "service `except` handler neither re-raises nor calls an "
                "incident recorder "
                "(record_failure/record_incident/quarantine/record_violation)",
            )

    @staticmethod
    def _leaves_a_trace(handler: ast.ExceptHandler) -> bool:
        """Syntactic: any raise, or any call to a sanctioned recorder,
        anywhere in the handler body (nested statements included)."""
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Call):
                    func = node.func
                    name = (
                        func.attr
                        if isinstance(func, ast.Attribute)
                        else func.id
                        if isinstance(func, ast.Name)
                        else None
                    )
                    if name in _SERVICE_RECORDERS:
                        return True
        return False


# -- ordering hazards ----------------------------------------------------------

#: Calls through which set-iteration order cannot leak (order-insensitive
#: consumers).  A comprehension that is a *direct argument* of one of
#: these is sanctioned.
_ORDER_INSENSITIVE_SINKS = frozenset(
    {"sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all"}
)

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet"})


def _is_set_expr(
    node: ast.expr, aliases: dict[str, str], set_names: frozenset[str] = frozenset()
) -> bool:
    """Syntactic check: does this expression produce a ``set``?

    ``set_names`` carries the module-level inference of
    :func:`_infer_set_names`: local names whose every binding is a set
    expression (or a ``set``/``frozenset`` annotation).
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        name = dotted_name(node.func, aliases)
        if name in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
            and _is_set_expr(node.func.value, aliases, set_names)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, aliases, set_names) or _is_set_expr(
            node.right, aliases, set_names
        )
    return False


def _is_set_annotation(node: ast.expr) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS


def _infer_set_names(tree: ast.Module, aliases: dict[str, str]) -> frozenset[str]:
    """Names provably set-typed: every binding is a set expression.

    Flow- and scope-insensitive on purpose — one non-set binding anywhere
    in the file demotes the name, so the inference can only under-report.
    """
    evidence: dict[str, list[bool]] = {}
    demoted: set[str] = set()

    def bind(target: ast.expr, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            evidence.setdefault(target.id, []).append(is_set)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                bind(el, False)
        # Attribute/Subscript targets carry no local-name evidence.

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target, _is_set_expr(node.value, aliases))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _is_set_annotation(node.annotation):
                bind(node.target, True)
            elif node.value is not None:
                bind(node.target, _is_set_expr(node.value, aliases))
            else:
                bind(node.target, False)
        elif isinstance(node, ast.NamedExpr):
            bind(node.target, _is_set_expr(node.value, aliases))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind(node.target, False)
        elif isinstance(node, ast.comprehension):
            bind(node.target, False)
        elif isinstance(node, ast.arg):
            demoted.add(node.arg)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            bind(node.optional_vars, False)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            demoted.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                demoted.add((alias.asname or alias.name).split(".", 1)[0])
        elif isinstance(node, ast.Global) or isinstance(node, ast.Nonlocal):
            demoted.update(node.names)
    return frozenset(
        name
        for name, seen in evidence.items()
        if name not in demoted and seen and all(seen)
    )


@dataclass(frozen=True)
class UnsortedSetIterationRule(Rule):
    """REP401: bare-set iteration order is a cross-run reproducibility
    hazard in numeric hot paths."""

    rule_id: str = "REP401"
    name: str = "ordering/unsorted-set-iteration"
    pragma: str = "allow-unsorted-set"
    description: str = (
        "iterating a bare set in a numeric hot path makes results depend "
        "on hash-iteration order; wrap the set in sorted() or feed it to "
        "an order-insensitive reducer"
    )
    scope: tuple[str, ...] | None = ORDERING_SCOPE

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        aliases = import_aliases(tree)
        set_names = _infer_set_names(tree, aliases)
        sanctioned: set[ast.AST] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func, aliases)
                if name in _ORDER_INSENSITIVE_SINKS:
                    sanctioned.update(node.args)
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter, aliases, set_names):
                    yield self.finding(
                        path,
                        node.iter,
                        "iteration over a bare set; wrap in sorted()",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                if node in sanctioned:
                    continue
                for gen in node.generators:
                    if _is_set_expr(gen.iter, aliases, set_names):
                        yield self.finding(
                            path,
                            gen.iter,
                            "comprehension over a bare set; wrap in sorted() "
                            "or feed the comprehension to an order-"
                            "insensitive reducer",
                        )


_DICT_VIEW_METHODS = frozenset({"items", "keys", "values"})

#: Function-name markers that identify result reducers.  The rule keys on
#: the *name* because merge/reduce steps are where per-episode results
#: fold into one artefact — the exact spot where iteration order leaks
#: into the output.
_MERGE_NAME_MARKERS = ("merge", "reduce")


def _is_dict_view_call(node: ast.expr) -> bool:
    """Syntactic check: a zero-argument ``.items()/.keys()/.values()`` call."""
    return (
        isinstance(node, ast.Call)
        and not node.args
        and not node.keywords
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEW_METHODS
    )


@dataclass(frozen=True)
class OrderSensitiveMergeRule(Rule):
    """REP402: merge/reduce steps must not fold in hash order."""

    rule_id: str = "REP402"
    name: str = "ordering/order-sensitive-merge"
    pragma: str = "allow-unordered-merge"
    description: str = (
        "merge/reduce code iterating a dict view or bare set folds "
        "partial results in hash order; iterate sorted(...) or feed "
        "the view to an order-insensitive reducer"
    )
    scope: tuple[str, ...] | None = MERGE_SCOPE

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        aliases = import_aliases(tree)
        set_names = _infer_set_names(tree, aliases)
        sanctioned: set[ast.AST] = set()
        merge_funcs: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func, aliases)
                if name in _ORDER_INSENSITIVE_SINKS:
                    sanctioned.update(node.args)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lowered = node.name.lower()
                if any(marker in lowered for marker in _MERGE_NAME_MARKERS):
                    merge_funcs.append(node)
        seen: set[ast.AST] = set()

        def unordered(expr: ast.expr) -> bool:
            return _is_dict_view_call(expr) or _is_set_expr(
                expr, aliases, set_names
            )

        for func in merge_funcs:
            for node in ast.walk(func):
                if node in seen:
                    continue
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    if unordered(node.iter):
                        seen.add(node)
                        yield self.finding(
                            path,
                            node.iter,
                            "merge/reduce loop over an unordered view; "
                            "iterate sorted(...) instead",
                        )
                elif isinstance(
                    node,
                    (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
                ):
                    if node in sanctioned:
                        continue
                    for gen in node.generators:
                        if unordered(gen.iter):
                            seen.add(node)
                            yield self.finding(
                                path,
                                gen.iter,
                                "merge/reduce comprehension over an "
                                "unordered view; iterate sorted(...) or "
                                "feed it to an order-insensitive reducer",
                            )
                            break


#: Calls whose value identifies the executing worker/process — exactly
#: what must never influence an episode's seed or payload.
_WORKER_IDENT_CALLS = frozenset(
    {
        "os.getpid",
        "os.getppid",
        "multiprocessing.current_process",
        "threading.get_ident",
        "threading.get_native_id",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Variable/attribute names that carry worker identity; a
#: ``default_rng`` spawn key containing one makes episode randomness
#: depend on worker assignment.
_WORKER_IDENT_NAMES = frozenset(
    {
        "worker_id",
        "worker_index",
        "worker_idx",
        "worker_rank",
        "pid",
        "ppid",
        "process_id",
    }
)


@dataclass(frozen=True)
class WorkerIdentityRule(Rule):
    """REP403: worker identity must not leak into rollout determinism."""

    rule_id: str = "REP403"
    name: str = "ordering/worker-identity"
    pragma: str = "allow-worker-ident"
    description: str = (
        "rollout episode seeds and results must be pure functions of the "
        "episode spec: no os.getpid()/worker-index values in default_rng "
        "spawn keys, and no wall-clock reads — worker identity in either "
        "breaks parallel-vs-serial bit-identity"
    )
    scope: tuple[str, ...] | None = ROLLOUT_SCOPE

    def check(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[Finding]:
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in _WORKER_IDENT_CALLS:
                yield self.finding(
                    path,
                    node,
                    f"worker-identity read `{name}()` in rollout code; "
                    "episode results must depend only on the episode spec",
                )
                continue
            if name in _WALLCLOCK_CALLS:
                yield self.finding(
                    path,
                    node,
                    f"wall-clock read `{name}()` in rollout code; inject "
                    "a clock reference instead of calling one inline",
                )
                continue
            if name == "numpy.random.default_rng":
                ident = self._ident_in_args(node)
                if ident is not None:
                    yield self.finding(
                        path,
                        node,
                        f"default_rng spawn key contains worker identity "
                        f"`{ident}`; key episode streams by "
                        "(seed, tag, episode_id) only",
                    )

    @staticmethod
    def _ident_in_args(call: ast.Call) -> str | None:
        for arg in [*call.args, *(kw.value for kw in call.keywords)]:
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Name)
                    and sub.id in _WORKER_IDENT_NAMES
                ):
                    return sub.id
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in _WORKER_IDENT_NAMES
                ):
                    return sub.attr
        return None


#: The default rule set, in catalogue order.
DEFAULT_RULES: tuple[Rule, ...] = (
    ImportRandomRule(),
    NumpyGlobalRandomRule(),
    WallClockRule(),
    UnsafeWriteRule(),
    BareExceptRule(),
    BroadExceptRule(),
    ServiceExceptionRule(),
    UnsortedSetIterationRule(),
    OrderSensitiveMergeRule(),
    WorkerIdentityRule(),
)

#: rule_id -> producing Rule, for ``--select``.  REP103 is emitted by the
#: REP102 checker; REP001/REP002 are engine-level pragma audits.
RULE_INDEX: dict[str, Rule] = {r.rule_id: r for r in DEFAULT_RULES}
RULE_INDEX["REP103"] = RULE_INDEX["REP102"]


@dataclass(frozen=True)
class RuleDoc:
    """Catalogue row for ``repro lint --list-rules`` and the docs."""

    rule_id: str
    name: str
    pragma: str
    description: str
    scope: tuple[str, ...] | None = None
    exempt: tuple[str, ...] = ()


#: Documentation entries for every rule id the engine can emit (includes
#: the engine-level pragma audit rules and REP103).
RULE_CATALOGUE: tuple[RuleDoc, ...] = (
    RuleDoc(
        "REP001",
        "pragmas/unused-pragma",
        "",
        "a `# repro: allow-*` pragma that suppresses nothing is a stale "
        "hole in the gate; remove it",
    ),
    RuleDoc(
        "REP002",
        "pragmas/unknown-pragma",
        "",
        "unknown pragma name (typo?); known pragmas: see "
        "repro.analysis.pragmas.KNOWN_PRAGMAS",
    ),
    RuleDoc(
        "REP103",
        "determinism/unseeded-default-rng",
        "allow-nondeterminism",
        "np.random.default_rng() with no seed is entropy-seeded and "
        "unreproducible",
    ),
    *(
        RuleDoc(r.rule_id, r.name, r.pragma, r.description, r.scope, r.exempt)
        for r in DEFAULT_RULES
    ),
)
