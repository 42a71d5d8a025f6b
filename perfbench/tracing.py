"""Per-layer tracing from outside the program.

Wrappers are installed around public functions of ``pavingideals`` for the
length of one traced pass and removed afterwards, so untraced passes run
the unmodified code.  A function is replaced at every place it is bound:
modules import helpers with ``from .linalg import matrix_rank``, so
``samplers.matrix_rank`` and ``linalg.matrix_rank`` are separate bindings
and wrapping one would miss the other.

Only aggregates are kept: per span name the call count and the self time
(span duration minus the time covered by child spans).  Leaf functions
called hundreds of thousands of times per pass (``monomial_mul``) are only
counted; their time stays in the caller's self time.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

PACKAGE = "pavingideals"

SPAN = "span"
COUNT = "count"

# Spans whose results count as emitted generators when they are not nested
# inside another one (the family calls graph_polynomial per candidate).
GENERATOR_SPANS = ("generators.circuit", "generators.lifting", "generators.graph", "generators.family")


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Target:
    """One traced function: span name, owning module and qualified name."""

    name: str
    module: str
    qualname: str
    kind: str = SPAN
    before: Callable | None = None  # (tracer, args, kwargs) -> None
    after: Callable | None = None  # (tracer, result) -> None


def _rref_cells(tracer, args, kwargs):
    m = args[0] if args else kwargs["m"]
    tracer.extra["linalg.rref_cells"] += len(m) * (len(m[0]) if m else 0)


def _parse_bytes(tracer, args, kwargs):
    text = args[0] if args else kwargs["text"]
    tracer.extra["polyfiles.bytes"] += len(text.encode())


def _emitted(tracer, result):
    if any(frame[1] in GENERATOR_SPANS for frame in tracer.stack):
        return
    if hasattr(result, "polynomials"):
        polys = [p.polynomial for p in result.polynomials]
    elif isinstance(result, list):
        polys = [p.polynomial for p in result]
    else:
        polys = [result]
    tracer.extra["generators.emitted"] += len(polys)
    tracer.extra["generators.nonzero"] += sum(1 for p in polys if not p.is_zero())


def _checks(tracer, result):
    tracer.extra["verify.checks"] += len(result.checks)


def _lift_ok(tracer, result):
    tracer.extra["lifting.lift_ok"] += result is not None


TARGETS = (
    Target("poly.mul", "pavingideals.poly", "Polynomial.__mul__"),
    Target("poly.add", "pavingideals.poly", "Polynomial.__add__"),
    Target("poly.monomial_mul", "pavingideals.poly", "monomial_mul", COUNT),
    Target("poly.evaluate", "pavingideals.poly", "Polynomial.evaluate"),
    Target("poly.support", "pavingideals.poly", "Polynomial.support"),
    Target("poly.from_text", "pavingideals.poly", "Polynomial.from_text"),
    Target("poly.to_text", "pavingideals.poly", "Polynomial.to_text"),
    Target("variables.parse", "pavingideals.variables", "parse_variable"),
    Target("polymatrix.minor", "pavingideals.polymatrix", "MinorEngine.minor"),
    Target("polymatrix.minor", "pavingideals.polymatrix", "MinorEngine.determinant"),
    Target("polyfiles.render", "pavingideals.polyfiles", "render_polynomials"),
    Target("polyfiles.parse", "pavingideals.polyfiles", "parse_polynomials", before=_parse_bytes),
    Target("linalg.rref", "pavingideals.linalg", "rref", before=_rref_cells),
    Target("linalg.bareiss", "pavingideals.linalg", "bareiss_determinant"),
    Target("linalg.from_rows", "pavingideals.linalg", "ScalarMatrix.from_rows"),
    Target("linalg.kernel", "pavingideals.linalg", "kernel_basis"),
    Target("linalg.solve", "pavingideals.linalg", "solve_particular"),
    Target("realizations.certify", "pavingideals.realizations", "in_realization_space"),
    Target("samplers.sample", "pavingideals.samplers", "sample_family"),
    Target("generators.circuit", "pavingideals.generators", "circuit_polynomials", after=_emitted),
    Target("generators.lifting", "pavingideals.generators", "lifting_polynomials", after=_emitted),
    Target("generators.graph", "pavingideals.generators", "graph_polynomial", after=_emitted),
    Target("generators.graph", "pavingideals.generators", "graph_polynomial_brackets", after=_emitted),
    Target("generators.family", "pavingideals.generators", "finite_generating_family", after=_emitted),
    Target("generators.liftability_at", "pavingideals.generators", "liftability_matrix_at"),
    Target("brackets.evaluate", "pavingideals.brackets", "BracketPolynomial.evaluate"),
    Target("brackets.from_text", "pavingideals.brackets", "BracketPolynomial.from_text"),
    Target("verify.vanishing", "pavingideals.verify", "verify_vanishing", after=_checks),
    Target("verify.evaluate", "pavingideals.verify", "evaluate_poly"),
    Target("lifting.lift", "pavingideals.lifting", "lift", after=_lift_ok),
    Target("lifting.project", "pavingideals.lifting", "project"),
    Target("lifting.degenerate", "pavingideals.lifting", "degenerate_lift_subspace"),
    Target("matroids.submatroids", "pavingideals.matroids", "PavingMatroid.full_rank_submatroids"),
    Target("matroids.closed_sets", "pavingideals.matroids", "PavingMatroid.closed_sets"),
)

EXTRA_COUNTERS = (
    "linalg.rref_cells",
    "polyfiles.bytes",
    "generators.emitted",
    "generators.nonzero",
    "verify.checks",
    "lifting.lift_ok",
)


class Tracer:
    """Aggregating span recorder.

    install() wraps the targets for one pass and uninstall() restores them;
    wrappers record only while ``on`` is set, so harness work between the
    timed regions of a traced pass is not charged to any layer.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.extra: dict[str, int] = {}
        # Open spans: [child seconds, span name].
        self.stack: list[list] = []
        self.on = False
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, target: Target, fn):
        stat = self.stats[target.name]
        stack = self.stack
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # Time each resumption, so lazy enumerations are charged where
            # their items are produced.
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if tracer.on:
                    stat.calls += 1
                while True:
                    if not tracer.on:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        yield item
                        continue
                    frame = [0.0, target.name]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dur = perf_counter() - t0
                        stack.pop()
                        stat.self_s += dur - frame[0]
                        if stack:
                            stack[-1][0] += dur
                    yield item

            return gen_wrapper

        before, after = target.before, target.after

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            frame = [0.0, target.name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _count(self, target: Target, fn):
        stat = self.stats[target.name]
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.on:
                stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding inside the package.

        Counters start from zero; wrappers capture them, so they are only
        replaced here.
        """
        self.stats = {t.name: Stat() for t in self.targets}
        self.extra = {name: 0 for name in EXTRA_COUNTERS}
        self.stack = []
        self.missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for target in self.targets:
            owner = sys.modules.get(target.module)
            if owner is None:
                self.missing.append(f"{target.module}.{target.qualname}")
                continue
            parts = target.qualname.split(".")
            holder = owner
            for part in parts[:-1]:
                holder = getattr(holder, part, None)
            attr = parts[-1]
            raw = vars(holder).get(attr) if holder is not None else None
            if raw is None:
                self.missing.append(f"{target.module}.{target.qualname}")
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            make = self._count if target.kind == COUNT else self._span
            wrapped = make(target, fn)
            replacement = staticmethod(wrapped) if is_static else wrapped
            # The owning class or module, under every name bound to fn.
            for name, value in list(vars(holder).items()):
                if value is raw:
                    self._set(holder, name, replacement)
            if holder is not owner:
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, name, wrapped)

    def _set(self, holder, name, value) -> None:
        self._restore.append((holder, name, vars(holder)[name]))
        setattr(holder, name, value)

    def uninstall(self) -> None:
        self.on = False
        for holder, name, value in reversed(self._restore):
            setattr(holder, name, value)
        self._restore = []

    # -- results ---------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        out = {f"{n}_calls": s.calls for n, s in self.stats.items()}
        out.update(self.extra)
        return out

    def self_times(self) -> dict[str, float]:
        return {n: s.self_s for n, s in self.stats.items()}
