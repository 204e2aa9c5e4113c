"""Span tracing of fctherm's layers from outside the package.

The tracer wraps named public functions at every module namespace of the
loaded ``fctherm`` package that binds them, so a call made through any import
path is seen.  Each call records a span (name, start, end, parent span, point
id) in memory; nothing is written until the caller aggregates.  A name the
tracer cannot find is recorded as missing and simply reads zero calls, so the
benchmark keeps working when a layer function is renamed or deleted.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# layer name -> (defining module, attribute path); "Class.method" paths patch the class
TARGETS = {
    "config.load": ("fctherm.config", "load_config"),
    "config.build_probe": ("fctherm.config", "RunConfig.build_probe"),
    "config.build_bath": ("fctherm.config", "RunConfig.build_bath"),
    "models.bath_correlation": ("fctherm.models", "bath_correlation"),
    "linalg.quad_finite": ("fctherm.linalg", "quad_finite"),
    "linalg.quad_semiinfinite": ("fctherm.linalg", "quad_semiinfinite"),
    "linalg.eigendecompose": ("fctherm.linalg", "eigendecompose"),
    "linalg.sld_solve": ("fctherm.linalg", "sld_solve"),
    "kernels.gap_integrals": ("fctherm._kernels", "gap_integrals"),
    "kernels.sigma_nodes": ("fctherm._kernels", "sigma_nodes"),
    "kernels.jacobi_eigh": ("fctherm._kernels", "jacobi_eigh"),
    "perturbation.x_matrix": ("fctherm.perturbation", "x_matrix"),
    "perturbation.sld_second_order": ("fctherm.perturbation", "sld_second_order"),
    "perturbation.mfg_second_order": ("fctherm.perturbation", "mfg_second_order"),
    "metrology.snr_bound": ("fctherm.metrology", "snr_bound"),
    "metrology.qfi_perturbative_integral": ("fctherm.metrology", "qfi_perturbative_integral"),
    "metrology.cfi_energy_perturbative": ("fctherm.metrology", "cfi_energy_perturbative"),
    "metrology.qfi_perturbative_sum": ("fctherm.metrology", "qfi_perturbative_sum"),
    "metrology.xi_via_spectral_kernel": ("fctherm.metrology", "xi_via_spectral_kernel"),
    "oracle.exact_fishers": ("fctherm.oracle", "exact_fishers"),
    "oracle.exact_mfg": ("fctherm.oracle", "exact_mfg"),
    "oracle.trace_distance": ("fctherm.oracle", "trace_distance"),
    "oracle.order_fit": ("fctherm.oracle", "order_fit"),
}

# Evaluations of any correlator: value/dbeta/d2beta on every CorrelationFn subclass.
CORRELATOR_LAYER = "models.correlator_eval"
CORRELATOR_METHODS = ("value", "dbeta", "d2beta")

WORD_BYTES = 8  # float64


def kernel_counts(d: int, n: int, matrix_in: bool) -> tuple[int, int]:
    """Computed (operations, bytes) of one gap-integral or sigma-node call.

    Both kernels evaluate a d x d level-pair sum at each of n imaginary-time
    nodes: one multiply-add per pair and node (2 n d^2) plus 2 n d
    exponentials, each counted as one operation.  Bytes are the compulsory
    traffic: read the d energies and the n nodes, read the n coefficients
    (gap_integrals) or the d x d coupling weights (sigma_nodes), and write the
    d x d or d x n result once.  These are a model of the work, computed from
    (d, n); nothing is measured on hardware.
    """
    ops = 2 * n * d * d + 2 * n * d
    if matrix_in:  # sigma_nodes: |S|^2 in, d x n out
        words = d + n + d * d + d * n
    else:          # gap_integrals: coefficients in, d x d out
        words = d + 2 * n + d * d
    return ops, WORD_BYTES * words


def _gap_hook(tracer: "Tracer", args, kwargs) -> None:
    energies = args[0] if args else kwargs.get("energies")
    nodes = args[1] if len(args) > 1 else kwargs.get("u_nodes")
    ops, nbytes = kernel_counts(int(np.size(energies)), int(np.size(nodes)), matrix_in=False)
    tracer.counters["kernels.gap_integrals.ops_computed"] += ops
    tracer.counters["kernels.gap_integrals.bytes_computed"] += nbytes


def _sigma_hook(tracer: "Tracer", args, kwargs) -> None:
    energies = args[0] if args else kwargs.get("energies")
    nodes = args[2] if len(args) > 2 else kwargs.get("u_nodes")
    ops, nbytes = kernel_counts(int(np.size(energies)), int(np.size(nodes)), matrix_in=True)
    tracer.counters["kernels.sigma_nodes.ops_computed"] += ops
    tracer.counters["kernels.sigma_nodes.bytes_computed"] += nbytes


def _eig_hook(tracer: "Tracer", args, kwargs) -> None:
    matrix = args[0] if args else kwargs.get("matrix")
    dim = int(np.shape(matrix)[0])
    key = "linalg.eigendecompose.dim_max"
    tracer.counters[key] = max(tracer.counters[key], dim)


HOOKS = {
    "kernels.gap_integrals": _gap_hook,
    "kernels.sigma_nodes": _sigma_hook,
    "linalg.eigendecompose": _eig_hook,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the parent span, -1 at the top
    point: int       # 0 before the first point, then 1, 2, ...


@dataclass
class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    ``point_opener`` names the layer whose call, made directly under the
    top-level span, starts a new point; the caller may also set ``point``
    itself when it loops over points.
    """

    point_opener: str | None = None
    spans: list = field(default_factory=list)
    counters: defaultdict = field(default_factory=lambda: defaultdict(int))
    missing: list = field(default_factory=list)
    point: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if name == self.point_opener and parent >= 0 and self.spans[parent].parent == -1:
            self.point += 1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.point))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at every ``fctherm`` module namespace that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fctherm" or n.startswith("fctherm."))]
        for name, (module_name, path) in TARGETS.items():
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(name, original)
            if owner_name:  # a method: patching the class covers every caller
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        self._install_correlators()

    def _install_correlators(self) -> None:
        models = sys.modules.get("fctherm.models")
        base = getattr(models, "CorrelationFn", None)
        classes = [c for c in vars(models).values()
                   if isinstance(c, type) and base is not None and issubclass(c, base)]
        patched = 0
        for cls in classes:
            for meth in CORRELATOR_METHODS:
                if meth in cls.__dict__:
                    self._patch(cls, meth, self._wrap(CORRELATOR_LAYER, cls.__dict__[meth]))
                    patched += 1
        if not patched:
            self.missing.append("fctherm.models.CorrelationFn subclasses")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- aggregation --------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, calls made inside points, and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap in this single-threaded run.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "point_calls": 0, "self_s": 0.0}
        )
        for s, kids in zip(self.spans, child_time):
            row = out[s.name]
            row["calls"] += 1
            row["point_calls"] += s.point > 0
            row["self_s"] += s.end - s.start - kids
        return out

    def events(self) -> list[dict]:
        """Spans as plain records, for writing out at the end of a run."""
        return [{"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "point": s.point} for i, s in enumerate(self.spans)]
