"""Per-layer spans recorded from outside the package.

``Tracer.installed`` replaces each traced function with a wrapper that
records a span (name, parent span, start, end, raised) and restores the
originals on exit.  Every module-level binding that holds the function is
patched, so ``quantize.logabsdet_lu`` is traced as well as
``linalg.logabsdet_lu``; methods are patched on their class, aliases such
as ``__rmul__ = __mul__`` included.  The verify suites are traced through
``cli.VERIFY_SUITES``, the table ``run_verify`` iterates.

Spans stay in memory, in compact arrays, until ``write_spans``.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

#: Traced names: ``module.function`` or ``module.Class.method`` inside the
#: ``hamfactor`` package.  The verify suites are added as ``cli.suite.<check>``.
TRACED = (
    "cli.main",
    "linalg.det_lu",
    "linalg.block_det_schur",
    "linalg.schur_factor_check",
    "extham.factor_matrix",
    "extham.determinant_report",
    "extham.determinant_report_1d",
    "extham.null_basis",
    "linalg.logabsdet_lu",
    "quantize.Pencil1D.matrix",
    "quantize.pencil_root_distance",
    "linalg.hermitian_eigen",
    "quantize.eliminate_pencil",
    "spin.embed_spin",
    "linalg.kron",
    "spin.spin_dot",
    "spin.product_identity_residual",
    "spin.commutator_table",
    "polynomials.Polynomial.__mul__",
    "polynomials.Polynomial.__add__",
    "polynomials.Polynomial.diff",
    "polynomials.PolySpinor.map",
    "quantize.kinetic_square_residual",
    "quantize.sigma_covariant",
    "quantize.apply_matrix",
    "zeeman.splitting_table",
    "zeeman.zeeman_level",
    "zeeman.decompose_masses",
)

#: Names whose raised exceptions are reported as ``.errors``.
ERROR_COUNTED = ("linalg.block_det_schur", "linalg.schur_factor_check")

VERIFY_CHECKS = (
    "factorization_1d",
    "null_vector_1d",
    "determinant_identity",
    "schur_determinant",
    "schur_reconstruction",
    "null_spinor_residual",
    "spin_square",
    "spin_product",
    "kinetic_square",
)


def layer_names() -> list[str]:
    """Every traced span name, in report order."""
    return [TRACED[0]] + [f"cli.suite.{check}" for check in VERIFY_CHECKS] + list(TRACED[1:])


def per_layer_metric_units() -> dict[str, str]:
    """Name -> unit of every metric ``Tracer.metrics`` reports."""
    units = {}
    for name in layer_names():
        units[f"{name}.calls"] = "count/call"
        units[f"{name}.self_s"] = "s/call"
        if name.startswith("cli."):
            units[f"{name}.total_s"] = "s/call"
        if name in ERROR_COUNTED:
            units[f"{name}.errors"] = "count/call"
    units["quantize.pencil.factorizations_per_level"] = "ratio"
    units["spin.embed_spin.distinct_ratio"] = "ratio"
    units["polynomials.Polynomial.__mul__.term_products"] = "count/call"
    units["linalg.logabsdet_lu.flops_computed"] = "flop/call"
    units["trace_overhead"] = "ratio"
    return units


class Tracer:
    """Spans in parallel arrays; span i has name ``names[name_ids[i]]``."""

    def __init__(self):
        self.names = layer_names()
        self.name_ids = array("H")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.starts = array("d")
        self.ends = array("d")
        self.raised: set[int] = set()
        self._stack: list[int] = []
        self.term_products = 0
        self.lu_flops = 0.0
        self.embed_keys: set[tuple] = set()

    def _wrap(self, name: str, fn, observe=None):
        name_id = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, raised = self._stack, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.add(index)
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    # Derived counters, observed on the arguments before each call.

    def _observe_mul(self, args, kwargs):
        a, b = args
        self.term_products += len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)

    def _observe_lu(self, args, kwargs):
        n = len(args[0])
        self.lu_flops += 8.0 * n**3 / 3.0  # complex LU: n^3/3 multiply-adds of 8 real flops

    def _observe_embed(self, args, kwargs):
        self.embed_keys.add(tuple(args[:3]) + tuple(sorted(kwargs.items())))

    @contextmanager
    def installed(self):
        """Patch every traced function in the loaded ``hamfactor`` modules."""
        modules = {name: mod for name, mod in sys.modules.items() if name == "hamfactor" or name.startswith("hamfactor.")}
        observers = {
            "polynomials.Polynomial.__mul__": self._observe_mul,
            "linalg.logabsdet_lu": self._observe_lu,
            "spin.embed_spin": self._observe_embed,
        }
        restore = []  # (owner, attribute, original)
        for name in TRACED:
            module_name, *path = name.split(".")
            owner = modules.get(f"hamfactor.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                print(f"trace: {name} not found; reported as zero", file=sys.stderr)
                continue
            wrapper = self._wrap(name, original, observers.get(name))
            holders = [owner] if len(path) > 1 else list(modules.values())
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        restore.append((holder, attr, value))
                        setattr(holder, attr, wrapper)
        cli = modules["hamfactor.cli"]
        suites = cli.VERIFY_SUITES
        restore.append((cli, "VERIFY_SUITES", suites))
        cli.VERIFY_SUITES = tuple(
            (check, stream, self._wrap(f"cli.suite.{check}", runner)) for check, stream, runner in suites
        )
        try:
            yield self
        finally:
            for holder, attr, value in reversed(restore):
                setattr(holder, attr, value)

    def _arrays(self):
        names = np.frombuffer(self.name_ids, dtype=np.uint16).astype(np.intp)
        parents = np.frombuffer(self.parents, dtype=np.int64).copy()
        durations = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        return names, parents, durations

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        _, parents, durations = self._arrays()
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=durations[nested], minlength=len(durations))
        return durations - children

    def metrics(self, levels: int, trace_overhead: float) -> tuple[dict[str, float], float]:
        """Per-layer metrics per traced CLI call, and the self-time closure gap.

        The gap is |sum of all self times - sum of cli.main durations|
        relative to the latter; every span sits under a cli.main span, so
        it is zero up to rounding.
        """
        names, _, durations = self._arrays()
        count = len(self.names)
        calls = np.bincount(names, minlength=count)
        self_s = np.bincount(names, weights=self.self_times(), minlength=count)
        total_s = np.bincount(names, weights=durations, minlength=count)
        errors = np.bincount(names[sorted(self.raised)], minlength=count)
        per_call = max(int(calls[0]), 1)  # layer_names()[0] is cli.main
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i]) / per_call
            out[f"{name}.self_s"] = float(self_s[i]) / per_call
            if name.startswith("cli."):
                out[f"{name}.total_s"] = float(total_s[i]) / per_call
            if name in ERROR_COUNTED:
                out[f"{name}.errors"] = float(errors[i]) / per_call
        lu_calls = float(calls[self.names.index("linalg.logabsdet_lu")])
        embeds = float(calls[self.names.index("spin.embed_spin")])
        out["quantize.pencil.factorizations_per_level"] = lu_calls / levels if levels else 0.0
        out["spin.embed_spin.distinct_ratio"] = len(self.embed_keys) / embeds if embeds else 0.0
        out["polynomials.Polynomial.__mul__.term_products"] = self.term_products / per_call
        out["linalg.logabsdet_lu.flops_computed"] = self.lu_flops / per_call
        out["trace_overhead"] = trace_overhead
        root_total = float(total_s[0])
        gap = abs(float(self_s.sum()) - root_total) / root_total if root_total else math.inf
        return out, gap

    def write_spans(self, path: Path) -> None:
        """Compressed arrays: name ids into ``names``, parent span (-1 at a root),
        start and end in perf_counter seconds, and the indices of spans that raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.uint16),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts),
            ends=np.frombuffer(self.ends),
            raised=np.array(sorted(self.raised), dtype=np.int64),
        )
