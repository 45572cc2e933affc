"""Layer sweep: each public layer function timed alone over the N x k grid.

Every figure is the median of repeated calls, repeating until MIN_SECONDS of
calls (capped at MAX_REPS), so slow configurations run once.  Times are
scaled by the `scale(start, end)` the caller passes (probe.SpeedProbe.scaled
gives reference-speed seconds).  Import only after `env.load_rieffel()`.
"""
from __future__ import annotations

import os
import statistics
import time

import numpy as np

from rieffel.algebra import cnorm_entries
from rieffel.deformation import SkewForm, deformed_product, twisted_coefficients
from rieffel.grids import GridSpec, axis_transform
from rieffel.mgf import read_mgf, write_mgf
from rieffel.module_space import ModuleFunction
from rieffel.quantization import (LeftActionOp, OperatorHandle, TranslationSymbol,
                                  adjoint_symbol, operator_norm_estimate,
                                  pdo_apply, sample_symbol, symbol_to_kernel)
from rieffel.symbolic_calculus import (GammaKernel, b_transform,
                                       gamma_reconstruct,
                                       recover_translation_symbol)
from workloads import HALF_WIDTH, THETA, CountingGammaKernel

MIN_SECONDS = 0.25
MAX_REPS = 30

# Rows of the Baseline section of ROADMAP.md (2 cores, Python 3.11.7,
# numpy 2.4.6, best of 3 ad hoc runs), in this benchmark's metric names and
# units.  The gamma row is ROADMAP item 2's claim that leggauss(400) takes
# 1.0 s of the N=16 recovery chain.
BASELINE = {
    "deformation.deformed_product.ms.N64.k1": 27.0,
    "deformation.deformed_product.ms.N64.k2": 166.0,
    "deformation.deformed_product.ms.N64.k4": 411.0,
    "deformation.deformed_product.ms.N128.k1": 199.0,
    "deformation.deformed_product.ms.N128.k2": 1470.0,
    "deformation.deformed_product.ms.N128.k4": 4560.0,
    "quantization.sample_symbol_shear.ms.N16": 17.0,
    "quantization.sample_symbol_shear.ms.N32": 503.0,
    "quantization.pdo_apply_dense.ms.N16": 18.0,
    "quantization.pdo_apply_dense.ms.N32": 415.0,
    "quantization.adjoint_symbol.ms.N16": 56.0,
    "quantization.adjoint_symbol.ms.N32": 1170.0,
    "quantization.translation_eval.ms.N16": 990.0,
    "symbolic_calculus.recovery_chain.ms.N16": 1420.0,
    "symbolic_calculus.recovery_chain.ms.N32": 2910.0,
    "symbolic_calculus.gamma_quadrature.ms_per_chain.N16": 1000.0,
}
# ROADMAP.md: twisted_coefficients takes at least 95% of deformed_product.
SHARE_BASELINE = 0.95
# ROADMAP.md, `scripts/run_all_suites.py` rows, in seconds.
VERIFY_BASELINE = {
    "total": 75.0,
    "quantization.norm_bound_stability": 14.8,
    "calculus.coordinate_brackets": 12.3,
    "calculus.bracket_nullity": 12.1,
    "rieffel_pipeline.certificate": 7.8,
    "rieffel_pipeline.recovery": 5.5,
    "rieffel_pipeline.idempotence": 5.5,
    "heisenberg.translation_collapse": 5.5,
}


def timed(fn, scale) -> float:
    """Median scaled seconds of fn() over repeated calls."""
    spans, wall = [], 0.0
    while wall < MIN_SECONDS and len(spans) < MAX_REPS:
        t0 = time.perf_counter()
        fn()
        spans.append((t0, time.perf_counter()))
        wall += spans[-1][1] - t0
    return statistics.median(scale(a, b) for a, b in spans)


class CountingOp(OperatorHandle):
    """Delegating handle that counts applies, its adjoint included."""

    def __init__(self, inner: OperatorHandle, counter: list):
        self.inner = inner
        self.counter = counter

    def apply(self, u):
        self.counter[0] += 1
        return self.inner.apply(u)

    def adjoint(self):
        return CountingOp(self.inner.adjoint(), self.counter)


def gaussian_field(grid: GridSpec, k: int, rng) -> ModuleFunction:
    """Random matrix times a Gaussian, centred near the origin."""
    mesh = grid.mesh()
    c = rng.uniform(-1.0, 1.0, size=grid.n)
    r2 = sum((m - cc) ** 2 for m, cc in zip(mesh, c))
    M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return ModuleFunction(grid, np.exp(-0.5 * r2)[..., None, None] * M)


def twisted_work(npts: int, k: int) -> tuple:
    """Computed (flops, bytes) of one twisted_coefficients call at n=2.

    Derived from array shapes, not counted: per q2 column, two phase
    multiplies (6 flops per complex entry), three length-N FFTs over N*k*k
    lines (5 N log2 N flops each), the (k x k) batched product (8 k^3 flops
    per point) and the accumulate (2 flops per entry); about 17 passes of
    16-byte entries over the (N, N, k, k) arrays.
    """
    entries = npts * npts * k * k
    per_col = entries * (6 + 6 + 2 + 15 * np.log2(npts)) + 8 * npts * npts * k ** 3
    return float(npts * per_col), float(npts * 17 * 16 * entries)


def run(tracer_slices: dict, workdir: str, seed: int, scale) -> dict:
    """All sweep metrics; tracer_slices carries figures the recovery slice
    already measured at N=32 (so the 2 s chain is not rerun here)."""
    rng = np.random.default_rng([seed, 3])
    J = SkewForm.standard(THETA)
    m = {}

    for npts in (32, 64, 128):
        arr = gaussian_field(GridSpec(2, npts, HALF_WIDTH), 2, rng).samples
        h = 2 * HALF_WIDTH / npts
        m[f"grids.axis_transform.ms.N{npts}"] = 1e3 * timed(
            lambda: axis_transform(arr, 0, h, -HALF_WIDTH), scale)
    g32 = GridSpec(2, 32, HALF_WIDTH)
    phase = sample_symbol(TranslationSymbol(gaussian_field(g32, 2, rng), J), g32).samples
    m["grids.axis_transform.ms.phase.N32"] = 1e3 * timed(
        lambda: axis_transform(phase, 0, g32.spacing, -HALF_WIDTH), scale)
    del phase

    for npts in (32, 64, 128):
        g = GridSpec(2, npts, HALF_WIDTH)
        for k in (1, 2, 4):
            f, u = gaussian_field(g, k, rng), gaussian_field(g, k, rng)
            dp = timed(lambda: deformed_product(f, u, J), scale)
            fhat = axis_transform(axis_transform(f.samples, 0, g.spacing, -HALF_WIDTH),
                                  1, g.spacing, -HALF_WIDTH)
            uhat = axis_transform(axis_transform(u.samples, 0, g.spacing, -HALF_WIDTH),
                                  1, g.spacing, -HALF_WIDTH)
            tc = timed(lambda: twisted_coefficients(fhat, uhat, g, THETA), scale)
            m[f"deformation.deformed_product.ms.N{npts}.k{k}"] = 1e3 * dp
            m[f"deformation.twisted_coefficients.share.N{npts}.k{k}"] = tc / dp
            if (npts, k) == (64, 2):
                flops, nbytes = twisted_work(npts, k)
                m["deformation.twisted_coefficients.computed_mflop.N64.k2"] = flops / 1e6
                m["deformation.twisted_coefficients.computed_mbyte.N64.k2"] = nbytes / 1e6
                m["deformation.twisted_coefficients.gflops.N64.k2"] = flops / tc / 1e9

    for npts in (16, 32):
        g = GridSpec(2, npts, HALF_WIDTH)
        F, u = gaussian_field(g, 2, rng), gaussian_field(g, 2, rng)
        a = TranslationSymbol(F, J)
        dense = sample_symbol(a, g)
        m[f"quantization.sample_symbol_shear.ms.N{npts}"] = 1e3 * timed(
            lambda: sample_symbol(a, g), scale)
        m[f"quantization.pdo_apply_dense.ms.N{npts}"] = 1e3 * timed(
            lambda: pdo_apply(dense, u), scale)
        del dense
        m[f"quantization.adjoint_symbol.ms.N{npts}"] = 1e3 * timed(
            lambda: adjoint_symbol(a, g), scale)
        m[f"quantization.symbol_to_kernel.ms.N{npts}"] = 1e3 * timed(
            lambda: symbol_to_kernel(a, g), scale)

    g16 = GridSpec(2, 16, HALF_WIDTH)
    a16 = TranslationSymbol(gaussian_field(g16, 2, rng), J)
    coords = np.meshgrid(*([g16.axis()] * 2 + [g16.dual_axis()] * 2), indexing="ij")
    m["quantization.translation_eval.ms.N16"] = 1e3 * timed(
        lambda: a16.eval(coords[:2], coords[2:]), scale)
    del coords

    g64 = GridSpec(2, 64, HALF_WIDTH)
    counter = [0]
    op = CountingOp(LeftActionOp(gaussian_field(g64, 2, rng), J), counter)
    t0 = time.perf_counter()
    operator_norm_estimate(op, g64, algebra_dim=2, power_iters=15, seed=seed)
    m["quantization.operator_norm_estimate.s"] = scale(t0, time.perf_counter())
    m["quantization.operator_norm_estimate.applies"] = float(counter[0])

    kernel = GammaKernel()
    quad = timed(kernel.quadrature, scale)
    m["symbolic_calculus.gamma_quadrature.ms"] = 1e3 * quad
    m["symbolic_calculus.gamma_reconstruct.ms"] = tracer_slices["gamma_reconstruct_ms"]
    m["symbolic_calculus.recover_translation_symbol.ms"] = \
        tracer_slices["recover_translation_symbol_ms"]

    def chain16():
        b = b_transform(a16)
        return recover_translation_symbol(gamma_reconstruct(b, kernel), J, g16)
    m["symbolic_calculus.recovery_chain.ms.N16"] = 1e3 * timed(chain16, scale)
    m["symbolic_calculus.recovery_chain.ms.N32"] = tracer_slices["recovery_chain_ms"]
    counting = CountingGammaKernel()
    gamma_reconstruct(b_transform(a16), counting)
    m["symbolic_calculus.gamma_quadrature.ms_per_chain.N16"] = 1e3 * quad * counting.counter[0]

    for k in (1, 2, 4):
        mats = rng.normal(size=(65536, k, k)) + 1j * rng.normal(size=(65536, k, k))
        m[f"algebra.cnorm_entries.ns_per_matrix.k{k}"] = 1e9 * timed(
            lambda: cnorm_entries(mats), scale) / 65536

    big = gaussian_field(GridSpec(2, 128, HALF_WIDTH), 4, rng)
    path = os.path.join(workdir, "sweep.mgf")
    mbytes = big.samples.nbytes / 1e6
    m["mgf.write_mgf.MBps"] = mbytes / timed(lambda: write_mgf(path, big), scale)
    m["mgf.read_mgf.MBps"] = mbytes / timed(lambda: read_mgf(path), scale)
    os.remove(path)
    return m


def baseline_rows(metrics: dict) -> list:
    """(name, measured, baseline, ratio) beside the ROADMAP Baseline table."""
    rows = [(k, metrics[k], v, metrics[k] / v) for k, v in BASELINE.items()
            if k in metrics]
    for k, v in metrics.items():
        if k.startswith("deformation.twisted_coefficients.share.N") and ".N32." not in k:
            rows.append((k, v, SHARE_BASELINE, v / SHARE_BASELINE))
    return rows


def verify_rows(check_s: dict) -> list:
    """(name, measured s, baseline s, ratio) for the suite rows of ROADMAP.md,
    from the seconds of each check of one pass."""
    by_id = dict(check_s, total=sum(check_s.values()))
    return [(k, by_id[k], v, by_id[k] / v) for k, v in VERIFY_BASELINE.items()
            if k in by_id]
