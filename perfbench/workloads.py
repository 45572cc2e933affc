"""The three workloads: setup, the timed closed loop, and the oracle check.

Each workload is one client in one process that submits its next job only
after the previous one returns.  Inputs come from the seed during setup; the
timed loop only calls into the library; outputs are checked after the loop
by `oracles`, which shares no code with the timed path.

Import only after `env.load_rieffel()`.
"""
from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
from rieffel import cli
from rieffel.deformation import SkewForm, deformed_product
from rieffel.mgf import read_mgf, write_mgf
from rieffel.quantization import TranslationSymbol, sample_symbol
from rieffel.suites import SuiteConfig, run_suite
from rieffel.symbolic_calculus import (GammaKernel, b_transform,
                                       gamma_reconstruct,
                                       recover_translation_symbol)

THETA = 0.5
HALF_WIDTH = 8.0


@dataclass(frozen=True)
class CountingGammaKernel(GammaKernel):
    """GammaKernel that counts its quadrature calls (passed as the kernel)."""

    counter: list = field(default_factory=lambda: [0], compare=False, hash=False)

    def quadrature(self):
        self.counter[0] += 1
        return super().quadrature()


def _cli(argv) -> int:
    """rieffel.cli.main with its progress line kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _loop(jobs, seconds: float, step: int = 1, min_jobs: int = 1):
    """Run jobs in order until `seconds` have passed and `min_jobs` jobs have
    run, stopping only at a multiple of `step` jobs; returns the (start, end)
    perf_counter interval of every job and of the whole window."""
    intervals = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        job()
        intervals.append((t0, time.perf_counter()))
        done = i + 1
        if done % step == 0 and done >= min_jobs and intervals[-1][1] - start >= seconds:
            break
    return intervals, (start, time.perf_counter())


# ---------------------------------------------------------------------------
# product: CLI product jobs on fresh operands


class Product:
    """`rieffel product F G --out P` at n=2, N=64, k=2, theta=0.5.

    Every job reads a pair of operands no earlier job used.  Operands live on
    dual modes |m| <= BAND, inside the central half band, so p + q never
    wraps and the direct sum is exact.  The loop stops at --seconds or when
    the pool is used up, whichever comes first.
    """

    name = "product"
    POINTS, K, BAND, WIDTH = 64, 2, 4, 2.5
    POOL = 128

    def __init__(self, workdir: str, seed: int):
        self.dir = workdir
        self.seed = seed
        self.expected = []
        self.records = []       # (rc, output path, expected index)

    def _paths(self, i):
        return tuple(os.path.join(self.dir, f"prod_{i}_{s}.mgf") for s in "fgo")

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        modes = oracles.band_modes(self.BAND)
        self.expected = []
        for i in range(self.POOL + 1):          # the last pair is the warm-up
            fc = oracles.random_coeffs(rng, self.BAND, self.K, self.WIDTH)
            gc = oracles.random_coeffs(rng, self.BAND, self.K, self.WIDTH)
            fp, gp, _ = self._paths(i)
            for path, c in ((fp, fc), (gp, gc)):
                oracles.write_grid(path, oracles.synthesize(
                    c, modes, self.POINTS, HALF_WIDTH), HALF_WIDTH)
            pc, pm = oracles.twisted_sum(fc, gc, self.BAND, HALF_WIDTH, THETA)
            self.expected.append(oracles.synthesize(pc, pm, self.POINTS, HALF_WIDTH))
        self.cli_job(self.POOL)()

    def cli_job(self, i):
        fp, gp, op = self._paths(i)

        def job():
            rc = _cli(["product", fp, gp, "--out", op, "--theta", str(THETA)])
            self.records.append((rc, op, i))
            return rc
        return job

    def traced_job(self, i, tr):
        """The CLI product handler's steps, each in its own span."""
        fp, gp, op = self._paths(i)

        def job():
            with tr.span("cli.product"):
                with tr.span("mgf.read_mgf"):
                    f = read_mgf(fp)
                with tr.span("mgf.read_mgf"):
                    g = read_mgf(gp)
                J = SkewForm.standard(THETA)
                with tr.span("deformation.deformed_product"):
                    prod = deformed_product(f, g, J)
                with tr.span("mgf.write_mgf"):
                    write_mgf(op, prod)
            self.records.append((0, op, i))
            return 0
        return job

    def measure(self, seconds: float):
        self.records = []
        return _loop((self.cli_job(i) for i in range(self.POOL)), seconds)

    def check(self):
        """(attempted, failed, worst relative error)."""
        failed, worst = 0, 0.0
        for rc, op, i in self.records:
            ok, err = oracles.product_ok(oracles.read_grid(op), self.expected[i])
            worst = max(worst, err)
            failed += not (ok and rc == 0)
        return len(self.records), failed, worst


# ---------------------------------------------------------------------------
# recovery: CLI recover jobs, with seeded non-translation symbols mixed in


class Recovery:
    """Recovery at n=2, N=32, k=2, theta=0.5, in blocks of BLOCK jobs.

    In each block one job, at a seeded position, submits a GridSymbol sampled
    with a perturbed J (not a translation symbol for the true J) that must be
    rejected; the others run `rieffel recover F --out R`.  Loops stop at a
    block boundary, so every run has the same mix of job kinds, and run at
    least two blocks, since one block of four 2 s jobs gave medians twice as
    spread from run to run.
    """

    name = "recovery"
    POINTS, K, BAND, WIDTH = 32, 2, 3, 1.5
    BLOCK, BLOCKS = 4, 8
    TOL = oracles.RECOVERY_TOL

    def __init__(self, workdir: str, seed: int):
        self.dir = workdir
        self.seed = seed
        self.truth = []
        self.plan = []           # per job: None (accept) or the perturbed theta
        self.records = []

    def _paths(self, i):
        return (os.path.join(self.dir, f"rec_{i}_f.mgf"),
                os.path.join(self.dir, f"rec_{i}_r.mgf"))

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        modes = oracles.band_modes(self.BAND)
        count = self.BLOCK * self.BLOCKS
        self.truth, self.plan = [], []
        for b in range(self.BLOCKS):
            reject_at = int(rng.integers(self.BLOCK))
            for j in range(self.BLOCK):
                self.plan.append(THETA + float(rng.uniform(0.2, 0.3))
                                 if j == reject_at else None)
        self.plan.append(None)                  # warm-up job, accepted
        for i in range(count + 1):
            c = oracles.random_coeffs(rng, self.BAND, self.K, self.WIDTH)
            f = oracles.synthesize(c, modes, self.POINTS, HALF_WIDTH)
            oracles.write_grid(self._paths(i)[0], f, HALF_WIDTH)
            self.truth.append((f, oracles.spectral_sup(f)))
        self.job(count)()

    def job(self, i, tr=None):
        fp, rp = self._paths(i)
        theta = self.plan[i]
        if theta is not None:
            return lambda: self._reject(i, fp, theta, tr)
        if tr is None:
            def run():
                rc = _cli(["recover", fp, "--tol", str(self.TOL), "--theta",
                           str(THETA), "--out", rp])
                self.records.append(("accept", i, rc))
                return rc
            return run
        return lambda: self._traced_accept(i, fp, rp, tr)

    def _traced_accept(self, i, fp, rp, tr):
        """The CLI recover handler's steps, each in its own span, with a
        counting gamma kernel."""
        kernel = CountingGammaKernel()
        with tr.span("cli.recover"):
            with tr.span("mgf.read_mgf"):
                F = read_mgf(fp)
            J = SkewForm.standard(THETA)
            with tr.span("symbolic_calculus.b_transform"):
                b = b_transform(TranslationSymbol(F, J))
            with tr.span("symbolic_calculus.gamma_reconstruct"):
                a = gamma_reconstruct(b, kernel)
            with tr.span("symbolic_calculus.recover_translation_symbol"):
                rec, residual = recover_translation_symbol(a, J, F.grid)
            with tr.span("module_space.sup_norm"):
                scale = max(F.sup_norm(), 1e-300)
                err = (rec - F).sup_norm() / scale
            with tr.span("mgf.write_mgf"):
                write_mgf(rp, rec)
        rc = 0 if err <= self.TOL and residual / scale <= self.TOL else 1
        self.records.append(("accept", i, rc))
        return kernel.counter[0]

    def _reject(self, i, fp, theta, tr):
        """Library-level job: sample F(x - J'xi) with the perturbed J' onto
        the product grid, then test it against the true J."""
        tr_span = tr.span if tr is not None else (lambda _: contextlib.nullcontext())
        with tr_span("job.reject"):
            with tr_span("mgf.read_mgf"):
                F = read_mgf(fp)
            with tr_span("quantization.sample_symbol"):
                sym = sample_symbol(TranslationSymbol(F, SkewForm.standard(theta)), F.grid)
            with tr_span("symbolic_calculus.recover_translation_symbol"):
                _, residual = recover_translation_symbol(sym, SkewForm.standard(THETA), F.grid)
            with tr_span("module_space.sup_norm"):
                scale = max(F.sup_norm(), 1e-300)
        accepted = residual / scale <= self.TOL
        self.records.append(("reject", i, (accepted, residual)))
        return 0

    def measure(self, seconds: float):
        self.records = []
        count = self.BLOCK * self.BLOCKS
        return _loop((self.job(i) for i in range(count)), seconds, step=self.BLOCK,
                     min_jobs=2 * self.BLOCK)

    def check(self):
        """(attempted, failed, worst relative error of accepted jobs)."""
        failed, worst = 0, 0.0
        for kind, i, out in self.records:
            truth, scale = self.truth[i]
            if kind == "accept":
                ok, err = oracles.recovery_ok(
                    out, oracles.read_grid(self._paths(i)[1]), truth)
                worst = max(worst, err)
            else:
                ok = oracles.rejection_ok(out[0], out[1], scale)
            failed += not ok
        return len(self.records), failed, worst


# ---------------------------------------------------------------------------
# verify: full suite passes


class Verify:
    """`run_suite(SuiteConfig())`, suite "all", at the suite's own defaults.

    The suite's seed is part of the measured command, so --seed does not
    change this workload's input.  Passes repeat until --seconds have passed;
    one pass is longer than the usual window, so a run is one pass.  The
    warm-up runs the two cheapest suites, whose check records each full pass
    must then reproduce exactly.
    """

    name = "verify"
    WARM_SUITES = ("module_axioms", "fourier")

    def __init__(self, workdir: str, seed: int):
        self.repeats = []
        self.reports = []

    def setup(self) -> None:
        self.repeats = [run_suite(SuiteConfig(suite=s)) for s in self.WARM_SUITES]

    def job(self):
        rep = run_suite(SuiteConfig())
        self.reports.append(rep)
        return rep

    def measure(self, seconds: float):
        self.reports = []
        return _loop(iter(lambda: self.job, None), seconds)

    def check(self):
        failed = 0
        for i, rep in enumerate(self.reports):
            failed += not oracles.report_ok(rep, self.repeats + self.reports[:i])
        return len(self.reports), failed, 0.0

    def check_seconds(self, scale, start: float) -> dict:
        """Scaled seconds of each check of the first pass.  The pass runs its
        checks back to back from `start`, so each check's interval follows
        from the runtime_ms of the checks before it."""
        out, t = {}, start
        for c in self.reports[0].checks:
            out[c.check_id] = scale(t, t + c.runtime_ms / 1e3)
            t += c.runtime_ms / 1e3
        return out


WORKLOADS = {w.name: w for w in (Product, Recovery, Verify)}
