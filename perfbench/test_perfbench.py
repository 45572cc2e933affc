"""Negative controls for the benchmark's oracles, and its output contract.

    python3 -m pytest perfbench -q
"""
import dataclasses
import json
import time
import types

import env

env.load_rieffel()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracles  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from rieffel.deformation import SkewForm, deformed_product  # noqa: E402
from rieffel.grids import GridSpec  # noqa: E402
from rieffel.module_space import ModuleFunction  # noqa: E402
from rieffel.quantization import TranslationSymbol, sample_symbol  # noqa: E402
from rieffel.suites import SuiteConfig, run_suite  # noqa: E402
from rieffel.symbolic_calculus import recover_translation_symbol  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Product, Recovery  # noqa: E402


def _operands(rng, npts=32, band=4):
    modes = oracles.band_modes(band)
    fc = oracles.random_coeffs(rng, band, 2, 2.5)
    gc = oracles.random_coeffs(rng, band, 2, 2.5)
    g = GridSpec(2, npts, 8.0)
    f = ModuleFunction(g, oracles.synthesize(fc, modes, npts, 8.0))
    u = ModuleFunction(g, oracles.synthesize(gc, modes, npts, 8.0))
    pc, pm = oracles.twisted_sum(fc, gc, band, 8.0, 0.5)
    return f, u, oracles.synthesize(pc, pm, npts, 8.0)


def test_product_oracle_accepts_library_product():
    f, u, want = _operands(np.random.default_rng(0))
    ok, err = oracles.product_ok(deformed_product(f, u, SkewForm.standard(0.5)).samples, want)
    assert ok and err < 1e-12


def test_product_oracle_flags_perturbed_theta():
    f, u, want = _operands(np.random.default_rng(1))
    ok, err = oracles.product_ok(
        deformed_product(f, u, SkewForm.standard(0.5 + 1e-4)).samples, want)
    assert not ok and err > 1e3 * oracles.PRODUCT_TOL


def _recovery_field(npts=16):
    rng = np.random.default_rng(2)
    c = oracles.random_coeffs(rng, 3, 2, 1.5)
    g = GridSpec(2, npts, 8.0)
    f = oracles.synthesize(c, oracles.band_modes(3), npts, 8.0)
    return g, ModuleFunction(g, f)


def test_rejection_oracle_flags_non_translation_symbol_reported_accepted():
    g, F = _recovery_field()
    sym = sample_symbol(TranslationSymbol(F, SkewForm.standard(0.75)), g)
    _, residual = recover_translation_symbol(sym, SkewForm.standard(0.5), g)
    scale = oracles.spectral_sup(F.samples)
    assert oracles.rejection_ok(False, residual, scale)
    assert not oracles.rejection_ok(True, residual, scale)


def test_rejection_oracle_flags_symbol_tested_against_its_own_J():
    # the rejection job run with the perturbed J itself: the symbol is then a
    # translation symbol, the chain accepts it, and the oracle must object
    g, F = _recovery_field()
    J = SkewForm.standard(0.75)
    _, residual = recover_translation_symbol(sample_symbol(TranslationSymbol(F, J), g), J, g)
    scale = oracles.spectral_sup(F.samples)
    assert not oracles.rejection_ok(residual / scale <= Recovery.TOL, residual, scale)


def test_recovery_oracle_flags_wrong_output():
    _, F = _recovery_field()
    assert oracles.recovery_ok(0, F.samples, F.samples)[0]
    assert not oracles.recovery_ok(0, F.samples * (1 + 1e-4), F.samples)[0]
    assert not oracles.recovery_ok(1, F.samples, F.samples)[0]


def test_verify_oracle_flags_failure_and_changed_residual():
    rep = run_suite(SuiteConfig(suite="fourier"))
    assert oracles.report_ok(rep, [rep])
    changed = dataclasses.replace(rep.checks[0], residual=rep.checks[0].residual * 2 + 1e-30)
    other = dataclasses.replace(rep, checks=(changed,) + rep.checks[1:])
    assert not oracles.report_ok(other, [rep])
    assert not oracles.report_ok(dataclasses.replace(rep, passed=False), [rep])


def test_grid_reader_matches_library_writer(tmp_path):
    from rieffel.mgf import write_mgf
    _, F = _recovery_field()
    write_mgf(tmp_path / "f.mgf", F)
    assert np.array_equal(oracles.read_grid(tmp_path / "f.mgf"), F.samples)


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("cli.x"):
        with tr.span("mgf.read"):
            pass
        with tr.span("deformation.y"):
            with tr.span("algebra.z"):
                pass
    own = tr.self_times()
    total = tr.spans[0][2] - tr.spans[0][1]
    assert sum(own) == pytest.approx(total, abs=1e-9)
    assert [s[3] for s in tr.spans] == [None, 0, 0, 2]
    assert set(tr.by_layer()) == {"cli", "mgf", "deformation", "algebra"}


def test_end_to_end_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    with probe.SpeedProbe() as speed:
        t0 = time.perf_counter()
        wl, iv = run.end_to_end(Product, str(tmp_path), 3, 0.0)
        iv["import"] = (t0, t0 + 0.1)
    metrics, attempted, failed, _ = run.summarize(wl, iv, speed)
    assert attempted >= 1 and failed == 0
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in metrics.items()}


def test_probe_scales_an_interval_by_reference_over_measured_speed():
    speed = probe.SpeedProbe.__new__(probe.SpeedProbe)
    speed.proc = types.SimpleNamespace(poll=lambda: 0)     # child has ended
    speed.times = [float(i) for i in range(10)]
    speed.probe_s = [probe.REF_PROBE_S] * 5 + [2 * probe.REF_PROBE_S] * 5
    assert speed.scaled(0.0, 4.5) == pytest.approx(4.5)
    assert speed.scaled(5.5, 9.0) == pytest.approx(1.75)    # half speed
    assert speed.scaled(9.2, 9.3) == pytest.approx(0.05)    # nearest reading
