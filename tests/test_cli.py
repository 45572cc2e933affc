import argparse
import json

import numpy as np
import pytest

from rieffel import cli, deformation, quantization, symbolic_calculus
from rieffel.cli import main
from rieffel.deformation import SkewForm
from rieffel.grids import GridSpec
from rieffel.mgf import read_mgf, write_mgf
from rieffel.module_space import ModuleFunction, inner_product
from rieffel.quantization import TranslationSymbol
from rieffel.suites import (SUITE_CHECKS, SUITE_NAMES, SuiteConfig, check,
                            check_rng, run_suite)


def stored_field(path, seed, npts=32, k=2, alpha=0.5, n=2):
    g = GridSpec(n, npts, 8.0)
    r = np.random.default_rng(seed)
    mesh = g.mesh()
    r2 = sum(m * m for m in mesh)
    M = r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))
    f = ModuleFunction(g, np.exp(-alpha * r2)[..., None, None] * M)
    write_mgf(path, f)
    return f


# ---- suite machinery


def test_check_rng_deterministic():
    a = check_rng(7, "suite.check").normal(size=4)
    b = check_rng(7, "suite.check").normal(size=4)
    c = check_rng(7, "suite.other").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(suite="nope")
    with pytest.raises(ValueError):
        SuiteConfig(n=3)
    # GridSpec's rule (any even N >= 8) is the only point-count rule
    assert SuiteConfig(points=48).grid().points == 48
    # GridSpec's rules hold at construction, not first at the first check
    for bad in ({"points": 4}, {"points": 0}, {"half_width": 0.0}):
        with pytest.raises(ValueError):
            SuiteConfig(**bad)


@pytest.mark.parametrize("tolerances, message", [
    ({"fourier.roundtrip": 1e-300}, "unknown check 'fourier.roundtrip'"),
    ([1], "tolerances must map check ids to numbers"),
    ({"fourier.round_trip": "1e-3"}, "not a real number"),
    ({"fourier.round_trip": True}, "not a real number"),
    # json reads Infinity and NaN: inf would pass the check whatever its
    # residual, and nan would fail it
    ({"fourier.round_trip": float("inf")}, "must be in [0, inf): inf"),
    ({"fourier.round_trip": float("nan")}, "must be in [0, inf): nan"),
    ({"fourier.round_trip": -1e-3}, "must be in [0, inf): -0.001"),
    ({"fourier.round_trip": 10 ** 400}, "must be in [0, inf): 1000"),
], ids=["unknown_check", "not_a_mapping", "not_a_number", "boolean",
        "infinite", "nan", "negative", "beyond_float"])
def test_cli_verify_rejects_bad_tolerances(tmp_path, capsys, tolerances, message):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"points": 16, "tolerances": tolerances}))
    assert main(["verify", "fourier", "--config", str(cfgp)]) == 2
    assert message in capsys.readouterr().err


def test_zero_tolerance_override_is_allowed():
    cfg = SuiteConfig(suite="fourier", tolerances={"fourier.round_trip": 0})
    assert cfg.tolerances["fourier.round_trip"] == 0


@pytest.mark.parametrize("argv, message", [
    (["--grid", "2,16,nan"], "half_width must be finite and > 0, got nan"),
    (["--grid", "2,16,inf"], "half_width must be finite and > 0, got inf"),
    (["--theta", "nan"], "theta must be finite, got nan"),
    (["--theta", "inf"], "theta must be finite, got inf"),
], ids=["nan_width", "inf_width", "nan_theta", "inf_theta"])
def test_cli_verify_rejects_non_finite_grid_and_theta(capsys, argv, message):
    # refused where the grid and J are built, not later as non-finite samples
    assert main(["verify", "fourier", *argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "NaN" not in err


def test_run_suite_deterministic_payload():
    cfg = SuiteConfig(suite="module_axioms", points=16, seed=11)
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    assert r1.passed
    assert r1.canonical_payload() == r2.canonical_payload()


def test_tolerance_override_can_fail_suite():
    cfg = SuiteConfig(suite="fourier", points=32, seed=3,
                      tolerances={"fourier.round_trip": 1e-300})
    report = run_suite(cfg)
    assert not report.passed
    bad = [c for c in report.checks if c.check_id == "fourier.round_trip"]
    assert len(bad) == 1 and not bad[0].passed


def test_nan_trial_residual_fails_its_check(monkeypatch):
    # negative control: one NaN among the 20 positivity trials must reach
    # the residual (a max() fold from 0.0 drops it and the check passes)
    calls = []

    def defect(gram):
        calls.append(1)
        return float("nan") if len(calls) == 3 else 0.0
    monkeypatch.setattr("rieffel.suites.positivity_defect", defect)
    report = run_suite(SuiteConfig(suite="module_axioms", points=16))
    rec = {c.check_id: c for c in report.checks}["module_axioms.positivity"]
    assert len(calls) == 20
    assert np.isnan(rec.residual) and not rec.passed
    assert not report.passed


def test_registry_folds_its_trials_in_turn(monkeypatch):
    # a check registered with 4 trials runs 4 times on its one rng, each
    # trial drawing after the one before, and reads their worst
    monkeypatch.setitem(SUITE_CHECKS, "fourier", [])
    draws = []

    @check("fourier", 1.0, "four draws", 4)
    def _chk_draws(cfg, rng):
        draws.append(rng.uniform())
        return draws[-1]
    [(check_id, _, _, trials, fold)] = SUITE_CHECKS["fourier"]
    assert (check_id, trials) == ("draws", 4)
    assert fold(None, check_rng(1, "x")) == max(draws)
    assert draws == list(check_rng(1, "x").uniform(size=4))


def test_nan_norm_fails_every_check_that_takes_it(monkeypatch):
    monkeypatch.setattr("rieffel.suites.cnorm", lambda a: float("nan"))
    report = run_suite(SuiteConfig(suite="module_axioms", points=16))
    failed = {c.check_id for c in report.checks if not c.passed}
    assert failed == {f"module_axioms.{name}" for name in (
        "hermitian_symmetry", "positivity", "right_linearity", "cauchy_schwarz",
        "cstar_identity")}


def test_hermitian_symmetry_fails_without_the_conjugate(monkeypatch):
    # negative control: an inner product that drops the conjugate on f
    unconjugated = lambda f, g: inner_product(
        ModuleFunction(f.grid, f.samples.conj()), g)
    monkeypatch.setattr("rieffel.suites.inner_product", unconjugated)
    report = run_suite(SuiteConfig(suite="module_axioms", points=16))
    rec = {c.check_id: c for c in report.checks}["module_axioms.hermitian_symmetry"]
    assert rec.residual > 0.1 and not rec.passed


def idempotence_record():
    report = run_suite(SuiteConfig(suite="rieffel_pipeline"))
    return {c.check_id: c for c in report.checks}["rieffel_pipeline.idempotence"]


def test_idempotence_measures_two_operator_recoveries():
    # two CLI recoveries of a translation symbol differ, and their operator
    # residuals read, at roundoff (observed 5.3e-16), not at a structural 0
    rec = idempotence_record()
    assert 0.0 < rec.residual <= 1e-14 and rec.passed


def test_idempotence_fails_when_recovery_drifts(monkeypatch):
    # negative control: each recovery returns F scaled by 1 + 1e-9
    def drifting(a, J, grid):
        F, residual = symbolic_calculus.recover(a, J, grid)
        return F * (1 + 1e-9), residual
    monkeypatch.setattr("rieffel.suites.recover", drifting)
    rec = idempotence_record()
    assert rec.residual > rec.tolerance == 1e-10 and not rec.passed


def pipeline_residual(check_id, **config):
    cfg = SuiteConfig(suite="rieffel_pipeline", **config)
    fn = {cid: fn for cid, *_, fn in SUITE_CHECKS["rieffel_pipeline"]}[check_id]
    return fn(cfg, check_rng(cfg.seed, f"rieffel_pipeline.{check_id}"))


def test_nan_recovery_residual_fails_recovery(monkeypatch):
    # negative control: a NaN residual from the recovery must reach the
    # check's residual, though it is not the first of the three it folds
    # (with a max() fold the check read 6.8e-14 at k = 1 and passed)
    def nan_residual(a, J, grid):
        return symbolic_calculus.recover_translation_symbol(a, J, grid)[0], np.nan
    monkeypatch.setattr("rieffel.suites.recover_translation_symbol", nan_residual)
    assert np.isnan(pipeline_residual("recovery", algebra_dim=1))


@pytest.mark.parametrize("theta, k", [(0.5, 2), (0.0, 1), (-0.7, 3), (1.0, 2)])
def test_rejection_rejects_a_translation_symbol_of_another_form(theta, k):
    # F(x - J' xi) with J' = (theta + 0.25) Omega is no translation symbol for
    # J: 0.1 sup|a| / residual reads 0.136-0.166, under the tolerance 1.0
    assert 0.1 < pipeline_residual("rejection", theta=theta, algebra_dim=k) < 0.2


def test_rejection_fails_on_a_translation_symbol_of_its_own_form(monkeypatch):
    # negative control: with J' = J the symbol is accepted, its residual is
    # at roundoff, and the check reads about 1e14, far above 1.0
    own_form = lambda F, J: TranslationSymbol(F, SkewForm(J.theta - 0.25))
    monkeypatch.setattr("rieffel.suites.TranslationSymbol", own_form)
    assert pipeline_residual("rejection") > 1e12


def test_rejection_keeps_its_n1_return():
    assert pipeline_residual("rejection", n=1, points=64) == 0.0


def test_report_serialization():
    report = run_suite(SuiteConfig(suite="fourier", points=16, seed=5))
    doc = json.loads(report.to_json())
    assert doc["suite"] == "fourier"
    assert "generated" in doc
    csv = report.to_csv()
    assert csv.splitlines()[0] == "check,residual,tolerance,passed"
    assert len(csv.splitlines()) == len(report.checks) + 1


# ---- CLI subcommands (in-process)


def test_cli_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "rieffel" in out and "suites" in out


def test_cli_info_on_file(tmp_path, capsys):
    p = tmp_path / "f.mgf"
    stored_field(p, 0)
    assert main(["info", str(p)]) == 0
    assert "n=2 N=32" in capsys.readouterr().out


def test_cli_verify_small(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    code = main(["verify", "module_axioms", "--grid", "2,16,8.0",
                 "--seed", "9", "--out", str(out), "--csv", str(csv)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "suite module_axioms: PASS" in printed
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert csv.read_text().startswith("check,")


def test_cli_verify_bad_suite():
    assert main(["verify", "bogus"]) == 2


def test_cli_verify_config_file(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"points": 16, "seed": 4}))
    assert main(["verify", "module_axioms", "--config", str(cfgp)]) == 0


def test_cli_verify_rejects_unknown_config_field(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"points": 16, "bogus_field": 1}))
    assert main(["verify", "module_axioms", "--config", str(cfgp)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_cli_product_matches_apply(tmp_path):
    fp, up = tmp_path / "F.mgf", tmp_path / "u.mgf"
    stored_field(fp, 1)
    stored_field(up, 2)
    pp, ap = tmp_path / "prod.mgf", tmp_path / "app.mgf"
    assert main(["product", str(fp), str(up), "--out", str(pp)]) == 0
    assert main(["apply", str(fp), str(up), "--out", str(ap)]) == 0
    prod = read_mgf(pp)
    app = read_mgf(ap)
    assert np.array_equal(prod.samples, app.samples)


@pytest.mark.parametrize("command", ["product", "apply"])
def test_cli_product_requires_out(tmp_path, capsys, command):
    # the inputs do not exist: --out is rejected before anything is read
    missing = str(tmp_path / "missing.mgf")
    assert main([command, missing, missing]) == 2
    assert f"{command} requires --out" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["product", "apply", "recover"])
@pytest.mark.parametrize("flag", [["--grid", "2,16,8.0"], ["--seed", "3"],
                                  ["--config", "cfg.json"]],
                         ids=["grid", "seed", "config"])
def test_cli_rejects_verify_only_flags(tmp_path, capsys, command, flag):
    # only verify reads --grid, --seed and --config; elsewhere they are usage
    # errors, raised before the (missing) inputs are read
    missing = str(tmp_path / "missing.mgf")
    files = [missing] if command == "recover" else [missing, missing]
    argv = [command, *files, "--out", str(tmp_path / "out.mgf"), *flag]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["product", "apply", "recover"])
def test_cli_rejects_theta_on_line_grid(tmp_path, capsys, command):
    # the only deformation of an n = 1 grid is zero: a non-zero --theta there
    # is a usage error, not a value silently replaced by 0
    fp = tmp_path / "F.mgf"
    stored_field(fp, 7, n=1)
    files = [str(fp)] if command == "recover" else [str(fp), str(fp)]
    out = tmp_path / "out.mgf"
    assert main([command, *files, "--out", str(out), "--theta", "7.0"]) == 2
    assert "theta = 7.0 on an n = 1 grid" in capsys.readouterr().err
    assert not out.exists()
    # omitted, or given as 0, it is the zero form
    for theta in ([], ["--theta", "0"]):
        assert main([command, *files, "--out", str(out), *theta]) == 0
    if command != "recover":
        f = read_mgf(fp)
        assert np.allclose(read_mgf(out).samples, f.samples @ f.samples,
                           rtol=0.0, atol=1e-12 * np.abs(f.samples).max() ** 2)


def test_skew_rule_shared_by_cli_and_suite_config(tmp_path, capsys):
    # SuiteConfig and the CLI take theta's default and its n = 1 rule from
    # SkewForm.standard; SuiteConfig() still deforms by 0.5 Omega
    assert np.array_equal(SuiteConfig().skew().entries,
                          SkewForm.standard().entries)
    assert SuiteConfig().skew().theta == 0.5
    assert SuiteConfig(theta=-0.7).skew().theta == -0.7
    assert np.array_equal(SuiteConfig(n=1).skew().entries, np.zeros((1, 1)))
    with pytest.raises(ValueError, match="n = 1 grid"):
        SuiteConfig(n=1, theta=7.0)
    assert main(["verify", "fourier", "--grid", "1,16,8.0", "--theta", "7"]) == 2
    assert "theta = 7.0 on an n = 1 grid" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert main(["verify", "fourier", "--grid", "1,64,8.0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["environment"]["theta"] == 0.0


def test_cli_recover_accepts_translation_symbol(tmp_path, capsys):
    fp = tmp_path / "F.mgf"
    stored_field(fp, 4, alpha=1.0)
    out = tmp_path / "rec.mgf"
    assert main(["recover", str(fp), "--out", str(out)]) == 0
    assert "recovery sup error" in capsys.readouterr().out
    assert out.exists()


def test_cli_recover_tight_tolerance_fails(tmp_path):
    fp = tmp_path / "F.mgf"
    stored_field(fp, 5, alpha=1.0)
    assert main(["recover", str(fp), "--tol", "1e-300"]) == 1


@pytest.mark.parametrize("tol", ["inf", "nan", "-0.001"])
def test_cli_recover_rejects_tolerance_that_switches_it_off(tmp_path, capsys, tol):
    # --tol inf accepted every recovery and nan rejected every one
    fp = tmp_path / "F.mgf"
    stored_field(fp, 5, alpha=1.0)
    assert main(["recover", str(fp), "--tol", tol]) == 2
    assert "--tol must be finite and >= 0" in capsys.readouterr().err
    assert main(["recover", str(fp), "--tol", "0"]) == 1


def test_cli_recover_takes_negative_theta_in_exponent_form(tmp_path, capsys):
    # argparse alone reads "-1e-3" as an option and exits 2 with "expected
    # one argument"
    fp = tmp_path / "F.mgf"
    stored_field(fp, 5, npts=16, alpha=1.0)
    assert main(["recover", str(fp), "--theta", "-1e-3"]) == 0
    assert "recovery sup error" in capsys.readouterr().out


def test_cli_recover_range_checks_negative_tol_in_exponent_form(tmp_path, capsys):
    fp = tmp_path / "F.mgf"
    stored_field(fp, 5, npts=16, alpha=1.0)
    assert main(["recover", str(fp), "--tol", "-1e-3"]) == 2
    assert "--tol must be finite and >= 0, got -0.001" in capsys.readouterr().err


def test_cli_recover_draws_one_slab_stream_and_one_product(tmp_path, monkeypatch):
    # the work of one accepted N = 32 recovery, counted: T runs once on the
    # stacked [1 | u], so one stream of N slabs from the chain's symbol and
    # one product, T(1) x_J u (two shears of one F before).  The slabs cover
    # only the 9 x 9 dual box of u's modes -4..4, which holds the constant's
    # delta at xi = 0 (the whole 32 x 32 dual grid before).  The product
    # takes u's exact coefficients, so its q2 loop makes one FFT call for
    # each of the 9 rows they occupy (all 32 rows of u's samples before)
    streams, slabs, products, ffts = [], [], [], []
    stream = TranslationSymbol.slabs
    kernel, fft = deformation._twisted_kernel, np.fft.fft

    def counted_slabs(self, grid, box=None):
        streams.append(1)
        for s in stream(self, grid, box):
            slabs.append(s.shape)
            yield s

    def counted_kernel(*args):
        before = len(ffts)
        out = kernel(*args)
        products.append(len(ffts) - before)
        return out

    monkeypatch.setattr(TranslationSymbol, "slabs", counted_slabs)
    monkeypatch.setattr(deformation, "_twisted_kernel", counted_kernel)
    monkeypatch.setattr(np.fft, "fft", lambda a, *args, **kwargs:
                        ffts.append(1) or fft(a, *args, **kwargs))
    fp = tmp_path / "F.mgf"
    stored_field(fp, 4, alpha=1.0)
    assert main(["recover", str(fp)]) == 0
    assert (len(streams), products) == (1, [9])
    assert slabs == [(32, 9, 9, 2, 2)] * 32


def test_cli_recover_reuses_the_gamma_tables_and_the_probe(tmp_path, monkeypatch):
    # the chain's Laplace tables, recover's probe and its dense plan, and
    # the shear's real table depend only on the grid (and k, J): with the
    # memos cleared, the first N = 32 recover makes one quadrature per
    # frequency array, one probe draw, one dual box, 32 block matrices (one
    # per slab) and one shear table; a second recover of another F on the
    # same grid makes none of them, and writes the bytes that a run with
    # cleared memos writes
    quads, draws, boxes, blocks = [], [], [], []
    quadrature = symbolic_calculus.GammaKernel.quadrature
    draw = symbolic_calculus.random_band_coefficients
    box, block = quantization.dual_box, quantization._block_rhs
    monkeypatch.setattr(symbolic_calculus.GammaKernel, "quadrature",
                        lambda self: quads.append(1) or quadrature(self))
    monkeypatch.setattr(symbolic_calculus, "random_band_coefficients",
                        lambda *args: draws.append(1) or draw(*args))
    monkeypatch.setattr(quantization, "dual_box",
                        lambda *args: boxes.append(1) or box(*args))
    monkeypatch.setattr(quantization, "_block_rhs",
                        lambda *args: blocks.append(1) or block(*args))
    tables = quantization._shear_table

    def clear():
        symbolic_calculus._laplace_table.cache_clear()
        symbolic_calculus._probe.cache_clear()
        tables.cache_clear()

    def run(seed):
        fp, out = tmp_path / f"F{seed}.mgf", tmp_path / f"R{seed}.mgf"
        stored_field(fp, seed, alpha=1.0)
        for calls in (quads, draws, boxes, blocks):
            calls.clear()
        misses = tables.cache_info().misses
        assert main(["recover", str(fp), "--out", str(out)]) == 0
        return ((len(quads), len(draws), len(boxes), len(blocks),
                 tables.cache_info().misses - misses), out.read_bytes())

    clear()
    assert run(4)[0] == (4, 1, 1, 32, 1)
    counts, written = run(5)
    assert counts == (0, 0, 0, 0, 0)
    clear()
    assert run(5) == ((4, 1, 1, 32, 1), written)


@pytest.mark.parametrize("command", ["product", "apply", "recover"])
def test_cli_rejects_non_finite_theta(tmp_path, capsys, command):
    fp = tmp_path / "F.mgf"
    stored_field(fp, 7, npts=16)
    files = [str(fp)] if command == "recover" else [str(fp), str(fp)]
    out = tmp_path / "out.mgf"
    assert main([command, *files, "--out", str(out), "--theta", "nan"]) == 2
    assert "theta must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_cli_truncated_file(tmp_path, capsys):
    fp = tmp_path / "F.mgf"
    stored_field(fp, 6)
    fp.write_bytes(fp.read_bytes()[:-8])
    assert main(["info", str(fp)]) == 2
    assert "grid file error" in capsys.readouterr().err


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    assert main(["info"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    assert main(["info"]) == 0
    assert main(["verify", "nonsense"]) == 2
    assert built == []
    # the control: building the tree constructs the root and five subparsers
    cli._build_parser.__wrapped__()
    assert len(built) == 6


def test_cli_no_command(capsys):
    assert main([]) == 2


# Every registered check, its default tolerance and its trial count, in run
# order.  A check that is dropped, renamed, moved, loosened or given another
# number of trials must change this list too.
CHECK_CATALOGUE = [
    ("module_axioms.hermitian_symmetry", 1e-12, 1),
    ("module_axioms.positivity", 1e-10, 20),
    ("module_axioms.right_linearity", 1e-13, 20),
    ("module_axioms.cauchy_schwarz", 1e-12, 20),
    ("module_axioms.cstar_identity", 1e-10, 50),
    ("module_axioms.norm_inequality", 1e-12, 20),
    ("fourier.gaussian_fixed_point", 1e-6, 1),
    ("fourier.unitarity", 1e-10, 10),
    ("fourier.round_trip", 1e-12, 1),
    ("fourier.parseval", 1e-12, 1),
    ("deformation.plane_wave_law", 1e-9, 20),
    ("deformation.weyl_exchange", 1e-9, 10),
    ("deformation.zero_collapse", 1e-10, 5),
    ("deformation.associativity", 1e-12, 3),
    ("deformation.left_right_commute", 1e-12, 1),
    ("deformation.unit_factor", 1e-12, 1),
    ("deformation.approximate_identity", 0.25, 1),
    ("quantization.identity_symbol", 1e-12, 1),
    ("quantization.translation_bridge", 1e-9, 1),
    ("quantization.adjoint_pairing", 1e-10, 1),
    ("quantization.left_action_adjoint", 1e-12, 1),
    ("quantization.kernel_consistency", 1e-10, 1),
    ("quantization.pi_seminorm", 1e-10, 1),
    ("quantization.norm_bound_stability", 0.1, 1),
    ("heisenberg.weyl_unitarity", 1e-10, 1),
    ("heisenberg.group_law", 1e-10, 1),
    ("heisenberg.phi_independence", 1e-12, 1),
    ("heisenberg.conjugation_shift", 1e-6, 1),
    ("heisenberg.translation_collapse", 1e-9, 1),
    ("heisenberg.intertwining", 1e-8, 1),
    ("heisenberg.smoothness_order", 1.0, 1),
    ("calculus.gamma_mass", 1e-10, 1),
    ("calculus.gamma_reproduce_const", 1e-8, 1),
    ("calculus.gamma_reproduce_wave", 1e-6, 1),
    ("calculus.gamma_reproduce_gauss", 1e-5, 1),
    ("calculus.b_eigenvalue", 1e-12, 1),
    ("calculus.gamma_round_trip", 1e-10, 1),
    ("calculus.gamma_round_trip_translation", 1e-10, 1),
    ("calculus.bracket_nullity", 1e-13, 1),
    ("calculus.bracket_antisymmetry", 1e-10, 1),
    ("calculus.coordinate_brackets", 1e-6, 1),
    ("rieffel_pipeline.recovery", 1e-5, 1),
    ("rieffel_pipeline.certificate", 1e-6, 1),
    ("rieffel_pipeline.rejection", 1.0, 1),
    ("rieffel_pipeline.idempotence", 1e-10, 1),
]


def test_check_catalogue_pinned():
    assert tuple(SUITE_CHECKS) == SUITE_NAMES
    registered = [(f"{suite}.{check_id}", tol, trials)
                  for suite, entries in SUITE_CHECKS.items()
                  for check_id, _, tol, trials, _ in entries]
    assert registered == CHECK_CATALOGUE
