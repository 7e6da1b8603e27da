"""Pipeline tests: validation, runs, sweeps, audits, configuration loading."""

import dataclasses

import numpy as np
import pytest

import bandquant as bq
from bandquant import table


def _small_beta(**kw):
    """A fast but fully featured beta configuration."""
    base = dict(scheme="beta", m=1200, p=80, beta=5.0, levels=10, delta=0.1)
    base.update(kw)
    return dataclasses.replace(bq.RunConfig(), **base)


# --- validation --------------------------------------------------------------


def test_validate_accepts_defaults():
    bq.validate(bq.RunConfig())


def test_validate_rejects_bad_configs():
    cases = [
        (dict(scheme="bogus"), "scheme"),
        (dict(m=100, p=3), "multiple"),
        (dict(scheme="sigma-delta", m=2800, p=200, order=7), "incompatible"),
        (dict(scheme="beta", beta=1.0), "beta"),
        (dict(eps=0.1), "eps"),
        (dict(lam=1.0), "oversampling"),
        (dict(target_sup=1.5), "target_sup"),
        (dict(trials=0), "trials"),
        (dict(levels=0), "levels"),
        (dict(delta=-0.1), "delta"),
        (dict(seed=-1), "seed"),
        (dict(gamma=1.5), "gamma"),
        (dict(t=0.0), "t must be positive"),
        (dict(grid_points=1), "grid_points"),
        (dict(interval=0.0), "interval"),
        (dict(r=1), "decay exponent"),
        # Order 7 feedback gain 127 against 2 * 10 levels at sup 0.9 / 0.1.
        (dict(scheme="sigma-delta"), "stability margin -116 "),
    ]
    for overrides, needle in cases:
        config = dataclasses.replace(bq.RunConfig(), **overrides)
        with pytest.raises(bq.ConfigError, match=needle):
            bq.validate(config)


def test_validate_msq_ignores_block_structure():
    # p does not need to divide m when no condensation happens.
    bq.validate(dataclasses.replace(bq.RunConfig(), scheme="msq", m=500, p=200))


def test_validate_collects_multiple_problems():
    config = dataclasses.replace(bq.RunConfig(), scheme="bogus", trials=0)
    with pytest.raises(bq.ConfigError, match="scheme") as exc_info:
        bq.validate(config)
    assert "trials" in str(exc_info.value)


# --- single runs -------------------------------------------------------------


def test_run_exact_roundtrip_for_span_signal(gen, ctx, span_signal):
    # The run's own measurement map, applied to the unquantized samples.
    fv = span_signal(np.random.default_rng(40))
    for config in (
        _small_beta(),
        _small_beta(scheme="sigma-delta", order=7, levels=80, delta=0.05),
    ):
        art = bq.run_detailed(config, signal=fv, generator=gen)
        exact = bq.CoefficientVector(
            values=bq.reconstruct(art.system, art.y), context=ctx
        )
        assert np.max(np.abs(exact.eval(art.grid) - art.signal_values)) < 1e-8
        assert art.report.max_state <= config.delta


def test_run_rejects_a_signal_beyond_the_stability_margin(gen, ctx):
    # validate checks the margin at target_sup only; this unit-variance span
    # element reaches sup 3.0 at the samples, margin -14.9 under the default
    # beta quantizer.
    signal = bq.CoefficientVector(
        np.random.default_rng(41).normal(size=ctx.dimension), ctx
    )
    with pytest.raises(ValueError, match=r"stability margin -\d"):
        bq.run_detailed(bq.RunConfig(), signal=signal, generator=gen)


def test_run_beta_reconstruction_beats_quantizer_floor(gen):
    report = bq.run_once(_small_beta(), generator=gen)
    # Even at this small geometry the error stays near the 0.1-step floor;
    # the full-size benchmark in the acceptance suite goes far below it.
    assert report.sup_error < 0.05
    assert report.max_state <= 0.1
    assert report.discarded < 3 * 15
    assert report.p == 80


def test_run_msq_levels_scale(gen):
    coarse = bq.run_once(_small_beta(scheme="msq", levels=10), generator=gen)
    fine = bq.run_once(_small_beta(scheme="msq", levels=80), generator=gen)
    assert fine.sup_error < coarse.sup_error
    assert coarse.p == 1200  # msq uses every sample individually


def test_run_sigma_delta(gen):
    report = bq.run_once(
        _small_beta(scheme="sigma-delta", order=7, levels=80, delta=0.05),
        generator=gen,
    )
    assert report.sup_error < 0.1
    assert report.max_state <= 0.05


def test_run_detailed_artifacts(gen):
    config = _small_beta(grid_points=101)
    art = bq.run_detailed(config, generator=gen)
    assert art.grid.shape == (101,)
    assert art.signal_values.shape == (101,)
    assert art.recon_values.shape == (101,)
    assert art.q.shape == art.y.shape == art.state.shape
    assert art.binned is not None
    assert art.report.sup_error == pytest.approx(
        float(np.max(np.abs(art.signal_values - art.recon_values)))
    )
    # The quantized stream respects the alphabet.
    alpha = bq.MidriseAlphabet(config.levels, config.delta)
    elements = alpha.elements()
    assert np.all(np.isin(np.round(art.q, 12), np.round(elements, 12)))


def test_run_uses_sample_seed_override(gen):
    a = bq.run_once(_small_beta(), sample_seed=100, generator=gen)
    b = bq.run_once(_small_beta(), sample_seed=100, generator=gen)
    c = bq.run_once(_small_beta(), sample_seed=101, generator=gen)
    assert a.sup_error == b.sup_error
    assert a.sup_error != c.sup_error
    assert a.seed == 100


def test_report_text_and_csv_roundtrip(gen):
    report = bq.run_once(_small_beta(), generator=gen)
    text = table.record_text(report)
    assert "sup_error" in text and "lam_min" in text
    row = table.record_row(report).split(",")
    header = table.record_header(bq.RunReport).split(",")
    assert len(row) == len(header)
    assert row[0] == "beta"
    assert float(row[header.index("sup_error")]) == report.sup_error


# --- sweeps ------------------------------------------------------------------


def test_sweep_aggregates_and_is_deterministic(gen):
    config = _small_beta(trials=2, seed=3)
    rows_a = bq.sweep(config, ms=[800, 1600], schemes=["msq", "beta"])
    rows_b = bq.sweep(config, ms=[800, 1600], schemes=["msq", "beta"])
    assert [table.record_row(r) for r in rows_a] == [table.record_row(r) for r in rows_b]
    assert len(rows_a) == 4
    assert rows_a[0].scheme == "msq" and rows_a[0].p == 800
    assert rows_a[3].scheme == "beta" and rows_a[3].m == 1600
    assert all(r.failures == 0 for r in rows_a)
    assert all(r.mean_sup_error > 0 for r in rows_a)


def test_sweep_counts_failures(gen):
    # p equal to m/1 blocks of size 15 but only 60 blocks: rank-deficient,
    # every trial must fail and be counted rather than raise.
    config = _small_beta(m=600, p=40, trials=2)
    rows = bq.sweep(config)
    assert rows[0].failures == 2
    assert np.isnan(rows[0].mean_sup_error)


def test_sweep_rejects_invalid_cell(gen):
    config = _small_beta(scheme="sigma-delta", order=7)
    # block length 16 cannot be written as 7*(rep - 1) + 1
    with pytest.raises(bq.ConfigError, match="incompatible"):
        bq.sweep(config, ms=[1280])


def test_sweep_files(gen, tmp_path):
    config = _small_beta(trials=1)
    rows = bq.sweep(config, ms=[800, 1600], schemes=["beta"])
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    bq.write_sweep_csv(csv_path, rows)
    bq.write_sweep_chart(svg_path, rows)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "scheme,m,p,mean_sup_error,failures"
    assert len(lines) == 3
    svg = svg_path.read_text(encoding="utf-8")
    assert svg.startswith("<svg") and "polyline" in svg and "beta" in svg
    # Determinism at the byte level.
    bq.write_sweep_csv(tmp_path / "again.csv", rows)
    assert (tmp_path / "again.csv").read_bytes() == csv_path.read_bytes()


# --- bound audit -------------------------------------------------------------


def test_check_bounds_default_config_passes(gen):
    report = bq.check_bounds(bq.RunConfig())
    assert report.all_passed, report.to_text()
    text = report.to_text()
    assert "orthonormality" in text
    assert "kernel diagonal" in text
    assert "condensation" in text
    assert "projection" in text
    assert "frame spectrum" in text


def test_check_bounds_labels_vacuous_lower_edge(gen):
    # At the defaults 1 - gamma - 3t < 0, so the lower edge cannot fail.
    report = bq.check_bounds(bq.RunConfig())
    edge = [line for line in report.to_text().splitlines() if "lower edge" in line]
    assert edge[0].endswith("-> vacuous")
    assert report.all_passed
    # At t = 0.1 the edge is positive, so it is audited.
    tight = bq.check_bounds(dataclasses.replace(bq.RunConfig(), t=0.1))
    edge = [line for line in tight.to_text().splitlines() if "lower edge" in line]
    assert edge[0].endswith("-> FAIL")


def test_check_bounds_msq_skips_condensation(gen):
    report = bq.check_bounds(dataclasses.replace(bq.RunConfig(), scheme="msq"))
    text = report.to_text()
    assert "condensation" not in text
    assert "frame spectrum" not in text
    assert report.all_passed


# --- configuration files -----------------------------------------------------


def test_load_config_and_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[experiment]\n"
        "scheme = sigma-delta\n"
        "m = 1500\n"
        "p = 100\n"
        "seed = 9\n"
        "R = 6.0    ; keys are case-sensitive\n"
        "r = 9\n"
        "[quantizer]\n"
        "order = 7\n"
        "levels = 80\n"
        "delta = 0.05\n"
        "[signal]\n"
        "seed = 4\n"
        "k_range = 10\n"
        "[eval]\n"
        "grid_points = 50\n",
        encoding="utf-8",
    )
    overrides = bq.load_config(ini)
    assert overrides["scheme"] == "sigma-delta"
    assert overrides["m"] == 1500
    assert overrides["signal_seed"] == 4
    assert overrides["R"] == 6.0 and overrides["r"] == 9
    config = bq.build_config(ini)
    assert config.m == 1500 and config.seed == 9 and config.grid_points == 50
    # CLI overrides beat the file; untouched keys keep defaults.
    config = bq.build_config(ini, m=3000, p=200)
    assert config.m == 3000 and config.p == 200
    assert config.order == 7 and config.eps == 0.5
    bq.validate(config)


def test_load_config_rejects_unknown_and_bad_values(tmp_path):
    bad_key = tmp_path / "bad_key.ini"
    bad_key.write_text("[experiment]\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(bq.ConfigError, match="unknown"):
        bq.load_config(bad_key)
    bad_value = tmp_path / "bad_value.ini"
    for value in ("many", "12%"):
        bad_value.write_text(f"[experiment]\nm = {value}\n", encoding="utf-8")
        with pytest.raises(bq.ConfigError, match="bad value"):
            bq.load_config(bad_value)


def test_shared_generator_is_cached():
    params = bq.GeneratorParams(lam=2.0)
    assert bq.shared_generator(params) is bq.shared_generator(params)
