"""Pipeline tests: validation, runs, sweeps, audits, configuration loading."""

import dataclasses
import time

import numpy as np
import pytest

import bandquant as bq
from bandquant import pipeline, svg, table


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
        # Binomial taps of order 2000 overflow a float; nu rejects the block first.
        (dict(scheme="sigma-delta", order=2000), "incompatible"),
        (dict(scheme="beta", beta=1.0), "beta"),
        (dict(eps=0.1), "eps"),
        (dict(lam=1.0), "oversampling"),
        (dict(target_sup=1.5), "target_sup"),
        (dict(trials=0), "trials"),
        (dict(levels=0), "levels"),
        (dict(delta=-0.1), "delta"),
        (dict(delta=1e300), "at most 1"),
        (dict(seed=-1), "seed"),
        (dict(gamma=1.5), "gamma"),
        (dict(t=0.0), "t must be positive"),
        (dict(grid_points=1), "grid_points"),
        (dict(r=1), "decay exponent"),
        # Order 7 feedback gain 127 against 2 * 10 levels at sup 0.9 / 0.1.
        (dict(scheme="sigma-delta"), "stability margin -116 "),
    ]
    for overrides, needle in cases:
        config = dataclasses.replace(bq.RunConfig(), **overrides)
        with pytest.raises(bq.ConfigError, match=needle):
            bq.validate(config)


def test_validate_msq_ignores_block_structure():
    # p does not need to divide m when no condensation happens, and delta is
    # not read.
    bq.validate(dataclasses.replace(bq.RunConfig(), scheme="msq", m=500, p=200))
    bq.validate(dataclasses.replace(bq.RunConfig(), scheme="msq", delta=1e300))
    # delta = 1 is the largest half-step a shaped scheme takes: 1-bit sigma-delta.
    bq.validate(
        dataclasses.replace(
            bq.RunConfig(), scheme="sigma-delta", order=1, levels=1, delta=1.0, p=1000
        )
    )


def test_validate_collects_multiple_problems():
    config = dataclasses.replace(bq.RunConfig(), scheme="bogus", trials=0)
    with pytest.raises(bq.ConfigError, match="scheme") as exc_info:
        bq.validate(config)
    assert "trials" in str(exc_info.value)


# --- single runs -------------------------------------------------------------


def test_run_exact_roundtrip_for_span_signal(ctx, span_signal):
    # The run's own measurement map, applied to the unquantized samples.
    fv = span_signal(np.random.default_rng(40))
    for config in (
        _small_beta(),
        _small_beta(scheme="sigma-delta", order=7, levels=80, delta=0.05),
    ):
        art = bq.run_detailed(config, signal=fv)
        exact = bq.CoefficientVector(
            values=bq.reconstruct(art.system, art.measure(art.y)), context=ctx
        )
        assert np.max(np.abs(exact.eval(art.grid) - art.signal_values)) < 1e-8
        assert art.report.max_state <= config.delta


def test_run_rejects_a_signal_beyond_the_stability_margin(ctx, with_nan_sample):
    # validate checks the margin at target_sup only; this unit-variance span
    # element reaches sup 3.0 at the samples: margin -14.9 under the default
    # beta quantizer, and -40 for msq, whose 10-level alphabet ends at 0.95.
    signal = bq.CoefficientVector(
        np.random.default_rng(41).normal(size=ctx.dimension), ctx
    )
    for scheme in ("beta", "msq"):
        config = dataclasses.replace(bq.RunConfig(), scheme=scheme)
        with pytest.raises(ValueError, match=r"stability margin -\d"):
            bq.run_detailed(config, signal=signal)
        # Within the margin, but one sample is not a number.
        with pytest.raises(ValueError, match="finite"):
            bq.run_detailed(config, signal=with_nan_sample(bq.synth_test_signal(1, 12, 0.9)))


def test_elapsed_s_leaves_out_the_generator_build(gen, monkeypatch):
    def slow_build(params):
        time.sleep(0.2)
        return gen

    monkeypatch.setattr(pipeline, "shared_generator", slow_build)
    report = bq.run_detailed(_small_beta()).report
    assert report.elapsed_s < 0.2


def test_run_beta_reconstruction_beats_quantizer_floor():
    report = bq.run_detailed(_small_beta()).report
    # Even at this small geometry the error stays near the 0.1-step floor;
    # the full-size benchmark in the acceptance suite goes far below it.
    assert report.sup_error < 0.05
    assert report.max_state <= 0.1
    assert report.discarded < 3 * 15
    assert report.p == 80


def test_run_msq_levels_scale():
    coarse = bq.run_detailed(_small_beta(scheme="msq", levels=10)).report
    fine = bq.run_detailed(_small_beta(scheme="msq", levels=80)).report
    assert fine.sup_error < coarse.sup_error
    assert coarse.p == 1200  # msq uses every sample individually


def test_run_msq_state_is_its_rounding_error():
    # MSQ is the greedy recursion without feedback: u = y - q, |u| <= delta.
    config = _small_beta(scheme="msq", levels=10)
    art = bq.run_detailed(config)
    np.testing.assert_array_equal(
        art.state.view(np.int64), (art.y - art.q).view(np.int64)
    )
    assert art.report.max_state == float(np.max(np.abs(art.state)))
    assert 0 < art.report.max_state <= 1 / (2 * config.levels)
    assert art.binned is None and art.report.discarded == 0


def test_run_sigma_delta():
    config = _small_beta(scheme="sigma-delta", order=7, levels=80, delta=0.05)
    report = bq.run_detailed(config).report
    assert report.sup_error < 0.1
    assert report.max_state <= 0.05


def test_run_detailed_artifacts():
    config = _small_beta(grid_points=101)
    art = bq.run_detailed(config)
    assert art.grid.shape == (101,)
    assert art.signal_values.shape == (101,)
    assert art.recon_values.shape == (101,)
    assert art.q.shape == art.y.shape == art.state.shape
    assert art.binned is not None
    assert art.report.sup_error == pytest.approx(
        float(np.max(np.abs(art.signal_values - art.recon_values)))
    )
    # The quantized stream respects the alphabet {+-0.1, +-0.3, ..., +-1.9}.
    elements = np.arange(-19, 20, 2) * config.delta
    assert np.all(np.isin(np.round(art.q, 12), np.round(elements, 12)))


def test_error_grid_spans_the_reconstruction_interval():
    config = _small_beta(R=4.0, eps=0.5, grid_points=101)
    art = bq.run_detailed(config)
    assert (art.grid[0], art.grid[-1]) == (-4.0, 4.0)
    assert art.grid.shape == (101,)
    assert art.report.sup_error == float(np.max(np.abs(art.signal_values - art.recon_values)))


def test_run_uses_sample_seed_override():
    a = bq.run_detailed(_small_beta(seed=100)).report
    b = bq.run_detailed(_small_beta(seed=100)).report
    c = bq.run_detailed(_small_beta(seed=101)).report
    assert a.sup_error == b.sup_error
    assert a.sup_error != c.sup_error
    assert a.seed == 100


def _csv_rows(path, cls, records):
    """Data rows of the CSV file write_records writes for the records."""
    table.write_records(path, cls, records)
    return path.read_text(encoding="utf-8").splitlines()[1:]


def test_report_text_and_csv_roundtrip(tmp_path):
    report = bq.run_detailed(_small_beta()).report
    text = table.record_text(report)
    assert "sup_error" in text and "lam_min" in text
    row = _csv_rows(tmp_path / "report.csv", bq.RunReport, [report])[0].split(",")
    header = table.record_header(bq.RunReport).split(",")
    assert len(row) == len(header)
    assert row[0] == "beta"
    assert float(row[header.index("sup_error")]) == report.sup_error


@pytest.mark.parametrize(
    "kw",
    [
        dict(),
        dict(scheme="sigma-delta", m=48000, p=3000, order=3, levels=10, delta=0.1),
    ],
)
def test_shaped_frame_matches_a_signed_copy(ctx, kw, monkeypatch):
    # The shaped frame reads, signs and condenses its rows a chunk of whole
    # blocks at a time; the reference flips a copy of the whole sample matrix.
    config = dataclasses.replace(bq.RunConfig(), **kw)
    _, _, _, _, nu = pipeline._scheme(config)
    samples = bq.draw_samples(config.m, config.R, config.eps, 3)
    binned = bq.partition_bins(samples, config.R, config.eps, nu.size, 3)
    blocks = binned.block_counts[-1]
    step = pipeline._FRAME_CHUNK_ROWS // nu.size
    # The defaults fit one chunk; the sigma-delta frame ends on a ragged one.
    assert blocks % step != 0 if kw else blocks < step
    signs = np.asarray(binned.signs, dtype=float)
    G = signs[:, None] * ctx.kernel_coefficients(binned.coordinates)
    weight = bq.build_weight(binned.block_counts, config.R, config.eps)
    B = weight[:, None] * bq.condense(nu, G)
    want = bq.assemble_frame(B, ctx)
    # A budget of 10 rows is shorter than one block: one block per chunk.
    # A sweep trial gathers the rows from those of the whole draw instead.
    drawn = ctx.kernel_coefficients(samples)
    for budget in (pipeline._FRAME_CHUNK_ROWS, 10):
        monkeypatch.setattr(pipeline, "_FRAME_CHUNK_ROWS", budget)
        for rows in (None, drawn):
            got, _ = pipeline._frame(config, ctx, binned.coordinates, binned, nu, rows)
            for name in ("analysis", "eigvals", "eigvecs"):
                np.testing.assert_array_equal(
                    getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)
                )


# --- sweeps ------------------------------------------------------------------


def test_sweep_aggregates_and_is_deterministic(gen, tmp_path):
    config = _small_beta(trials=2, seed=3)
    rows_a = bq.sweep(config, ms=[800, 1600], schemes=["msq", "beta"])
    rows_b = bq.sweep(config, ms=[800, 1600], schemes=["msq", "beta"])
    assert _csv_rows(tmp_path / "a.csv", pipeline.SweepRow, rows_a) == _csv_rows(
        tmp_path / "b.csv", pipeline.SweepRow, rows_b
    )
    assert len(rows_a) == 4
    assert rows_a[0].scheme == "msq" and rows_a[0].p == 800
    assert rows_a[3].scheme == "beta" and rows_a[3].m == 1600
    assert all(r.failures == 0 for r in rows_a)
    assert all(r.mean_sup_error > 0 for r in rows_a)


def _trial_outcomes(cell, signal):
    """sup_error of run_detailed at seed + k for each trial k of cell, None
    where the run raises a frame or binning failure."""
    sups = []
    for k in range(cell.trials):
        try:
            art = bq.run_detailed(dataclasses.replace(cell, seed=cell.seed + k), signal=signal)
        except (bq.FrameFailure, bq.BinningError):
            sups.append(None)
        else:
            sups.append(art.report.sup_error)
    return sups


def _bits(value):
    return np.float64(value).view(np.int64)


def _check_sweep_against_runs(config, ms, failures):
    """sweep over msq, beta and sigma-delta at budgets ms: each cell's
    failures (pinned) are the runs at seed + k that raise, and its mean is
    the mean of the others, bit for bit."""
    signal = bq.synth_test_signal(config.signal_seed, config.k_range, config.target_sup)
    schemes = ["msq", "beta", "sigma-delta"]
    rows = bq.sweep(config, ms=ms, schemes=schemes)
    assert [(r.scheme, r.m) for r in rows] == [(s, m) for s in schemes for m in ms]
    assert [r.failures for r in rows] == failures
    for row in rows:
        sups = _trial_outcomes(dataclasses.replace(config, scheme=row.scheme, m=row.m), signal)
        ran = [v for v in sups if v is not None]
        assert row.failures == len(sups) - len(ran)
        assert _bits(row.mean_sup_error) == _bits(np.mean(ran) if ran else np.nan)


def test_sweep_trial_is_the_run_at_seed_plus_k(gen):
    # Trial k of a cell is run_detailed at seed + k with the sweep's signal,
    # for every scheme; block lengths 15 and 25 at p = 80.
    _check_sweep_against_runs(_small_beta(order=2, trials=3, seed=7), [1200, 2000], [0] * 6)


@pytest.mark.parametrize(
    "kw, failures",
    [
        # 46 blocks of 15 against d = 45 shifts: some frames are singular.
        (dict(m=690, p=46, trials=6), [0, 6, 3]),
        # Blocks of 75: bins 2 and 3 get about 60 of 300 samples each.
        (dict(m=300, p=4, trials=2), [0, 2, 2]),
    ],
)
def test_sweep_failures_are_the_runs_that_raise(gen, kw, failures):
    _check_sweep_against_runs(_small_beta(order=2, **kw), [kw["m"]], failures)


def test_sweep_does_not_depend_on_axis_order(gen):
    # A cell reads the same draws whichever cells run before it; m = 690
    # (46 blocks of 15) has frame failures.
    config = _small_beta(p=46, order=2, trials=3)
    ms, schemes = [690, 1150], ["msq", "beta", "sigma-delta"]
    forward = bq.sweep(config, ms=ms, schemes=schemes)
    backward = bq.sweep(config, ms=ms[::-1], schemes=schemes[::-1])
    assert [(r.scheme, r.m) for r in backward] == [
        (s, m) for s in schemes[::-1] for m in ms[::-1]
    ]
    assert sum(r.failures for r in forward) > 0

    def cells(rows):
        return {(r.scheme, r.m): (r.p, _bits(r.mean_sup_error), r.failures) for r in rows}

    assert cells(forward) == cells(backward)


def test_sweep_counts_failures(gen):
    # 40 blocks of 15: at most 40 analysis rows against d = 45 shifts, so
    # every frame is singular; every trial must fail and be counted rather
    # than raise.
    config = _small_beta(m=600, p=40, trials=2)
    rows = bq.sweep(config)
    assert rows[0].failures == 2
    assert np.isnan(rows[0].mean_sup_error)


def test_sweep_rejects_invalid_cell(gen):
    config = _small_beta(scheme="sigma-delta", order=7)
    # block length 16 cannot be written as 7*(rep - 1) + 1
    with pytest.raises(bq.ConfigError, match="incompatible"):
        bq.sweep(config, ms=[1280])


def test_sweep_validates_every_cell_before_the_first_trial(monkeypatch):
    # Every beta cell is valid; sigma-delta order 3 fits none of the blocks.
    monkeypatch.setattr(
        pipeline, "_run_stages", lambda *a, **k: pytest.fail("a trial ran before validation")
    )
    config = dataclasses.replace(bq.RunConfig(), p=200, order=3, trials=3)
    with pytest.raises(bq.ConfigError, match="incompatible"):
        bq.sweep(config, ms=[3000, 12000, 48000], schemes=["beta", "sigma-delta"])


def test_sweep_files(gen, tmp_path):
    config = _small_beta(trials=1)
    rows = bq.sweep(config, ms=[800, 1600], schemes=["beta"])
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    table.write_records(csv_path, pipeline.SweepRow, rows)
    svg.write_log_chart(svg_path, [(r.scheme, r.m, r.mean_sup_error) for r in rows])
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "scheme,m,p,mean_sup_error,failures"
    assert len(lines) == 3
    chart = svg_path.read_text(encoding="utf-8")
    assert chart.startswith("<svg") and "polyline" in chart and "beta" in chart
    # Determinism at the byte level.
    table.write_records(tmp_path / "again.csv", pipeline.SweepRow, rows)
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
    # The projection bound is vacuous at or above ||f||_L2([-R, R]) (at
    # r = 15, eps = 0.2), and check-bounds keeps that label.
    proj = [line for line in report.to_text().splitlines() if "projection" in line]
    assert proj[0].endswith("-> ok")
    loose = bq.check_bounds(dataclasses.replace(bq.RunConfig(), r=15, eps=0.2))
    proj = [line for line in loose.to_text().splitlines() if "projection" in line]
    assert proj[0].endswith("-> vacuous")
    assert loose.all_passed


def test_check_bounds_labels_a_projection_bound_above_the_signal_norm_vacuous(gen):
    # The default signal has ||f||_L2([-5, 5]) = 1.27.  At lambda = 1.1 the
    # bound is 9.2e5, below 1e6 but far above that norm, so it says nothing;
    # at the defaults it is 0.0395.
    for lam, status in ((1.1, "vacuous"), (2.0, "ok")):
        report = bq.check_bounds(dataclasses.replace(bq.RunConfig(), lam=lam))
        proj = [line for line in report.to_text().splitlines() if "projection" in line]
        assert proj[0].endswith(f"-> {status}")


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
    # The error grid always spans [-R, R]; its half-width is not a key.
    bad_key.write_text("[eval]\ninterval = 5.0\n", encoding="utf-8")
    with pytest.raises(bq.ConfigError, match="unknown"):
        bq.load_config(bad_key)


def test_config_layout_names_every_field_once():
    layout = pipeline._CONFIG_LAYOUT
    fields = [field for field, *_ in layout]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(bq.RunConfig))
    assert len({(section, key) for _, section, key, _, _ in layout}) == len(layout)
    assert len({flag for _, _, _, flag, _ in layout}) == len(layout)


def test_shared_generator_is_cached():
    params = bq.GeneratorParams(lam=2.0)
    assert bq.shared_generator(params) is bq.shared_generator(params)
