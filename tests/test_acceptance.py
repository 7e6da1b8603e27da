"""Acceptance gate: seven end-to-end properties of the reconstruction pipeline.

Each test prints exactly one summary line — ``[criterion N] <what>: PASS|FAIL
(<numbers>)`` — so a plain run doubles as a sign-off checklist.  Tolerances
are pinned here and nowhere looser; every test also enforces its runtime
budget.
"""

import dataclasses
import math
import time

import numpy as np

import bandquant as bq

_DEFAULTS = bq.RunConfig()  # lam=2, eps=1/2, R=5, m=3000, p=200


def _line(number, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} ({detail})")


# Scheme configurations with nonnegative stability margin at input level 1:
# (order or beta, levels, delta).
_SD_CONFIGS = [(1, 2, 0.5), (2, 8, 0.25), (7, 80, 0.05)]
_BETA_CONFIGS = [(2.0, 3, 0.5), (5.0, 10, 0.1), (20.0, 80, 1.0 / 130.0)]


def test_criterion_1_noise_shaping_identity_and_state_bound(dense_h):
    t0 = time.perf_counter()
    size = 120
    rng = np.random.default_rng(2024)
    worst_residual = 0.0
    worst_state_excess = 0.0  # max over runs of max_state - delta
    min_margin = math.inf
    # (taps, restart length, levels, delta)
    schemes = []
    for order, levels, delta in _SD_CONFIGS:
        schemes.append((bq.difference_taps(order), None, levels, delta))
    for beta, levels, delta in _BETA_CONFIGS:
        schemes.append(((beta,), 15, levels, delta))
    # MSQ, the member without feedback, as the pipeline configures it.
    _, taps, block, alphabet, _ = bq.pipeline._scheme(
        dataclasses.replace(_DEFAULTS, scheme="msq", levels=10)
    )
    schemes.append((taps, block, alphabet.levels, alphabet.delta))
    for taps, block, levels, delta in schemes:
        mat = dense_h(taps, block, size)
        alphabet = bq.MidriseAlphabet(levels, delta)
        margin = bq.stability_margin(taps, 1.0, alphabet)
        min_margin = min(min_margin, margin)
        for _ in range(200):
            y = rng.uniform(-1.0, 1.0, size=size)
            result = bq.greedy_noise_shape(y, taps, alphabet, block)
            residual = float(np.max(np.abs((y - result.q) - mat @ result.u)))
            worst_residual = max(worst_residual, residual)
            worst_state_excess = max(
                worst_state_excess, result.max_state - delta
            )
    elapsed = time.perf_counter() - t0
    passed = (
        worst_residual < 1e-12
        and min_margin >= 0.0
        and worst_state_excess <= 0.0
        and elapsed < 10.0
    )
    _line(
        1,
        "noise-shaping identity and state bound",
        passed,
        f"max residual {worst_residual:.3g}, min margin {min_margin:g}, "
        f"max state-delta {worst_state_excess:.3g}, {elapsed:.1f}s",
    )
    assert passed


def test_criterion_2_unquantized_round_trip_is_exact(span_signal):
    # R y: the canonical dual applied to the run's own analysis adjoint of
    # the unquantized samples, so the condensation rows in use are covered.
    t0 = time.perf_counter()
    signal = span_signal(np.random.default_rng(0))
    configs = {
        "beta": dataclasses.replace(_DEFAULTS, scheme="beta"),
        "sigma-delta": dataclasses.replace(
            _DEFAULTS, scheme="sigma-delta", order=7, levels=80, delta=0.05
        ),
    }
    exact = {}
    sups = []
    failures = 0
    for scheme, config in configs.items():
        exact[scheme] = 0
        for seed in range(1, 6):
            try:
                art = bq.run_detailed(
                    dataclasses.replace(config, seed=seed), signal=signal
                )
            except (bq.FrameFailure, bq.BinningError):
                failures += 1
                continue
            ry = bq.CoefficientVector(
                values=bq.reconstruct(art.system, art.adjoint_y),
                context=signal.context,
            )
            sup = float(np.max(np.abs(ry.eval(art.grid) - art.signal_values)))
            sups.append(sup)
            exact[scheme] += sup < 1e-8
    elapsed = time.perf_counter() - t0
    passed = all(n >= 4 for n in exact.values()) and elapsed < 60.0
    _line(
        2,
        "unquantized round trip R y recovers span signals",
        passed,
        ", ".join(f"{s} {n}/5 seeds below 1e-8" for s, n in exact.items())
        + f", {failures} frame failures, worst {max(sups, default=math.nan):.3g}, "
        f"{elapsed:.1f}s",
    )
    assert passed


def test_criterion_3_condensation_norm_bounds():
    t0 = time.perf_counter()
    checks = []
    small = bq.verify_condensation_bounds(3, 1, beta=2.0)
    checks.append(
        ("beta=2 single block", abs(small.lhs - 1.0 / 7.0) < 1e-12 and small.passed)
    )
    reports = [bq.verify_condensation_bounds(15, 200, order=7)]
    reports += [
        bq.verify_condensation_bounds(15, 200, beta=b) for b in (5.0, 20.0)
    ]
    for rep in reports:
        checks.append((rep.label, rep.passed))
    elapsed = time.perf_counter() - t0
    passed = all(ok for _, ok in checks) and elapsed < 5.0
    failed = [name for name, ok in checks if not ok]
    _line(
        3,
        "condensation operator-norm bounds",
        passed,
        f"small case lhs {small.lhs:.12g} (= 1/7) <= {small.rhs:g}, "
        f"{len(checks) - len(failed)}/{len(checks)} bounds hold"
        + (f", failed: {failed}" if failed else "")
        + f", {elapsed:.1f}s",
    )
    assert passed


def test_criterion_4_generator_validity():
    t0 = time.perf_counter()
    gen = bq.shared_generator(bq.GeneratorParams(lam=2.0))

    defect = 0.0
    for k in range(0, 21):
        ip = gen.shift_inner_product(k)
        defect = max(defect, abs(ip - (1.0 if k == 0 else 0.0)))

    ctx = bq.KernelContext.from_box(gen, 5.0, 0.5)
    xs = np.linspace(-ctx.half_width - 2.0, ctx.half_width + 2.0, 10001)
    diag_sup = float(np.max(np.sum(ctx.kernel_coefficients(xs) ** 2, axis=1)))
    diag_limit = 3.0 * (1.0 + 1e-6)

    # The decay constant must certify on a grid 10x finer than its own.
    c11 = gen.decay_constant(11)
    fine = np.arange(0.0, gen.params.tail_cut, gen.params.grid_step / 10.0)
    fine_max = float(np.max((1.0 + fine) ** 11 * np.abs(gen.eval(fine))))

    holds = 0
    for seed in range(10):
        f = bq.synth_test_signal(seed, 12, 0.9)
        pf = bq.project(f, gen, 5.0, 0.5)
        rep = bq.projection_error_report(f, pf, 5.0, r=11)
        holds += rep.passed

    elapsed = time.perf_counter() - t0
    passed = (
        defect < 1e-6
        and diag_sup <= diag_limit
        and fine_max <= c11
        and holds == 10
        and elapsed < 60.0
    )
    _line(
        4,
        "generator orthonormality, kernel bound, projection bound",
        passed,
        f"defect {defect:.3g}, kernel sup {diag_sup:.6g} <= {diag_limit:.6g}, "
        f"decay profile {fine_max:.3g} <= C_11 {c11:.3g}, "
        f"projection bound held on {holds}/10 signals, {elapsed:.1f}s",
    )
    assert passed


def _mean_sup_error(config, signal):
    sups = []
    for seed in range(1, 6):
        report = bq.run_detailed(
            dataclasses.replace(config, seed=seed), signal=signal
        ).report
        sups.append(report.sup_error)
    return float(np.mean(sups))


def test_criterion_5_benchmark_beta_beats_msq_and_scales():
    t0 = time.perf_counter()
    signal = bq.synth_test_signal(
        _DEFAULTS.signal_seed, _DEFAULTS.k_range, _DEFAULTS.target_sup
    )
    beta_kw = dict(scheme="beta", beta=20.0, levels=80, delta=1.0 / 130.0)
    cells = {
        "beta_3000": dataclasses.replace(_DEFAULTS, m=3000, p=200, **beta_kw),
        "beta_500": dataclasses.replace(_DEFAULTS, m=500, p=100, **beta_kw),
        "msq_3000": dataclasses.replace(_DEFAULTS, scheme="msq", m=3000, levels=80),
        "msq_500": dataclasses.replace(_DEFAULTS, scheme="msq", m=500, levels=80),
    }
    means = {name: _mean_sup_error(config, signal) for name, config in cells.items()}
    msq_ratio = max(means["msq_3000"], means["msq_500"]) / min(
        means["msq_3000"], means["msq_500"]
    )
    elapsed = time.perf_counter() - t0
    passed = (
        means["beta_3000"] < means["msq_3000"]
        and msq_ratio < 2.0
        and means["beta_3000"] < means["beta_500"]
        and elapsed < 600.0
    )
    _line(
        5,
        "benchmark: geometric scheme beats plain rounding and improves with m",
        passed,
        f"beta m=3000 {means['beta_3000']:.3g} < msq {means['msq_3000']:.3g}; "
        f"msq m=500/3000 ratio {msq_ratio:.2f} < 2; "
        f"beta m=500 {means['beta_500']:.3g} > m=3000, {elapsed:.1f}s",
    )
    assert passed


def test_criterion_6_bin_counts_concentrate():
    t0 = time.perf_counter()
    m = 10_000
    within = 0
    worst = 0.0
    for seed in range(50):
        coords = bq.draw_samples(m, 5.0, 0.5, seed)
        m1 = int(np.sum(bq.bin_index(coords, 5.0, 0.5) == 1))
        deviation = abs(m1 - 0.6 * m)
        worst = max(worst, deviation)
        within += deviation <= 0.3 * m
    elapsed = time.perf_counter() - t0
    passed = within >= 49 and elapsed < 5.0
    _line(
        6,
        "inner-bin occupancy concentrates at 0.6 m",
        passed,
        f"{within}/50 seeds within 0.3 m, worst deviation {worst:g}, "
        f"{elapsed:.1f}s",
    )
    assert passed


def test_criterion_7_sweep_outputs_are_deterministic(tmp_path):
    from bandquant.cli import main

    argv = [
        "sweep", "--scheme", "beta,msq", "--m", "1200,2400",
        "--p", "80", "--trials", "2",
    ]
    codes = [
        main([*argv, "--out", str(tmp_path / sub)]) for sub in ("a", "b")
    ]
    csv_a = (tmp_path / "a/sweep.csv").read_bytes()
    csv_b = (tmp_path / "b/sweep.csv").read_bytes()
    svg_a = (tmp_path / "a/sweep.svg").read_bytes()
    svg_b = (tmp_path / "b/sweep.svg").read_bytes()
    passed = codes == [0, 0] and csv_a == csv_b and svg_a == svg_b
    _line(
        7,
        "sweep reruns are byte-identical",
        passed,
        f"csv {len(csv_a)} bytes, svg {len(svg_a)} bytes, both matched"
        if passed
        else "outputs differ between reruns",
    )
    assert passed
