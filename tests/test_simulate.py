import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import data as data_module
from stabcert import lyapunov, simulate
from stabcert.data import (
    effective_sector,
    ingest_csv,
    make_neighbor,
    subsample,
    synthetic_dataset,
)
from stabcert.losses import LogisticTask, random_sector_quadratics, reg_logistic_grad
from stabcert.optimizers import (
    HeavyBall,
    NagSmoothQuadratic,
    NagStandard,
    OptimizerState,
    SectorBounds,
    Sgd,
    nag_step,
    step_rule,
)
from stabcert.simulate import (
    ExperimentConfig,
    coupled_run,
    envelope_rate,
    fit_loglog_slope,
    saturating_fit,
    stability_vs_n,
    stability_vs_t,
)


def _tiny_tasks(seed=0, n=8, dim=3, lam=0.01):
    # note: negating both x and y would leave the logistic gradient
    # unchanged, so the replacement rescales the features too
    data = synthetic_dataset(n, dim, seed=seed)
    task = LogisticTask(x=data.x, y=data.y, lam=lam)
    other = task.replaced(2, 2.0 * task.x[2] + 0.5, -task.y[2])
    return task, other


def test_identical_tasks_never_separate():
    task, _ = _tiny_tasks()
    trace = coupled_run(
        task, task, 0, Sgd(eta=0.1), 50, np.random.default_rng(1)
    )
    np.testing.assert_array_equal(trace.param_diff, 0.0)


def test_gap_stays_zero_until_first_hit():
    task, other = _tiny_tasks()
    rng = np.random.default_rng(7)
    trace = coupled_run(task, other, 2, Sgd(eta=0.1), 200, rng)
    hits = np.flatnonzero(trace.hits)
    assert hits.size > 0
    first = hits[0]
    np.testing.assert_array_equal(trace.param_diff[:first], 0.0)
    assert trace.param_diff[first] > 0.0


def test_hit_snapshots_align_with_hits():
    task, other = _tiny_tasks()
    trace = coupled_run(
        task, other, 2, Sgd(eta=0.1), 100, np.random.default_rng(3)
    )
    steps = [t for t, _, _ in trace.hit_snapshots]
    np.testing.assert_array_equal(steps, np.flatnonzero(trace.hits))
    # snapshots are taken before the step: the first pair still agrees
    t0, wa, wb = trace.hit_snapshots[0]
    np.testing.assert_array_equal(wa, wb)


def test_coupled_nag_two_sided_consistency():
    # run task vs neighbor with NagStandard and replay both sides through
    # nag_step on the same index stream; final gap must match exactly
    task, other = _tiny_tasks(seed=5)
    opt = NagStandard(eta=0.02, mu=0.7)
    horizon = 60
    trace = coupled_run(task, other, 2, opt, horizon, np.random.default_rng(9))
    idx = np.random.default_rng(9).integers(0, task.n_samples, size=horizon)
    sa = OptimizerState.zeros(task.dim)
    sb = OptimizerState.zeros(task.dim)
    for t in range(horizon):
        i = int(idx[t])
        sa = nag_step(sa, lambda w: task.grad(w, i), opt.eta, opt.mu)
        sb = nag_step(sb, lambda w: other.grad(w, i), opt.eta, opt.mu)
    assert trace.param_diff[-1] == pytest.approx(
        float(np.linalg.norm(sa.w - sb.w)), abs=1e-12
    )


def test_coupled_run_validation():
    task, other = _tiny_tasks()
    with pytest.raises(ValueError, match="replaced index"):
        coupled_run(task, other, 99, Sgd(0.1), 10, np.random.default_rng(0))
    short = LogisticTask(x=task.x[:4], y=task.y[:4], lam=task.lam)
    with pytest.raises(ValueError, match="equal sample counts"):
        coupled_run(task, short, 0, Sgd(0.1), 10, np.random.default_rng(0))


def test_quadratic_contraction_between_hits():
    # sector-tuned Nesterov on exact quadratics: between hits the gap
    # cannot grow faster than the certified envelope allows; check the
    # crude version, boundedness across a long run
    sb = SectorBounds(0.25, 1.0)
    rng = np.random.default_rng(12)
    task = random_sector_quadratics(10, 4, sb, rng)
    other = task.replaced(
        3, np.eye(4) * 0.5, np.ones(4)
    )
    trace = coupled_run(
        task, other, 3, NagSmoothQuadratic(sb), 500, np.random.default_rng(1)
    )
    assert np.isfinite(trace.param_diff).all()
    assert trace.param_diff.max() < 50.0


def test_fit_loglog_recovers_power_law():
    xs = np.array([10.0, 20.0, 40.0, 80.0])
    ys = 3.0 * xs**-0.5
    fit = fit_loglog_slope(xs, ys)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)


def test_fit_loglog_errors():
    with pytest.raises(ValueError):
        fit_loglog_slope(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):  # a 2-point "fit" is a line through anything
        fit_loglog_slope(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_loglog_slope(np.array([1.0, -2.0, 3.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        fit_loglog_slope(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0]))


def test_saturating_fit_recovers_coefficient():
    rho = 1e-3
    steps = np.array([10.0, 100.0, 1000.0, 5000.0])
    values = 2.5 * np.sqrt(1.0 - (1.0 - rho) ** steps)
    c, r2 = saturating_fit(steps, values, rho)
    assert c == pytest.approx(2.5, rel=1e-12)
    assert r2 == pytest.approx(1.0)


def test_envelope_rate_is_lyapunovs():
    assert simulate.envelope_rate is lyapunov.envelope_rate


def test_envelope_rate_dispatch():
    sector = SectorBounds(0.1, 1.0)
    assert envelope_rate(Sgd(1.0), sector) == pytest.approx(1.0 - 0.81)
    # tuned sector's rho = (2 sqrt(kappa) - 1)/kappa at kappa = 10
    assert envelope_rate(NagSmoothQuadratic(sector), sector) == pytest.approx(
        (2.0 * np.sqrt(10.0) - 1.0) / 10.0)
    assert envelope_rate(NagStandard(0.01, 0.9), sector) > 0.0
    # real roots of z^2 - (1.5 - 0.1 lam) z + 0.5, slowest at lam = 0.1
    assert envelope_rate(HeavyBall(0.1, 0.5), sector) == pytest.approx(
        1.0 - (0.745 + np.sqrt(0.745**2 - 0.5)) ** 2, rel=1e-12)
    # tuned for [1, 10] but run on data in [0.1, 1]: the rate is over the
    # data sector, not the tuned sector's 0.532456
    tuned = NagSmoothQuadratic(SectorBounds(1.0, 10.0))
    assert envelope_rate(tuned, sector) == pytest.approx(0.041694, abs=1e-6)


def test_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        ExperimentConfig(horizon=0)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(subset_sizes=())

    # vs-t rejects a checkpoint past the horizon before any step runs.
    def no_stepping(*args):
        raise AssertionError("stepped despite a checkpoint past the horizon")

    monkeypatch.setattr(simulate, "_lockstep", no_stepping)
    with pytest.raises(ValueError, match="checkpoints must not exceed the horizon"):
        stability_vs_t(synthetic_dataset(30, 4, seed=0),
                       ExperimentConfig(checkpoints=(10, 50, 4000), horizon=2000))
    with pytest.raises(ValueError, match="checkpoints must be >= 1"):
        stability_vs_t(synthetic_dataset(30, 4, seed=0), ExperimentConfig(checkpoints=(0, 10, 50)))
    # ... and an optimizer that does not contract over the data sector.
    with pytest.raises(ValueError, match="optimizer does not contract over the data sector"):
        stability_vs_t(synthetic_dataset(30, 4, seed=0), ExperimentConfig(optimizer=Sgd(eta=100)))
    with pytest.raises(ValueError):
        ExperimentConfig(neighbor_mode="clone")
    with pytest.raises(ValueError, match="probes must be >= 0, got -3"):
        ExperimentConfig(probes=-3)
    assert ExperimentConfig(probes=0).probes == 0
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
        ExperimentConfig(master_seed=-1)


def test_vs_n_small_smoke():
    base = synthetic_dataset(120, 6, seed=4)
    config = ExperimentConfig(
        optimizer=Sgd(eta=0.05),
        horizon=100,
        trials=3,
        subset_sizes=(20, 30, 40),
        checkpoints=(100,),
        probes=4,
        master_seed=99,
    )
    res = stability_vs_n(base, config)
    assert res.sizes == (20, 30, 40)
    assert res.trial_param_diff.shape == (3, 3)
    assert res.trial_loss_gap.shape == (3, 3)
    assert np.all(res.mean_param_diff > 0.0)
    assert res.fit is not None and np.isfinite(res.fit.slope)
    # deterministic under the seed-role scheme
    again = stability_vs_n(base, config)
    np.testing.assert_array_equal(res.trial_param_diff, again.trial_param_diff)


def test_vs_t_small_smoke():
    base = synthetic_dataset(120, 6, seed=4)
    config = ExperimentConfig(
        optimizer=NagStandard(eta=0.01, mu=0.9),
        horizon=200,
        trials=2,
        subset_sizes=(30,),
        checkpoints=(10, 50, 150),
        probes=0,
        master_seed=7,
    )
    res = stability_vs_t(base, config)
    assert res.size == 30
    assert res.checkpoints == (10, 50, 150)
    assert res.mean_curve.shape == (3,)
    assert 0.0 < res.rho < 1.0
    assert res.t_half > 0.0
    assert set(res.fit_region) <= {10, 50, 150}
    assert np.isfinite(res.loglog.slope)
    assert np.isfinite(res.sat_coeff)


def test_vs_t_fits_each_distinct_checkpoint_once():
    base = synthetic_dataset(120, 6, seed=4)
    config = ExperimentConfig(
        optimizer=NagStandard(eta=0.01, mu=0.9),
        horizon=200,
        trials=2,
        subset_sizes=(30,),
        checkpoints=(10, 50, 150),
        probes=0,
        master_seed=7,
    )
    res = stability_vs_t(base, config)
    again = stability_vs_t(base, replace(config, checkpoints=(10, 50, 10, 150, 50)))
    assert again.checkpoints == res.checkpoints == (10, 50, 150)
    assert again.fit_region == res.fit_region
    np.testing.assert_array_equal(again.mean_curve, res.mean_curve)
    assert again.loglog == res.loglog
    assert (again.sat_coeff, again.sat_r2) == (res.sat_coeff, res.sat_r2)


def test_vs_t_skips_zero_gap_checkpoints(monkeypatch):
    # Until some trial draws the replaced index the coupled runs agree
    # exactly, so a mean gap of 0 is a legitimate outcome; the fits must
    # leave such checkpoints out instead of taking log(0).
    base = synthetic_dataset(120, 6, seed=4)
    config = ExperimentConfig(
        optimizer=NagStandard(eta=0.01, mu=0.9),
        horizon=200,
        trials=2,
        subset_sizes=(30,),
        checkpoints=(10, 50, 100, 150),
        probes=0,
        master_seed=7,
    )
    real = simulate._lockstep

    def gaps_zeroed_until(step):
        def zeroed(base, sizes, config, steps, probes, **kwargs):
            out = real(base, sizes, config, steps, probes, **kwargs)
            out[0][..., np.asarray(steps) <= step] = 0.0
            return out

        return zeroed

    monkeypatch.setattr(simulate, "_lockstep", gaps_zeroed_until(10))
    res = stability_vs_t(base, config)
    assert res.mean_curve[0] == 0.0
    assert res.fit_region == (50, 100, 150)
    assert np.isfinite(res.loglog.slope) and np.isfinite(res.sat_coeff)
    monkeypatch.setattr(simulate, "_lockstep", gaps_zeroed_until(50))
    with pytest.raises(ValueError, match="positive mean gap"):
        stability_vs_t(base, config)


def test_frozen_experiment_numbers():
    # Full-protocol regression pin: the default config on the standard
    # synthetic base must reproduce these figures exactly (same seeds,
    # same arithmetic order).  Trimmed to two sizes and two trials to
    # keep runtime modest; the seed roles make each (size, trial) cell
    # independent of the others, so the pins stay valid under trimming.
    base = synthetic_dataset(600, 64, separation=1.0, seed=23)
    config = ExperimentConfig(trials=2, subset_sizes=(50, 100), checkpoints=(10, 50))
    res = stability_vs_n(base, config)
    assert res.trial_param_diff[0, 0] == pytest.approx(0.5195494746399913, rel=1e-12)
    assert res.trial_param_diff[0, 1] == pytest.approx(0.467942279599163, rel=1e-12)
    assert res.trial_param_diff[1, 0] == pytest.approx(0.449784699732228, rel=1e-12)


def test_vs_n_below_three_sizes_has_no_fit():
    base = synthetic_dataset(30, 4, seed=0)
    config = ExperimentConfig(
        optimizer=Sgd(eta=0.05),
        horizon=20,
        trials=1,
        subset_sizes=(10,),
        checkpoints=(),
        probes=0,
    )
    res = stability_vs_n(base, config)
    assert res.sizes == (10,)
    assert res.mean_param_diff.shape == (1,)
    assert res.fit is None
    assert res.no_fit == "need at least 3 subset sizes"
    two = ExperimentConfig(
        optimizer=Sgd(eta=0.05),
        horizon=20,
        trials=1,
        subset_sizes=(10, 20),
        checkpoints=(),
        probes=0,
    )
    res = stability_vs_n(base, two)
    assert res.fit is None
    assert res.no_fit == "need at least 3 subset sizes"


def test_vs_n_zero_mean_gap_has_no_fit():
    # At 50 steps no trial of sizes 100 and 200 draws its replaced index,
    # so their mean gap is exactly 0 and has no logarithm.
    base = synthetic_dataset(600, 64, separation=1.0, seed=23)
    res = stability_vs_n(base, ExperimentConfig(trials=2, horizon=50, checkpoints=(10,)))
    assert res.sizes == (50, 100, 200, 400)
    assert list(res.mean_param_diff > 0.0) == [True, False, False, True]
    assert res.fit is None
    assert res.no_fit == "a mean gap is 0"


def test_vs_n_infinite_mean_gap_has_no_fit():
    # At eta = 1e4 every gap overflows to +inf by step 200 (to NaN later);
    # +inf passes a "> 0" test but has no finite logarithm.
    base = synthetic_dataset(60, 5, seed=1)
    config = ExperimentConfig(optimizer=Sgd(eta=1e4), horizon=200, trials=2,
                              subset_sizes=(10, 20, 30), checkpoints=(), probes=0)
    res = stability_vs_n(base, config)
    assert list(res.mean_param_diff) == [np.inf] * 3
    assert res.fit is None
    assert res.no_fit == "a mean gap is not finite: the run diverged"


def test_vs_n_diverged_run_raises_no_numpy_warning():
    # The overflow inside the lockstep is reported by the gaps and by
    # no_fit, not also by numpy warnings on stderr.
    base = synthetic_dataset(600, 64, separation=1.0, seed=23)
    config = ExperimentConfig(optimizer=Sgd(eta=1e4), horizon=170)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = stability_vs_n(base, config)
    assert not np.isfinite(res.mean_param_diff).any()
    assert res.no_fit == "a mean gap is not finite: the run diverged"


def test_fitted_vs_n_has_no_no_fit_reason():
    base = synthetic_dataset(600, 64, separation=1.0, seed=23)
    res = stability_vs_n(base, ExperimentConfig(trials=3, subset_sizes=(50, 100, 200)))
    assert res.fit is not None and res.no_fit is None


def test_coupled_steps_count_what_each_driver_runs():
    # vs-n runs each distinct size to the horizon and vs-t its one size to
    # its last checkpoint, the counts `simulate` printed before the results
    # carried them: trials * horizon * sizes and trials * max(checkpoints).
    base = synthetic_dataset(600, 64, separation=1.0, seed=23)
    config = ExperimentConfig(trials=3, subset_sizes=(50, 50, 100),
                              checkpoints=(250, 10, 50, 1250, 50))
    vs_n = stability_vs_n(base, config)
    assert vs_n.coupled_steps == config.trials * config.horizon * len(vs_n.sizes) == 12_000
    vs_t = stability_vs_t(base, config)
    assert vs_t.coupled_steps == config.trials * max(vs_t.checkpoints) == 3_750


def test_vs_n_counts_a_repeated_size_once():
    # A repeated size reruns the same seed roles, so it adds no cell.
    base = synthetic_dataset(120, 6, seed=4)
    config = ExperimentConfig(optimizer=Sgd(eta=0.05), horizon=60, trials=2,
                              subset_sizes=(50, 100), checkpoints=(), probes=3)
    plain = stability_vs_n(base, config)
    for sizes in ((50, 50, 100), (50, 100, 50)):
        again = stability_vs_n(base, replace(config, subset_sizes=sizes))
        assert again.sizes == plain.sizes == (50, 100)
        for name in ("mean_param_diff", "trial_param_diff", "trial_loss_gap",
                     "trial_max_grad"):
            np.testing.assert_array_equal(getattr(again, name), getattr(plain, name))
        assert again.fit is None


def test_vs_t_estimates_no_gradient_bound(monkeypatch):
    # vs-t reads only the curvature sector of the data.
    calls = []
    real = data_module.gradient_bound
    monkeypatch.setattr(data_module, "gradient_bound",
                        lambda *args: calls.append(args) or real(*args))
    base = synthetic_dataset(120, 6, seed=4)
    config = ExperimentConfig(optimizer=NagStandard(eta=0.01, mu=0.9), horizon=200, trials=2,
                              subset_sizes=(30,), checkpoints=(10, 50, 150), probes=0)
    stability_vs_t(base, config)
    assert calls == []


def test_vs_n_ignores_checkpoints():
    # vs-n records only the horizon, so checkpoints past it are not an error
    # and do not change a single gap.
    base = synthetic_dataset(60, 5, seed=1)
    config = ExperimentConfig(optimizer=Sgd(eta=0.05), horizon=40, trials=2,
                              subset_sizes=(10, 20, 30), checkpoints=(), probes=3)
    plain = stability_vs_n(base, config)
    past = stability_vs_n(base, replace(config, checkpoints=(10, 500)))
    np.testing.assert_array_equal(past.trial_param_diff, plain.trial_param_diff)
    np.testing.assert_array_equal(past.trial_loss_gap, plain.trial_loss_gap)


def test_vs_t_needs_three_checkpoints():
    base = synthetic_dataset(30, 4, seed=0)
    config = ExperimentConfig(
        optimizer=Sgd(eta=0.05),
        horizon=20,
        trials=1,
        subset_sizes=(10,),
        checkpoints=(5, 10),
        probes=0,
    )
    with pytest.raises(ValueError, match="three checkpoints"):
        stability_vs_t(base, config)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_param_gap_is_symmetric_in_task_order(seed):
    # swapping the two tasks cannot change the gap sequence
    task, other = _tiny_tasks(seed=seed % 1000)
    a = coupled_run(task, other, 2, Sgd(0.1), 30, np.random.default_rng(seed))
    b = coupled_run(other, task, 2, Sgd(0.1), 30, np.random.default_rng(seed))
    np.testing.assert_allclose(a.param_diff, b.param_diff, atol=1e-12)


def _oracle_trial(base, n, trial, config):
    """One coupled trial run alone, the way the drivers once ran each.

    Same seed roles, subsample and make_neighbor; each arm is stepped by
    the optimizers' step functions on reg_logistic_grad.  Returns the
    gap after every step, the final probe-loss gap (None without
    probes) and the largest gradient norm of either arm.
    """
    m = config.master_seed

    def rng(*role):
        return np.random.default_rng(np.random.SeedSequence((m, n, trial, *role)))

    sub = subsample(base, n, rng(3)) if n < base.n else base
    j = int(rng().integers(0, n))
    nb = make_neighbor(sub, j, config.neighbor_mode, rng(1))
    if config.probes > 0:
        probe_rng = rng(4)
        records = [base.draw_record(probe_rng) for _ in range(config.probes)]
        px = np.array([r[0] for r in records])
        py = np.array([r[1] for r in records])
    idx = rng(2).integers(0, n, size=config.horizon)
    opt, lam = config.optimizer, config.lambda_reg
    states = [OptimizerState.zeros(base.dim), OptimizerState.zeros(base.dim)]
    diffs = np.zeros(config.horizon)
    max_grad = 0.0
    for t, i in enumerate(idx):
        for arm, data in enumerate((sub, nb)):
            seen = []

            def grad(w):
                seen.append(reg_logistic_grad(w, data.x[i], data.y[i], lam)[1])
                return seen[-1]

            state = states[arm]
            if opt.mu == 0.0:
                states[arm] = OptimizerState(w=state.w - opt.eta * grad(state.w), v=state.v)
            else:
                states[arm] = nag_step(state, grad, opt.eta, opt.mu, opt.nu)
            max_grad = max(max_grad, float(np.linalg.norm(seen[0])))
        diffs[t] = np.linalg.norm(states[0].w - states[1].w)
    gap = None
    if config.probes > 0:
        losses = [
            np.logaddexp(0.0, -(py * (px @ s.w))) + 0.5 * lam * float(np.dot(s.w, s.w))
            for s in states
        ]
        gap = float(np.abs(losses[0] - losses[1]).max())
    return diffs, gap, max_grad


def _csv_base(tmp_path, n=40, dim=4):
    rng = np.random.default_rng(8)
    rows = ["," .join([f"f{c}" for c in range(dim)] + ["label"])]
    for k in range(n):
        cells = [f"{v:.6f}" for v in rng.normal(size=dim)] + [str(k % 2)]
        rows.append(",".join(cells))
    path = tmp_path / "pool.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    base = ingest_csv(path)
    assert base.sampler is None  # neighbors and probes take bootstrap rows
    return base


# Both bases hold 40 records, so size 40 runs on the whole base.
SIZES, CHECKPOINTS = (10, 25, 40), (20, 40, 60, 80)


@pytest.mark.parametrize(
    "opt_name, mode, source, probes, sizes, checkpoints",
    [
        pytest.param("nag", "resample", "synthetic", 3, SIZES, CHECKPOINTS,
                     id="nag-resample-synthetic-3"),
        pytest.param("nag", "flip", "csv", 0, SIZES, CHECKPOINTS, id="nag-flip-csv-0"),
        pytest.param("sgd", "resample", "csv", 2, SIZES, CHECKPOINTS, id="sgd-resample-csv-2"),
        pytest.param("sgd", "flip", "synthetic", 0, SIZES, CHECKPOINTS,
                     id="sgd-flip-synthetic-0"),
        pytest.param("nag_sq", "resample", "synthetic", 0, SIZES, CHECKPOINTS,
                     id="nag_sq-resample-synthetic-0"),
        pytest.param("nag_sq", "flip", "csv", 4, SIZES, CHECKPOINTS, id="nag_sq-flip-csv-4"),
        pytest.param("heavyball", "resample", "synthetic", 2, SIZES, CHECKPOINTS,
                     id="heavyball-resample-synthetic-2"),
        pytest.param("nag", "resample", "csv", 2, (25, 10, 40), CHECKPOINTS,
                     id="nag-resample-csv-2-sizes-unsorted"),
        pytest.param("sgd", "resample", "synthetic", 3, SIZES, (60, 20, 80, 40),
                     id="sgd-resample-synthetic-3-checkpoints-unsorted"),
    ],
)
def test_lockstep_drivers_equal_per_trial_oracle(
    tmp_path, opt_name, mode, source, probes, sizes, checkpoints
):
    base = synthetic_dataset(40, 4, seed=2) if source == "synthetic" else _csv_base(tmp_path)
    assert base.n == 40
    lam = 0.01
    optimizer = {
        "nag": NagStandard(eta=0.05, mu=0.8),
        "sgd": Sgd(eta=0.1),
        "nag_sq": NagSmoothQuadratic(effective_sector(base, lam)),
        "heavyball": HeavyBall(eta=0.05, mu=0.8),
    }[opt_name]
    config = ExperimentConfig(
        optimizer=optimizer,
        lambda_reg=lam,
        horizon=80,
        trials=3,
        subset_sizes=sizes,
        checkpoints=checkpoints,
        neighbor_mode=mode,
        probes=probes,
        master_seed=31,
    )
    shape = (len(config.subset_sizes), config.trials)
    finals, gaps, grads = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    diffs = {}
    for a, n in enumerate(config.subset_sizes):
        for k in range(config.trials):
            diffs[n, k], gap, grads[a, k] = _oracle_trial(base, n, k, config)
            finals[a, k] = diffs[n, k][-1]
            if probes:
                gaps[a, k] = gap

    res = stability_vs_n(base, config)
    np.testing.assert_array_equal(res.trial_param_diff, finals)
    np.testing.assert_array_equal(res.trial_max_grad, grads)
    if probes:
        np.testing.assert_array_equal(res.trial_loss_gap, gaps)
    else:
        assert res.trial_loss_gap is None

    first = config.subset_sizes[0]
    vst = stability_vs_t(base, config)
    cps = np.asarray(config.checkpoints) - 1
    np.testing.assert_array_equal(
        vst.trial_curves, np.array([diffs[first, k][cps] for k in range(config.trials)])
    )

    def oracle_at(n, steps):
        return np.array([diffs[n, k][np.asarray(steps) - 1] for k in range(config.trials)])

    # and at every step, not only at the reported ones
    every = np.arange(1, config.horizon + 1)
    diffs_at, _, _ = simulate._lockstep(base, config.subset_sizes, config, every, 0)
    for n, runs in zip(config.subset_sizes, diffs_at):
        np.testing.assert_array_equal(runs, oracle_at(n, every))
    # one gap column per step it is given, never a full history
    steps = (20, 40, 80)
    diffs_at, _, _ = simulate._lockstep(base, config.subset_sizes, config, steps, 0)
    assert diffs_at.shape == (len(config.subset_sizes), config.trials, 3)
    for n, runs in zip(config.subset_sizes, diffs_at):
        np.testing.assert_array_equal(runs, oracle_at(n, steps))


@pytest.mark.parametrize("optimizer", [NagStandard(eta=0.05, mu=0.8), HeavyBall(eta=0.05, mu=0.8)],
                         ids=["nag", "heavyball"])
def test_lockstep_stops_at_its_last_step(optimizer):
    # With steps (20, 40) the runs stop after step 40 of an 80-step
    # horizon: the gaps, the probe-loss gaps (scored at step 40) and the
    # largest gradient norms are the oracle's on a 40-step horizon.
    # Without gradient-norm tracking (as vs-t runs) the gaps are the same.
    base = synthetic_dataset(40, 4, seed=2)
    config = ExperimentConfig(
        optimizer=optimizer, lambda_reg=0.01, horizon=80, trials=3, subset_sizes=(10, 40),
        probes=3, master_seed=31,
    )
    diffs, gaps, grads = simulate._lockstep(base, config.subset_sizes, config, (20, 40), 3)
    untracked = simulate._lockstep(base, config.subset_sizes, config, (20, 40), 3,
                                   grad_norms=False)
    np.testing.assert_array_equal(untracked[0], diffs)
    np.testing.assert_array_equal(untracked[1], gaps)
    assert untracked[2] is None
    short = replace(config, horizon=40)
    for a, n in enumerate(config.subset_sizes):
        for k in range(config.trials):
            oracle_diffs, gap, grad = _oracle_trial(base, n, k, short)
            np.testing.assert_array_equal(diffs[a, k], oracle_diffs[[19, 39]])
            assert gaps[a, k] == gap
            assert grads[a, k] == grad


def test_lockstep_wide_row_ids_equal_per_trial_oracle():
    # A base of 70,000 records puts table row ids past 65,535, so the
    # per-step row table needs uint32; the runs must still be the
    # oracle's at every step.
    base = synthetic_dataset(70_000, 2, seed=3)
    config = ExperimentConfig(
        optimizer=NagStandard(eta=0.05, mu=0.8), lambda_reg=0.01, horizon=12, trials=2,
        subset_sizes=(5, 9), probes=2, master_seed=31,
    )
    cells = [(n, k) for n in config.subset_sizes for k in range(config.trials)]
    table, _, step_rows = simulate._row_table(base, cells, config, config.horizon)
    assert table.shape[0] > 65_535 and step_rows.dtype == np.uint32
    res = stability_vs_n(base, config)
    every = np.arange(1, config.horizon + 1)
    diffs_at, _, _ = simulate._lockstep(base, config.subset_sizes, config, every, 0)
    for a, n in enumerate(config.subset_sizes):
        for k in range(config.trials):
            diffs, gap, grad = _oracle_trial(base, n, k, config)
            np.testing.assert_array_equal(diffs_at[a, k], diffs)
            assert res.trial_param_diff[a, k] == diffs[-1]
            assert res.trial_loss_gap[a, k] == gap
            assert res.trial_max_grad[a, k] == grad


def test_vs_t_does_not_depend_on_the_horizon_past_its_last_checkpoint():
    base = synthetic_dataset(120, 6, seed=4)
    config = ExperimentConfig(
        optimizer=NagStandard(eta=0.01, mu=0.9), horizon=150, trials=3, subset_sizes=(30,),
        checkpoints=(50, 10, 150, 100), probes=0, master_seed=7,
    )
    at_last = stability_vs_t(base, config)
    longer = stability_vs_t(base, replace(config, horizon=450))
    for name in at_last.__dataclass_fields__:
        np.testing.assert_array_equal(getattr(longer, name), getattr(at_last, name))


@pytest.mark.parametrize("kind", ["logistic", "quadratic"])
def test_coupled_run_equals_step_functions(kind):
    # coupled_run's shared two-row rule against each arm stepped alone
    # through nag_step, or an sgd step written out, on the task's own grad
    sb = SectorBounds(0.25, 1.0)
    if kind == "logistic":
        task, other = _tiny_tasks(seed=3)
    else:
        task = random_sector_quadratics(10, 4, sb, np.random.default_rng(12))
        other = task.replaced(2, np.eye(4) * 0.5, np.ones(4))
    horizon = 40
    for opt in (NagStandard(0.05, 0.8), Sgd(0.1), HeavyBall(0.05, 0.8), NagSmoothQuadratic(sb)):
        trace = coupled_run(task, other, 2, opt, horizon, np.random.default_rng(4))
        idx = np.random.default_rng(4).integers(0, task.n_samples, size=horizon)
        states = [OptimizerState.zeros(task.dim), OptimizerState.zeros(task.dim)]
        for t, i in enumerate(idx):
            for arm, tk in enumerate((task, other)):
                state = states[arm]
                if opt.mu == 0.0:
                    states[arm] = OptimizerState(w=state.w - opt.eta * tk.grad(state.w, i),
                                                 v=state.v)
                else:
                    states[arm] = nag_step(state, lambda w: tk.grad(w, i), opt.eta, opt.mu,
                                           opt.nu)
            assert trace.param_diff[t] == np.linalg.norm(states[0].w - states[1].w)


class _Adam:
    """An optimizer type without a step rule."""


def test_unsupported_optimizer_raises_type_error():
    # An optimizer without a step rule is refused by name on every path
    # that steps it.
    spec = _Adam()
    with pytest.raises(TypeError, match="unsupported optimizer _Adam"):
        step_rule(spec)
    task, other = _tiny_tasks(seed=3)
    with pytest.raises(TypeError, match="unsupported optimizer _Adam"):
        coupled_run(task, other, 2, spec, 10, np.random.default_rng(0))
    config = ExperimentConfig(
        optimizer=spec, horizon=10, trials=1, subset_sizes=(10,), checkpoints=(), probes=0,
    )
    with pytest.raises(TypeError, match="unsupported optimizer _Adam"):
        stability_vs_n(synthetic_dataset(20, 3, seed=0), config)


def test_lockstep_rejects_oversized_subset():
    base = synthetic_dataset(20, 3, seed=0)
    config = ExperimentConfig(
        optimizer=Sgd(eta=0.05), horizon=10, trials=1, subset_sizes=(21,),
        checkpoints=(), probes=0,
    )
    with pytest.raises(ValueError, match="subset size"):
        stability_vs_n(base, config)


def test_experiments_do_not_import_numpy_ma():
    # np.unique's first call imports numpy.ma, about 5 ms of start-up.
    code = (
        "import sys\n"
        "from stabcert.data import synthetic_dataset\n"
        "from stabcert.optimizers import Sgd\n"
        "from stabcert.simulate import ExperimentConfig, stability_vs_n, stability_vs_t\n"
        "base = synthetic_dataset(60, 4, seed=1)\n"
        "config = ExperimentConfig(optimizer=Sgd(eta=0.1), horizon=60, trials=2,\n"
        "                          subset_sizes=(20, 30, 40), checkpoints=(20, 40, 60))\n"
        "stability_vs_n(base, config)\n"
        "stability_vs_t(base, config)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
