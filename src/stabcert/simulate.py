"""Coupled-run stability experiments.

Two copies of an optimizer run on datasets differing in one record,
sharing the random index sequence, so the trajectory gap is exactly the
algorithmic-stability quantity.  The experiment drivers below reproduce
the two report figures: mean final parameter gap versus subset size
(expected slope about -1/2 on log-log axes) and gap growth versus
iteration count against the saturating envelope sqrt(1 - (1-rho)^T).

Every random draw comes from a named seed role so runs are reproducible
record-for-record: for master seed M, subset size n, and trial k, the
spawned streams are (M, n, k) for the replaced-record index, (M, n, k, 1)
for the replacement draw, (M, n, k, 2) for the index sequence,
(M, n, k, 3) for the subset draw, and (M, n, k, 4) for held-out probes.

The drivers run all trials of all requested subset sizes in lockstep:
both arms of every trial are rows of one (2 runs, dim) state, with
runs = trials times the number of sizes, and each step makes one row
gather and one row-wise logistic gradient, written into buffers kept
for the whole run.  stability_vs_n steps its sizes together and
stability_vs_t its one size.  The gap is recorded only at the steps a
driver reads: stability_vs_n keeps the last step and stability_vs_t its
checkpoints, and the runs stop at the last step read, so
stability_vs_t stops at its last checkpoint, not at the horizon.  The
seed roles are unchanged, and every row is bitwise equal to its run
stepped alone.  The drivers and coupled_run step through
optimizers.step_rule, which steps the state in place, so each
optimizer's arithmetic is written once, in optimizers.

The table rows each step gathers are listed up front, one row of ids
per step in the narrowest unsigned integer type that holds them (uint16
at the default config).  Only stability_vs_n reports the largest
gradient norms, so only it pays for tracking them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import NEIGHBOR_MODES, Dataset, effective_sector, neighbor_record, subset_rows
from .losses import reg_logistic_grad_rows, reg_logistic_losses, row_dots
from .lyapunov import fixed_curvature_rate
from .optimizers import NagStandard, OptimizerState, TwoStep, lure_of, step_rule

__all__ = [
    "ExperimentConfig",
    "CoupledTrace",
    "FitResult",
    "VsNResult",
    "VsTResult",
    "coupled_run",
    "envelope_rate",
    "stability_vs_n",
    "stability_vs_t",
    "fit_loglog_slope",
    "saturating_fit",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol knobs for the coupled-run experiments."""

    optimizer: TwoStep = field(default_factory=lambda: NagStandard(eta=0.01, mu=0.9))
    lambda_reg: float = 1e-3
    horizon: int = 2000
    trials: int = 25
    subset_sizes: tuple = (50, 100, 200, 400)
    checkpoints: tuple = (10, 50, 250, 1250)
    neighbor_mode: str = "resample"
    probes: int = 32
    master_seed: int = 23

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.subset_sizes:
            raise ValueError("need at least one subset size")
        if self.neighbor_mode not in NEIGHBOR_MODES:
            raise ValueError(f"unknown neighbor mode {self.neighbor_mode!r}")
        if self.probes < 0:
            raise ValueError(f"probes must be >= 0, got {self.probes}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass
class CoupledTrace:
    """Record of one coupled run.

    param_diff[t] is ||w - w'|| after step t+1; hits marks steps where
    the replaced index was drawn; hit_snapshots holds (t, w, w') taken
    just before each hit step so jump bounds can be audited after the
    fact.
    """

    param_diff: np.ndarray
    hits: np.ndarray
    hit_snapshots: list


def coupled_run(
    task_a,
    task_b,
    j: int,
    optimizer: TwoStep,
    horizon: int,
    index_rng: np.random.Generator,
) -> CoupledTrace:
    """Run the optimizer on two tasks coupled through one index stream.

    task_a and task_b must hold the same number of samples and differ
    only at index j.  Both runs start from zero.  The index sequence is
    drawn up front from index_rng, one uniform index per step, and
    shared by the two runs.
    """
    n = task_a.n_samples
    if task_b.n_samples != n:
        raise ValueError("coupled tasks must have equal sample counts")
    if not (0 <= j < n):
        raise ValueError(f"replaced index must lie in [0, {n}), got {j}")
    step = step_rule(optimizer)
    idx = index_rng.integers(0, n, size=horizon)
    # Row 0 runs on task_a, row 1 on task_b.
    state = OptimizerState.zeros((2, task_a.dim))

    param_diff = np.zeros(horizon)
    snapshots: list = []

    def grad_at(p: np.ndarray) -> np.ndarray:
        # i is the step's index, set in the loop below.
        return np.stack((task_a.grad(p[0], i), task_b.grad(p[1], i)))

    for t in range(horizon):
        i = int(idx[t])
        if i == j:
            snapshots.append((t, state.w[0].copy(), state.w[1].copy()))
        state = step(state, grad_at)
        param_diff[t] = np.linalg.norm(state.w[0] - state.w[1])

    return CoupledTrace(param_diff=param_diff, hits=idx == j, hit_snapshots=snapshots)


def _seeded(config: ExperimentConfig, n: int, trial: int, *role: int) -> np.random.Generator:
    """The stream of one seed role of one trial (see the module docstring)."""
    return np.random.default_rng(np.random.SeedSequence((config.master_seed, n, trial, *role)))


def _trial_inputs(base: Dataset, n: int, trial: int, config: ExperimentConfig) -> tuple:
    """One trial's draws under the named seed-role scheme, probes aside:
    the subset's row ids into the base, the replaced index j, its new
    record (x_new, y_new) and the index stream."""
    if n < base.n:
        rows = subset_rows(base, n, _seeded(config, n, trial, 3))
        sub = Dataset(x=base.x[rows], y=base.y[rows], sampler=base.sampler)
    else:
        rows, sub = np.arange(base.n), base
    j = int(_seeded(config, n, trial).integers(0, n))
    x_new, y_new = neighbor_record(sub, j, config.neighbor_mode, _seeded(config, n, trial, 1))
    idx = _seeded(config, n, trial, 2).integers(0, n, size=config.horizon)
    return rows, j, x_new, y_new, idx


def _probe_set(base: Dataset, n: int, trial: int, config: ExperimentConfig, count: int) -> tuple:
    """One trial's count held-out probes, drawn from its own seed-role stream."""
    probe_rng = _seeded(config, n, trial, 4)
    records = [base.draw_record(probe_rng) for _ in range(count)]
    return np.array([r[0] for r in records]), np.array([r[1] for r in records])


def _row_table(base: Dataset, cells: list, config: ExperimentConfig, last: int) -> tuple:
    """The rows every step of the lockstep reads, and what they read from.

    Returns (table, labels, step_rows).  table holds the base rows, then
    run r's replaced record at row base.n + r; labels holds their labels.
    step_rows[t, r] is the table row that arm a of run r reads at step
    t + 1, and step_rows[t, runs + r] the one its arm b reads: the same
    row except at run r's replaced index j.  step_rows is in the
    narrowest unsigned type that holds every table row id and is filled
    one column at a time, so no (steps, runs) intp array is built.
    """
    runs = len(cells)
    table = np.empty((base.n + runs, base.dim))
    table[:base.n] = base.x
    labels = np.empty(base.n + runs)
    labels[:base.n] = base.y
    step_rows = np.empty((last, 2 * runs), dtype=np.min_scalar_type(base.n + runs - 1))
    for r, (n, k) in enumerate(cells):
        rows, j, x_new, y_new, idx = _trial_inputs(base, n, k, config)
        table[base.n + r], labels[base.n + r] = x_new, y_new
        idx = idx[:last]
        step_rows[:, r] = rows[idx]
        rows[j] = base.n + r
        step_rows[:, runs + r] = rows[idx]
    return table, labels, step_rows


@np.errstate(over="ignore", invalid="ignore")
def _lockstep(base: Dataset, sizes, config: ExperimentConfig, steps, probes: int, *,
              grad_norms: bool = True) -> tuple:
    """Run every trial of every subset size in sizes as one state.

    Trial k of sizes[a] is run r = a trials + k.  Row r of the
    (2 runs, dim) state is its arm a and row runs + r its arm b.  Each
    step gathers its rows from one table through a per-step row list
    built up front (_row_table); arm b reads run r's replaced record
    where arm a reads its subset's row j.

    steps lists the step numbers to record, ascending, without repeats
    and within [1, config.horizon]; the runs stop after step steps[-1].
    probes is the number of held-out records each trial scores at that
    step (0 for none).  Returns (param_diff, loss_gap, max_grad), indexed
    [a, k]: param_diff[a, k, c] is the run's ||w - w'|| after step
    steps[c], loss_gap[a, k] its worst probe-loss gap (None without
    probes) and max_grad[a, k] the largest gradient norm either arm took
    in steps 1 to steps[-1] (None when grad_norms is false, which skips
    the two row operations per step that track it; the gaps do not
    change).  The state steps in place, and each step's row gather and
    gradient reuse one buffer each.
    """
    sizes = [int(n) for n in sizes]
    for n in sizes:
        if not (1 <= n <= base.n):
            raise ValueError(f"subset size must lie in [1, {base.n}], got {n}")
    trials, lam, last = config.trials, config.lambda_reg, int(steps[-1])
    cells = [(n, k) for n in sizes for k in range(trials)]
    runs = len(cells)
    table, labels, step_rows = _row_table(base, cells, config, last)

    column = {int(s): c for c, s in enumerate(steps)}
    step = step_rule(config.optimizer)
    state = OptimizerState.zeros((2 * runs, base.dim))
    x, g = np.empty((2, 2 * runs, base.dim))
    gaps = np.empty((runs, len(steps)))
    # Per row, the largest squared gradient norm; the arms fold together
    # at the end.  sqrt is correctly rounded and monotone, so one sqrt of
    # the largest squared norm is bitwise the largest norm.
    grad_sq = np.zeros(2 * runs) if grad_norms else None

    def grad_at(p: np.ndarray) -> np.ndarray:
        # rows is the step's gather, set in the loop below.  Its ids lie
        # in the table, and mode="clip" lets take write x directly where
        # the default "raise" copies through a buffer.
        table.take(rows, axis=0, out=x, mode="clip")
        reg_logistic_grad_rows(p, x, labels[rows], lam, out=g)
        if grad_sq is not None:
            np.fmax(grad_sq, row_dots(g, g), out=grad_sq)
        return g

    for t in range(last):
        rows = step_rows[t]
        state = step(state, grad_at)
        c = column.get(t + 1)
        if c is not None:
            d = state.w[:runs] - state.w[runs:]
            gaps[:, c] = np.sqrt(row_dots(d, d))
    w, shape = state.w, (len(sizes), trials)

    loss_gap = None
    if probes > 0:
        loss_gap = np.empty(runs)
        for r, (n, k) in enumerate(cells):
            px, py = _probe_set(base, n, k, config, probes)
            loss_gap[r] = np.abs(
                reg_logistic_losses(w[r], px, py, lam)
                - reg_logistic_losses(w[runs + r], px, py, lam)
            ).max()
        loss_gap = loss_gap.reshape(shape)
    max_grad = None
    if grad_sq is not None:
        max_grad = np.sqrt(np.fmax(grad_sq[:runs], grad_sq[runs:])).reshape(shape)
    return gaps.reshape(*shape, len(steps)), loss_gap, max_grad


@dataclass(frozen=True)
class FitResult:
    """Least-squares line on log-log axes."""

    slope: float
    intercept: float
    r2: float


def _r2(values: np.ndarray, fitted: np.ndarray) -> float:
    """Coefficient of determination against the mean of values (1 when values are constant)."""
    resid = values - fitted
    total = values - values.mean()
    sst = float(total @ total)
    return 1.0 - float(resid @ resid) / sst if sst > 0.0 else 1.0


def fit_loglog_slope(xs: np.ndarray, ys: np.ndarray) -> FitResult:
    """Fit log(y) = slope * log(x) + intercept.

    Raises:
        ValueError: on fewer than 3 points or non-positive values.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 3:
        raise ValueError("need two equal-length 1-d arrays of length >= 3")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit needs strictly positive values")
    lx, ly = np.log(xs), np.log(ys)
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef = np.linalg.lstsq(design, ly, rcond=None)[0]
    return FitResult(slope=float(coef[0]), intercept=float(coef[1]), r2=_r2(ly, design @ coef))


def saturating_fit(steps: np.ndarray, values: np.ndarray, rho: float) -> tuple[float, float]:
    """Best coefficient for values ~ c * sqrt(1 - (1-rho)^steps).

    One-parameter least squares; returns (c, r2) with r2 measured
    against the mean of the supplied values.
    """
    steps = np.asarray(steps, dtype=float)
    values = np.asarray(values, dtype=float)
    env = np.sqrt(1.0 - (1.0 - rho) ** steps)
    c = float((values * env).sum() / (env * env).sum())
    return c, _r2(values, c * env)


def envelope_rate(optimizer: TwoStep, sector) -> float:
    """Squared-norm decay rate of the optimizer's feedback form over a sector.

    lyapunov.fixed_curvature_rate of lure_of(optimizer, sector): the
    slowest curvature of the data sector held fixed, not certified.
    """
    return fixed_curvature_rate(lure_of(optimizer, sector), sector)


@dataclass(frozen=True)
class VsNResult:
    """Stability versus sample count, with the log-log fit.

    fit is None unless at least 3 distinct subset sizes ran, each with a
    finite positive mean gap: 1 or 2 points give no slope, a gap of 0 no
    logarithm and a diverged run no line; no_fit names which.
    coupled_steps counts the coupled steps run: trials x horizon x sizes.
    """

    sizes: tuple
    mean_param_diff: np.ndarray
    trial_param_diff: np.ndarray
    trial_loss_gap: np.ndarray | None
    trial_max_grad: np.ndarray
    fit: FitResult | None
    no_fit: str | None
    coupled_steps: int


def stability_vs_n(base: Dataset, config: ExperimentConfig) -> VsNResult:
    """Mean final parameter gap for each subset size, plus slope fit.

    Each trial draws its own subset, replaced record, and index stream
    from the seed roles, so the per-size averages estimate stability of
    the subsampled learning problem rather than of one fixed subset.
    Runs the distinct sizes, in the order given: a repeated size would
    rerun the same seed roles, so it counts once.
    """
    sizes = tuple(dict.fromkeys(int(n) for n in config.subset_sizes))
    diffs, gaps, grads = _lockstep(base, sizes, config, (config.horizon,), config.probes)
    finals = diffs[..., 0]
    means = finals.mean(axis=1)
    no_fit = None
    if len(sizes) < 3:
        no_fit = "need at least 3 subset sizes"
    elif not np.all(np.isfinite(means)):
        no_fit = "a mean gap is not finite: the run diverged"
    elif not np.all(means > 0.0):
        no_fit = "a mean gap is 0"
    fit = fit_loglog_slope(np.asarray(sizes, dtype=float), means) if no_fit is None else None
    return VsNResult(
        sizes=sizes,
        mean_param_diff=means,
        trial_param_diff=finals,
        trial_loss_gap=gaps,
        trial_max_grad=grads,
        fit=fit,
        no_fit=no_fit,
        coupled_steps=len(sizes) * config.trials * config.horizon,
    )


@dataclass(frozen=True)
class VsTResult:
    """Gap growth against iteration count at the smallest subset size;
    coupled_steps counts trials x the last checkpoint, where the runs stop."""

    size: int
    checkpoints: tuple
    mean_curve: np.ndarray
    trial_curves: np.ndarray
    rho: float
    t_half: float
    fit_region: tuple
    loglog: FitResult
    sat_coeff: float
    sat_r2: float
    coupled_steps: int


def stability_vs_t(base: Dataset, config: ExperimentConfig) -> VsTResult:
    """Checkpointed gap curve with log-log and saturating-envelope fits.

    Runs the first configured subset size at the distinct checkpoints,
    in the order given, so each enters the fits once.  The envelope rate
    rho comes from the optimizer's own contraction over the effective
    curvature sector of the base data.  Fits use the checkpoints below the
    envelope half-life T_half (all of them when fewer than 3 qualify),
    keeping the growth fit away from the saturation plateau, and of
    those only the ones with a positive mean gap; fit_region lists them.

    Raises:
        ValueError: on a checkpoint below 1 or past the horizon, fewer
            than 3 distinct checkpoints, or fewer than 3 left to fit.
    """
    n = int(config.subset_sizes[0])
    cps = np.array(list(dict.fromkeys(int(c) for c in config.checkpoints)), dtype=int)
    if min(cps, default=1) < 1:
        raise ValueError(f"checkpoints must be >= 1, got {min(cps)}")
    if max(cps, default=0) > config.horizon:
        raise ValueError("checkpoints must not exceed the horizon")
    if cps.size < 3:
        raise ValueError("need at least three checkpoints for the growth fits, counting "
                         f"repeats once; got {cps.size} distinct")
    sector = effective_sector(base, config.lambda_reg)
    rho = envelope_rate(config.optimizer, sector)
    if not (0.0 < rho < 1.0):
        raise ValueError(f"optimizer does not contract over the data sector (rho={rho})")
    # VsTResult carries no loss gap, so no probes are drawn or scored.
    steps = np.sort(cps)  # cps is already distinct
    diffs = _lockstep(base, (n,), config, steps, 0, grad_norms=False)[0]
    curves = diffs[0][:, np.searchsorted(steps, cps)]
    mean_curve = curves.mean(axis=0)
    t_half = math.log(0.5) / math.log1p(-rho)
    window = cps <= t_half
    if window.sum() < 3:
        window[:] = True
    # A mean gap of exactly 0 (no trial has drawn the replaced index
    # yet) has no logarithm; such checkpoints stay out of both fits.
    mask = window & (mean_curve > 0.0)
    if mask.sum() < 3:
        raise ValueError(
            f"only {int(mask.sum())} fit-window checkpoints have a positive mean gap; "
            "the growth fits need 3")
    region = tuple(int(c) for c in cps[mask])
    loglog = fit_loglog_slope(cps[mask].astype(float), mean_curve[mask])
    coeff, sat_r2 = saturating_fit(cps[mask].astype(float), mean_curve[mask], rho)
    return VsTResult(
        size=n,
        checkpoints=tuple(int(c) for c in cps),
        mean_curve=mean_curve,
        trial_curves=curves,
        rho=rho,
        t_half=t_half,
        fit_region=region,
        loglog=loglog,
        sat_coeff=coeff,
        sat_r2=sat_r2,
        coupled_steps=config.trials * int(steps[-1]),
    )
