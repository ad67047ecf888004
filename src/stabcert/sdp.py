"""Barrier interior-point decision of the certificate LMI, with a dual witness.

The decision vector v = (vech P, tau) enters the certificate LMI at
lambda = 0 (see iqc) affinely, LMI0(v) = sum_k v_k L_k, with the basis
L_k built once per problem.  tau weighs the sector product form, the one
multiplier: for gamma < beta it implies strong monotonicity and
co-coercivity and is strictly positive somewhere, so by the strict
S-lemma multipliers for those two would decide no LMI differently (see
iqc).  Every solve, plain (rho = 0) or rate probe, maximizes t in

    -LMI0(v) >= t I,  P >= t I,  tau >= 0,  trace P + tau = 1.

The LMI is homogeneous, so t* > 0 exactly when a certificate exists;
normalizing the multiplier with P keeps it bounded (at gamma = beta the
LMI improves along the multiplier direction forever).

No variable lambda >= t is solved for, as it would decide nothing
differently: with it, t1* > 0 gives -LMI0 >= lambda blkdiag(I, 0) +
t1* I, so t* >= t1*; and t* > 0 makes lambda = t = t*/2 feasible.  A
plain certificate takes lambda = c t/2, c = max(1, beta^2): in the
caller's units -LMI0 >= c t blkdiag(I, beta^-2) (see _unit_problem),
so lmi_max_eig <= -t/2 for every beta.  Rate probes keep lambda = 0.

The constraints are one block-diagonal LMI F(x) >= 0 in x = (v, t),
solved by the primal barrier method of Vandenberghe & Boyd (SIAM Review
1996): Newton steps on -t/mu - log det F(x), the normalization a KKT
equality, mu / 10 per stage.  Each stage stops once full Newton steps
converge quadratically, and only the last, whose point is the result,
is centered tightly.  The Newton system (F(x)^-1, the Hessian, the KKT
matrix) is built once per iterate; a new stage, at the same x, only
re-solves it for its mu, and the dual point is formed once per solve,
for the stage returned.  It works in the units u/beta (sector
[gamma/beta, 1]), so verdicts do not depend on the units of the sector.
The last dual point (blocks Z1, Z2 of mu F(x)^-1, and nu for the
normalization) bounds t* by weak duality; a negative bound proves
infeasibility.

certify_rate finds the largest certifiable decay rate rho*, a
quasiconvex generalized-eigenvalue problem (Boyd, El Ghaoui, Feron &
Balakrishnan 1994).  It stops once a Feasible and a non-Feasible probe
lie within tol.  Its first two probes sit 0.4 tol above and below
lyapunov.one_step_rate, the exact supremum for 1x1 and 2x2 states on a
scalar channel, clamped into the searched range, and close the bracket
for every supported optimizer.
Where the reference is missing or wrong, bisection takes over, after
at most 3 + ceil(log2(range / tol)) probes in all.

LAPACK searches and Jacobi trusts.  Statuses: Feasible (the candidate
passed verify_certificate and the sector sampling check), Infeasible
(the dual witness passed verify_infeasibility), Inconclusive (neither,
as when t* lies within the margins of zero).  The margins of the checks
are module constants, so no caller can loosen what a verdict means.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .iqc import IqcCertificate, assemble_lmi
from .linalg import eigvals_sym
from .lyapunov import one_step_rate
from .optimizers import LureSystem, SectorBounds

__all__ = [
    "SolverOptions", "RestartTrace", "InfeasibilityWitness", "FeasibilityResult", "RateResult",
    "CertificateCheck", "InfeasibilityCheck", "solve_feasibility", "verify_certificate",
    "verify_infeasibility", "s_lemma_cross_check", "certify_rate",
]

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
INCONCLUSIVE = "Inconclusive"
CERTIFIED = "Certified"
INFEASIBLE_AT_RANGE = "Infeasible-at-range"

# Stages end once dim(F) * mu, a central point's duality gap, is below
# _GAP_TOL.  A stage ends at a squared Newton decrement of at most
# _QUADRATIC, below which full Newton steps converge quadratically; the
# last, whose point is the result, centers on to _CENTERED.
_GAP_TOL = 1e-7
_QUADRATIC = 0.0625
_CENTERED = 1e-10

# The margins a verdict must clear, applied by verify_certificate,
# s_lemma_cross_check and verify_infeasibility.
_LMI_MARGIN = 1e-8
_P_MARGIN = 1e-8
_LAMBDA_FLOOR = 1e-6
_SAMPLED_SLACK = 1e-9
_WITNESS_MARGIN = 1e-8


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for solve_feasibility; the margins a verdict must clear are
    the module constants _LMI_MARGIN, _P_MARGIN, _LAMBDA_FLOOR,
    _SAMPLED_SLACK and _WITNESS_MARGIN, not options.

    max_iters: cap on the Newton steps of one solve.
    seed: seed of the sector sampling check, stored in the certificate.
    check_samples: sample count of that check, a class constant.
    restarts, patience: accepted for older callers and ignored.

    Raises:
        ValueError: naming the first field below 1, or a negative seed.
    """

    restarts: int = 16
    max_iters: int = 500
    patience: int = 2000
    seed: int = 0
    check_samples: ClassVar[int] = 10_000

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iters", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"SolverOptions.{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"SolverOptions.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RestartTrace:
    """The Newton log of one solve: steps taken, -t at the end, final duality
    gap, and why the path stopped.

    iterations counts the accepted Newton steps only.  Each barrier stage
    also solves one Newton system whose step it does not take: the one
    that shows the stage is centered.  So a solve makes iterations plus
    its stage count of Newton solves; an sgd rate probe at [0.1, 1] takes
    19 steps and solves 28 systems in 9 stages, of which 8 re-solve the
    previous stage's system for the new mu.

    stop is "centered" when the last stage reached its tolerance.  "step
    cap" (max_iters ran out) and "step halving" (rounding refused every
    trial point) end the path early, at the last centered stage: its
    margin is then that of a looser stage, not a near-zero t*.
    """

    iterations: int
    best_violation: float
    gap: float
    stop: str


@dataclass(frozen=True)
class InfeasibilityWitness:
    """A dual point in the solver's units u/beta: z1 pairs with -LMI0(v) >= t I
    and z2 with P >= t I, for the LMI at rho (_dual_bound derives nu)."""

    z1: np.ndarray
    z2: np.ndarray
    rho: float


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of one solve: best_violation is -t at the end, witness the dual
    point behind a non-positive margin (verified iff Infeasible), else None.

    sampled is the s_lemma_cross_check of the candidate behind a positive
    margin and witness_check the verify_infeasibility of the witness, each
    None when that check did not run.
    """

    status: str
    certificate: IqcCertificate | None
    best_violation: float
    traces: list = field(default_factory=list)
    witness: InfeasibilityWitness | None = None
    sampled: dict | None = None
    witness_check: InfeasibilityCheck | None = None


@dataclass(frozen=True)
class RateResult:
    """Outcome of the search for the largest certifiable rho.

    rho_star is the largest rho certified, None when the status is
    Infeasible-at-range.  reference is lyapunov.one_step_rate of the
    system (None where that does not apply); the search opens at it when
    it lies inside the searched range.  bracket_hi, the bracket's upper
    end, is the smallest non-Feasible probe above rho_star, or None.
    """

    status: str
    rho_star: float | None
    certificate: IqcCertificate | None
    tested: list = field(default_factory=list)
    reference: float | None = None
    bracket_hi: float | None = None


@dataclass(frozen=True)
class CertificateCheck:
    """Recheck verdict for one certificate; truthy iff it passed."""

    ok: bool
    lmi_max_eig: float
    p_min_eig: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class InfeasibilityCheck:
    """Recheck verdict for one witness, with its bound on t*; truthy iff it passed."""

    ok: bool
    z1_min_eig: float
    z2_min_eig: float
    bound: float

    def __bool__(self) -> bool:
        return self.ok


class _Problem:
    """The affine LMI map of one system/sector, built once.

    A decision vector v is (vech P, tau), with vech in row-major
    upper-triangle order.  Row k of `basis` is vec(L_k), with L_k
    iqc.assemble_lmi at the k-th unit decision vector and lambda 0 (one
    batched call), so LMI0(v) = (v @ basis) reshaped to (d, d).  Row k
    of `p_basis` is the k-th symmetric unit matrix E_k of P, and P
    itself is the gather v[p_index].  The barrier works on x = (v, t),
    and F(x) = sum_k x_k blocks[k] is the block diagonal of
    -LMI0(v) - t I, P - t I and tau.  Row k of `flat` is vec(blocks[k]),
    so F(x) = (x @ flat) reshaped to (dim, dim).
    """

    def __init__(self, system: LureSystem, bounds: SectorBounds, rho: float):
        self.rho = rho
        self.s = s = system.state_dim
        self.d = d = s + 1
        self.vech = np.triu_indices(s)
        self.n_p = n_p = self.vech[0].size
        # 1 where v holds a diagonal entry of P, so v[:n_p] . trace_mask = trace(P).
        self.trace_mask = (self.vech[0] == self.vech[1]).astype(float)
        self.p_index = np.zeros((s, s), dtype=int)
        self.p_index[self.vech] = self.p_index[self.vech[::-1]] = np.arange(n_p)
        unit = np.eye(n_p + 1)  # the unit decision vectors, one per row
        p_units = unit[:, self.p_index]  # their P; E_k in the first n_p rows
        tau = unit[:, n_p, None, None]
        self.basis = assemble_lmi(system, bounds, p_units, 0.0, tau, rho).reshape(n_p + 1, d * d)
        units = p_units[:n_p]
        self.p_basis = units.reshape(n_p, s * s)

        n = n_p + 2
        self.dim = big = d + s + 1
        blocks = np.zeros((n, big, big))
        blocks[:-1, :d, :d] = -self.basis.reshape(-1, d, d)
        blocks[:n_p, d : d + s, d : d + s] = units
        blocks[-2, d + s, d + s] = 1.0
        blocks[-1, np.arange(d + s), np.arange(d + s)] = -1.0
        self.blocks = blocks
        self.flat = blocks.reshape(n, big * big)
        self.eq = np.r_[self.trace_mask, 1.0, 0.0]  # eq . x = trace P + tau


def _unit_problem(system: LureSystem, bounds: SectorBounds, rho: float) -> _Problem:
    """The problem in the units u/beta: with T = blkdiag(I, beta), T LMI T is
    the LMI of (A, beta B, C) on [gamma/beta, 1] at the multiplier
    beta^2 tau, so both decide the same question."""
    beta = bounds.beta
    scaled = LureSystem(system.a, beta * system.b, system.c)
    return _Problem(scaled, SectorBounds(bounds.gamma / beta, 1.0), rho)


def _barrier(prob: _Problem, x: np.ndarray):
    """Eigenpairs of F(x), or None when x is not strictly feasible."""
    vals, vecs = np.linalg.eigh((x @ prob.flat).reshape(prob.dim, prob.dim))
    return (vals, vecs) if vals[0] > 0.0 else None


def _newton_system(prob: _Problem, vals: np.ndarray, vecs: np.ndarray, kkt: np.ndarray):
    """The part of the Newton system of -t/mu - log det F(x) that depends on x only.

    F(x) = vecs diag(vals) vecs^T.  kkt is the caller's (n+1)-square work
    array, zero in its last entry; it is filled with the KKT matrix of the
    normalization, scaled to a unit Hessian diagonal.

    Returns:
        (inv, trace, scale, kkt): F(x)^-1, minus the gradient of -log det F
        (trace(F^-1 F_k)), the diagonal scaling and the KKT matrix.
    """
    n = kkt.shape[0] - 1
    inv = (vecs / vals) @ vecs.T
    w = inv @ prob.blocks
    trace = np.einsum("kaa->k", w)
    hess = np.einsum("kab,lba->kl", w, w)
    scale = 1.0 / np.sqrt(hess.diagonal())
    kkt[:n, :n] = hess * (scale[:, None] * scale)
    kkt[:n, n] = kkt[n, :n] = prob.eq * scale
    return inv, trace, scale, kkt


def _newton_solve(system, mu: float, rhs: np.ndarray):
    """The Newton step at mu of a _newton_system, under the normalization.

    rhs is the caller's (n+1) work array, zero in its last entry.

    Returns:
        (dx, dec): the step and the squared Newton decrement.
    """
    _, trace, scale, kkt = system
    grad = trace.copy()  # minus the gradient of the barrier objective
    grad[-1] += 1.0 / mu
    rhs[: grad.size] = grad * scale
    dx = scale * np.linalg.solve(kkt, rhs)[: grad.size]
    return dx, grad @ dx


def _maximize_margin(prob: _Problem, max_steps: int):
    """Follow the central path of max t s.t. F(x) >= 0, trace P + tau = 1.

    Stages center by damped Newton steps of 1/(1 + lambda), lambda the
    Newton decrement, which stay inside the Dikin ellipsoid of the
    self-concordant barrier; below lambda = 1/4 (lambda^2 = _QUADRATIC)
    full steps converge quadratically.  Every stage but the last stops
    there, as only the last stage's point is returned; that one centers
    on to lambda^2 <= _CENTERED.  The Newton system is built once per
    iterate: a new stage keeps x and re-solves it for its mu.  A stage
    that cannot reach its tolerance ends the path at the last stage that
    did: "step cap" when max_steps ran out, "step halving" when rounding
    refused every trial point down to a step of 1e-12.

    Returns:
        (x, mu, z, steps, stop): that iterate, its mu, the dual point of
        its last Newton step, the Newton steps taken in all, and why the
        path ended ("centered", "step cap" or "step halving").
    """
    n, dim = prob.flat.shape[0], prob.dim
    x = prob.eq / (prob.s + 1)  # P = I and tau = 1, scaled onto the normalization
    x[-1] = np.linalg.eigvalsh((x @ prob.flat).reshape(dim, dim))[0] - 1.0
    kkt, rhs = np.zeros((n + 1, n + 1)), np.zeros(n + 1)
    system = _newton_system(prob, *_barrier(prob, x), kkt)
    mu, steps, centered = 1.0, 0, None
    while True:
        tol = _CENTERED if prob.dim * mu <= _GAP_TOL else _QUADRATIC
        while True:
            dx, dec = _newton_solve(system, mu, rhs)
            if dec <= tol or steps >= max_steps:
                break
            step = 1.0 if dec < _QUADRATIC else 1.0 / (1.0 + np.sqrt(dec))
            while (eig := _barrier(prob, x + step * dx)) is None and step > 1e-12:
                step *= 0.5  # only rounding leaves the ellipsoid
            if eig is None:
                break
            x, system = x + step * dx, _newton_system(prob, *eig, kkt)
            steps += 1
        here = (x, mu, system[0], dx)
        if not abs(dec) <= tol:
            stop = "step cap" if steps >= max_steps else "step halving"
            break
        centered = here
        if tol == _CENTERED:
            stop = "centered"
            break
        mu *= 0.1
    x, mu, inv, dx = centered or here
    # mu (F^-1 - F^-1 dF F^-1) meets the Newton system's stationarity
    # equations exactly, and is positive definite for a decrement below 1.
    z = mu * (inv - inv @ (dx @ prob.flat).reshape(dim, dim) @ inv)
    return x, mu, 0.5 * (z + z.T), steps, stop


def _dual_bound(prob: _Problem, z1: np.ndarray, z2: np.ndarray):
    """Weak-duality bound on t* from (Z1, Z2); also the tau slack.

    For Z1, Z2 >= 0 and any v with trace P + tau = 1 and margin t >= 0,

        0 <= <Z1, -LMI0(v) - t I> + <Z2, P - t I>
           = nu + sum_k r_k v_k - tau (<Z1, L_tau> + nu) - t * scale,

    with r_k = <Z2, E_k> - <Z1, L_k> - nu [E_k diagonal] the residual of
    P's k-th stationarity equation and scale = tr Z1 + tr Z2.
    If the tau slack <Z1, L_tau> + nu is >= 0, then |P_ij| <= 1 gives
    t <= (nu + sum |r_k|) / scale.  nu is the smallest diagonal
    <Z2, E_k> - <Z1, L_k>, which minimizes the bound for P up to 3x3.
    """
    pair = prob.basis @ z1.reshape(-1)
    stat = prob.p_basis @ z2.reshape(-1) - pair[: prob.n_p]
    diag = prob.trace_mask
    nu = float(stat[diag == 1.0].min())
    scale = np.trace(z1) + np.trace(z2)
    return float((nu + np.abs(stat - nu * diag).sum()) / scale), float(pair[-1] + nu)


def _make_cert(bounds, prob, x, name, steps, opts) -> IqcCertificate:
    """The certificate of barrier point x, mapped back from the units u/beta.

    It is scaled by c = max(1, beta^2), so that its LMI and P clear -t
    and t in the caller's units as they do in the solver's; a plain one
    takes lambda = c t/2.  Its lmi_max_eig and p_min_eig are nan until
    verify_certificate has measured them.

    Raises:
        ValueError: unless 2^-500 <= beta <= 2^500.  The mapping
            multiplies by beta^2 or 1/beta^2, at most 2^1000 there, which
            leaves the checks' sums and products 2^24 below the float
            maximum; beyond, the certificate overflows or divides by 0.
    """
    beta = bounds.beta
    if not 2.0**-500 <= beta <= 2.0**500:
        raise ValueError(f"cannot express a certificate for beta={beta:g} in floats: "
                         "it scales by beta^2, so beta must lie in [2^-500, 2^500]")
    v = x * max(1.0, beta * beta)
    lam = 0.5 * float(v[-1]) if prob.rho == 0.0 else 0.0
    return IqcCertificate(
        optimizer=name, gamma=bounds.gamma, beta=beta, p=v[prob.p_index], lam=lam,
        tau=float(v[-2]) / (beta * beta), rho=prob.rho, lmi_max_eig=np.nan, p_min_eig=np.nan,
        status=FEASIBLE, solver_seed=opts.seed, newton_steps=steps)


def solve_feasibility(
    system: LureSystem,
    bounds: SectorBounds,
    optimizer_name: str = "custom",
    rho: float = 0.0,
    options: SolverOptions | None = None,
) -> FeasibilityResult:
    """Decide the certificate LMI by maximizing its margin t.

    A positive margin becomes a Feasible result only after
    verify_certificate and the sector sampling cross-check both pass; a
    non-positive one becomes Infeasible only after its dual witness
    passes verify_infeasibility.

    Args:
        system: feedback form of the optimizer.
        bounds: gradient sector.
        optimizer_name: label stored in the certificate.
        rho: decay factor, 0 for a plain certificate (lambda half the
            margin) and > 0 for a rate-mode one (lambda = 0).
        options: solver knobs, defaults to SolverOptions().

    Raises:
        ValueError: on rho outside [0, 1), or for a positive margin whose
            certificate cannot be expressed in the sector's units (see
            _make_cert).
    """
    opts = options or SolverOptions()
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    prob = _unit_problem(system, bounds, rho)
    x, mu, z, steps, stop = _maximize_margin(prob, opts.max_iters)
    margin = float(x[-1])
    traces = [RestartTrace(steps, -margin, prob.dim * mu, stop)]
    if margin > 0.0:
        cert = _make_cert(bounds, prob, x, optimizer_name, steps, opts)
        report = verify_certificate(cert, system, bounds)
        cert = replace(cert, lmi_max_eig=report.lmi_max_eig, p_min_eig=report.p_min_eig)
        sampled = s_lemma_cross_check(cert, system, bounds, seed=opts.seed)
        status = FEASIBLE if report.ok and sampled["ok"] else INCONCLUSIVE
        return FeasibilityResult(status, cert if status == FEASIBLE else None, -margin, traces,
                                 sampled=sampled)
    d, s = prob.d, prob.s
    z1, z2 = z[:d, :d].copy(), z[d : d + s, d : d + s].copy()
    witness = InfeasibilityWitness(z1, z2, rho)
    check = verify_infeasibility(witness, system, bounds)
    return FeasibilityResult(INFEASIBLE if check.ok else INCONCLUSIVE, None, -margin, traces,
                             witness, witness_check=check)


def verify_certificate(
    cert: IqcCertificate,
    system: LureSystem,
    bounds: SectorBounds,
    options: SolverOptions | None = None,
) -> CertificateCheck:
    """Independently recheck a certificate's eigenvalue conditions.

    Rebuilds the LMI from the stored variables and tests, with the
    package's own eigensolver, that the LMI clears -_LMI_MARGIN, P
    clears _P_MARGIN, the multiplier tau is nonnegative, and lambda
    respects _LAMBDA_FLOOR (when the certificate carries one).  The
    result is truthy exactly when all conditions hold.  options is
    accepted for older callers and ignored.
    """
    lmi_top, p_bot = cert.recompute_eigs(system, bounds)
    lam_ok = cert.lam >= _LAMBDA_FLOOR or cert.lam == 0.0
    ok = lmi_top <= -_LMI_MARGIN and p_bot >= _P_MARGIN and lam_ok and cert.tau >= 0.0
    return CertificateCheck(bool(ok), lmi_top, p_bot)


def verify_infeasibility(
    witness: InfeasibilityWitness,
    system: LureSystem,
    bounds: SectorBounds,
) -> InfeasibilityCheck:
    """Independently recheck that a dual witness proves the LMI infeasible.

    Rebuilds the affine map in the units u/beta and tests that Z1 and Z2
    are positive semidefinite (by the package's own Jacobi eigensolver),
    that the tau slack is nonnegative, and that the bound of
    _dual_bound, residuals included, is <= -_WITNESS_MARGIN.
    Then no P > 0, tau >= 0, lambda >= 0 make the LMI negative
    semidefinite.  Truthy exactly when all conditions hold.
    """
    prob = _unit_problem(system, bounds, witness.rho)
    z1_bot = float(eigvals_sym(witness.z1)[0])
    z2_bot = float(eigvals_sym(witness.z2)[0])
    bound, tau_slack = _dual_bound(prob, witness.z1, witness.z2)
    ok = z1_bot >= 0.0 and z2_bot >= 0.0 and tau_slack >= 0.0 and bound <= -_WITNESS_MARGIN
    return InfeasibilityCheck(bool(ok), z1_bot, z2_bot, bound)


def s_lemma_cross_check(
    cert: IqcCertificate,
    system: LureSystem,
    bounds: SectorBounds,
    samples: int = SolverOptions.check_samples,
    seed: int = 0,
) -> dict:
    """Sample sector responses and test the decrement the LMI promises.

    Draws random states x and curvatures h in the sector [gamma, beta]
    of bounds, sets u = h * y for y = C x, and evaluates

        (V(A x + B u) - (1 - rho) V(x) + lambda ||x||^2) / ||x||^2,

    which must be <= 0 (ok allows _SAMPLED_SLACK) for every in-sector
    response if the certificate is sound.  Returns the max over samples
    as max_violation, a margin comparable with t*: for z = (x, u) the
    decrement is z^T LMI z minus the nonnegative sector terms, and
    ||z||^2 >= ||x||^2, so it is at most lmi_max_eig when that is
    negative.  Passing bounds wider than the certificate's sector
    should, and does, break valid certificates.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, system.state_dim))
    h = rng.uniform(bounds.gamma, bounds.beta, size=samples)
    # One sample per column of a contiguous copy: every product below has
    # two operands.
    xt = np.ascontiguousarray(x.T)
    u = h * (system.c[0] @ xt)
    xt_next = system.a @ xt
    xt_next += system.b * u
    vals = np.einsum("ij,ij->j", cert.p @ xt_next, xt_next)
    vals -= (1.0 - cert.rho) * np.einsum("ij,ij->j", cert.p @ xt, xt)
    sq = np.einsum("ij,ij->j", xt, xt)
    vals += cert.lam * sq
    vals /= sq
    worst = float(vals.max())
    return {"ok": bool(worst <= _SAMPLED_SLACK), "max_violation": worst}


def certify_rate(
    system: LureSystem,
    bounds: SectorBounds,
    optimizer_name: str = "custom",
    rho_low: float = 1e-4,
    rho_high: float = 0.999,
    tol: float = 1e-4,
    options: SolverOptions | None = None,
) -> RateResult:
    """Search for the largest decay rate the LMI can certify.

    Feasibility is monotone in rho (any certificate at rho works for
    smaller rho), so the certifiable rates form an interval (0, rho*).
    The search keeps a bracket [lo, hi], lo Feasible and hi not.

    It opens at the reference ref = lyapunov.one_step_rate, the exact
    supremum for 1x1 and 2x2 states on a scalar channel.  It probes
    ref + 0.4 tol, then (unless that was Feasible) ref - 0.4 tol, each
    clamped into [rho_low, rho_high].  Not Feasible then Feasible closes
    the bracket in these 2 probes, as it does for every supported
    optimizer, also where ref lies within 0.4 tol of an end.  Any other
    outcome keeps the probed rhos as bracket ends, and rho_low or
    rho_high is probed only for an end still missing.  No rho is solved
    twice.  So a wrong reference costs probes, never correctness: rho*
    is always a verified Feasible probe.

    Then each probe bisects the bracket, until hi - lo <= tol.  With
    w = rho_high - rho_low, a search without a reference whose end probes
    bracket rho* takes exactly 2 + ceil(log2(w / tol)) probes (16 at the
    defaults); a wrong reference costs at most one more (17).  Probes
    are rate-mode solves (lambda = 0) and count only when Feasible.  If
    even the lowest probe is not certifiable the result is
    Infeasible-at-range.

    hi is the smallest non-Feasible probe, which can be Infeasible or
    Inconclusive.  Near rho* the margin shrinks like rho* - rho (about
    0.1 (rho* - rho) for heavyball on [0.1, 1]), and the barrier stops at
    a duality gap of _GAP_TOL = 1e-7, so probes within a few 1e-7 below
    the exact rate come back Inconclusive.  Below a tol of about 5e-7, hi
    can be such a probe, and rho* can then lie more than tol below the
    exact rate.

    At gamma = beta that happens at the default tol.  The sector product
    form is -(u - gamma y)^2 there, nowhere positive, and probes near
    the exact rate come back Inconclusive.  For HeavyBall(1, 0.3) on
    [1, 1] both reference probes (0.70004 and 0.69996) do, the search
    bisects for 16 probes, and rho* = 0.699789 lies 2.1e-4 below the
    exact 0.7 with tol 1e-4.  rho* is still a verified Feasible probe
    within tol of a non-Feasible one.

    Returns:
        RateResult with rho_star the largest rho found feasible (lo), its
        certificate, the list of (rho, status) probes, the reference and
        bracket_hi = hi.  RateResult says which of them can be None.
    """
    if not (0.0 < rho_low < rho_high < 1.0):
        raise ValueError(f"need 0 < rho_low < rho_high < 1, got {rho_low}, {rho_high}")
    tested, seen = [], {}  # seen: each probed rho's result, solved once

    def probe(rho: float) -> FeasibilityResult:
        if rho not in seen:
            seen[rho] = solve_feasibility(system, bounds, optimizer_name, rho, options)
            tested.append((rho, seen[rho].status))
        return seen[rho]

    ref, gap = one_step_rate(system, bounds), 0.4 * tol
    lo = hi = cert = None  # the bracket ends, and the certificate at lo
    if ref is not None:
        for rho in (min(max(ref + gap, rho_low), rho_high),
                    min(max(ref - gap, rho_low), rho_high)):
            if (res := probe(rho)).status == FEASIBLE:
                lo, cert = rho, res.certificate
                break
            hi = rho
    if lo is None:
        if (res := probe(rho_low)).status != FEASIBLE:
            return RateResult(INFEASIBLE_AT_RANGE, None, None, tested, ref)
        lo, cert = rho_low, res.certificate
    if hi is None:
        if (res := probe(rho_high)).status == FEASIBLE:
            return RateResult(CERTIFIED, rho_high, res.certificate, tested, ref)
        hi = rho_high
    while hi - lo > tol:
        rho = 0.5 * (lo + hi)
        if (res := probe(rho)).status == FEASIBLE:
            lo, cert = rho, res.certificate
        else:
            hi = rho
    return RateResult(CERTIFIED, lo, cert, tested, ref, hi)
