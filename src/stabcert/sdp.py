"""Barrier interior-point decision of the certificate LMI, with a dual witness.

The decision vector v = (vech P, lambda, tau1, tau2, tau3) enters the
certificate LMI (see iqc) affinely, LMI(v) = sum_k v_k L_k, with the
basis L_k built once per problem.  A solve maximizes the margin t in

    -LMI(v) >= t I,  P >= t I,  tau >= 0,  lambda >= t,  trace P + sum tau = 1

(lambda held at 0 in rate-only searches).  The LMI is homogeneous, so
t* > 0 exactly when a certificate exists; normalizing the multipliers
with P keeps them bounded (at gamma = beta the LMI improves along a
multiplier direction forever).  The constraints are one block-diagonal
LMI F(x) >= 0 in x = (v, t), solved by the primal barrier method of
Vandenberghe & Boyd (SIAM Review 1996): Newton steps on
-t/mu - log det F(x), the normalization a KKT equality, mu / 10 per
stage.  It works in the units u/beta (sector [gamma/beta, 1]), so
verdicts do not depend on the units of the sector.  The last dual point
(blocks Z1, Z2 of mu F(x)^-1, and nu for the normalization) bounds t*
by weak duality; a negative bound proves infeasibility.

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

from .iqc import IqcCertificate, sector_lift, sector_multipliers, sector_product_multiplier
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

# Stages end once dim(F) * mu, a central point's duality gap, is below
# _GAP_TOL; centering ends at a squared Newton decrement below _CENTERED.
_GAP_TOL = 1e-7
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
        ValueError: naming the first field below 1.
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


@dataclass(frozen=True)
class RestartTrace:
    """The Newton log of one solve: steps taken, -t at the end, final duality gap."""

    iterations: int
    best_violation: float
    gap: float


@dataclass(frozen=True)
class InfeasibilityWitness:
    """A dual point in the solver's units u/beta: z1 pairs with -LMI(v) >= t I,
    z2 with P >= t I and nu with trace P + sum tau = 1, for the LMI at rho
    and with_lam."""

    z1: np.ndarray
    z2: np.ndarray
    nu: float
    rho: float
    with_lam: bool


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
    it lies inside the searched range.
    """

    status: str
    rho_star: float | None
    certificate: IqcCertificate | None
    tested: list = field(default_factory=list)
    reference: float | None = None


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

    A decision vector v is (vech P, lam, tau1, tau2, tau3), with vech in
    row-major upper-triangle order.  Row k of `basis` is vec(L_k), so
    LMI(v) = (v @ basis) reshaped to (d, d).  Row k of `p_basis` is the
    k-th symmetric unit matrix E_k of P, and P itself is the gather
    v[p_index].  The barrier works on x = (v[free], t), and F(x) =
    sum_k x_k blocks[k] is the block diagonal of -LMI(v) - t I, P - t I,
    the three taus and, with the lambda term, lam - t.  Row k of `flat`
    is vec(blocks[k]), so F(x) = (x @ flat) reshaped to (dim, dim).
    """

    def __init__(self, system: LureSystem, bounds: SectorBounds, rho: float, with_lam: bool):
        self.rho = rho
        self.with_lam = with_lam
        self.s = s = system.state_dim
        f = np.hstack([system.a, system.b])
        self.d = d = f.shape[1]
        self.vech = np.triu_indices(s)
        self.n_p = n_p = self.vech[0].size
        # 1 where v holds a diagonal entry of P, so v . trace_mask = trace(P).
        self.trace_mask = np.zeros(n_p + 4)
        self.trace_mask[np.flatnonzero(self.vech[0] == self.vech[1])] = 1.0
        units = np.zeros((n_p, s, s))
        units[np.arange(n_p), self.vech[0], self.vech[1]] = 1.0
        units[np.arange(n_p), self.vech[1], self.vech[0]] = 1.0
        p_terms = f.T @ units @ f
        p_terms[:, :s, :s] -= (1.0 - rho) * units
        lam_term = np.zeros((d, d))
        lam_term[:s, :s] = np.eye(s)
        j = sector_lift(system)
        pis = (*sector_multipliers(bounds), sector_product_multiplier(bounds))
        terms = [*p_terms, lam_term, *(j.T @ pi @ j for pi in pis)]
        self.basis = np.array(terms).reshape(len(terms), d * d)
        self.p_basis = units.reshape(n_p, s * s)
        self.p_index = np.zeros((s, s), dtype=int)
        self.p_index[self.vech] = self.p_index[self.vech[::-1]] = np.arange(n_p)

        self.free = np.flatnonzero(np.r_[np.ones(n_p), with_lam, np.ones(3)])
        n = self.free.size + 1
        self.dim = big = d + s + 3 + with_lam
        blocks = np.zeros((n, big, big))
        blocks[:-1, :d, :d] = -self.basis[self.free].reshape(-1, d, d)
        blocks[:n_p, d : d + s, d : d + s] = units
        diag = np.arange(d + s, big)
        blocks[n - 4 + np.arange(3), diag[:3], diag[:3]] = 1.0
        if with_lam:
            blocks[[n_p, -1], diag[3], diag[3]] = 1.0, -1.0
        blocks[-1, np.arange(d + s), np.arange(d + s)] = -1.0
        self.blocks = blocks
        self.flat = blocks.reshape(n, big * big)
        self.eq = np.r_[self.trace_mask[self.free], 0.0]
        self.eq[-4:-1] = 1.0  # eq . x = trace P + sum tau

    def lmi(self, p: np.ndarray, lam: float, tau1: float, tau2: float,
            tau3: float) -> np.ndarray:
        v = np.concatenate([p[self.vech], [lam, tau1, tau2, tau3]])
        return (v @ self.basis).reshape(self.d, self.d)


def _unit_problem(system: LureSystem, bounds: SectorBounds, rho: float,
                  with_lam: bool) -> _Problem:
    """The problem in the units u/beta: with T = blkdiag(I, beta), T LMI T is
    the LMI of (A, beta B, C, beta D) on [gamma/beta, 1] at multipliers
    (beta tau1, beta tau2, beta^2 tau3), so both decide the same question."""
    beta = bounds.beta
    scaled = LureSystem(system.a, beta * system.b, system.c, beta * system.d)
    return _Problem(scaled, SectorBounds(bounds.gamma / beta, 1.0), rho, with_lam)


def _barrier(prob: _Problem, x: np.ndarray):
    """Eigenpairs of F(x), or None when x is not strictly feasible."""
    vals, vecs = np.linalg.eigh((x @ prob.flat).reshape(prob.dim, prob.dim))
    return (vals, vecs) if vals[0] > 0.0 else None


def _newton_step(prob: _Problem, vals: np.ndarray, vecs: np.ndarray, mu: float,
                 kkt: np.ndarray, rhs: np.ndarray):
    """The Newton step of -t/mu - log det F(x) under the normalization.

    F(x) = vecs diag(vals) vecs^T.  kkt and rhs are the caller's (n+1)-square
    and (n+1) work arrays, zero in their last entry; the KKT matrix is
    scaled to a unit Hessian diagonal.

    Returns:
        (dx, dec, inv): the step, the squared Newton decrement and F(x)^-1.
    """
    n = rhs.size - 1
    inv = (vecs / vals) @ vecs.T
    w = inv @ prob.blocks
    grad = np.einsum("kaa->k", w)  # minus the gradient of the barrier objective
    grad[-1] += 1.0 / mu
    hess = np.einsum("kab,lba->kl", w, w)
    scale = 1.0 / np.sqrt(hess.diagonal())
    kkt[:n, :n] = hess * (scale[:, None] * scale)
    kkt[:n, n] = kkt[n, :n] = prob.eq * scale
    rhs[:n] = grad * scale
    dx = scale * np.linalg.solve(kkt, rhs)[:n]
    return dx, grad @ dx, inv


def _maximize_margin(prob: _Problem, max_steps: int):
    """Follow the central path of max t s.t. F(x) >= 0, trace P + sum tau = 1.

    Stages center by damped Newton steps of 1/(1 + lambda), lambda the
    Newton decrement, which stay inside the Dikin ellipsoid of the
    self-concordant barrier; below lambda = 1/4 full steps converge
    quadratically.  The KKT matrix is scaled to a unit Hessian diagonal.
    A stage that cannot center (step cap, rounding) ends the path at the
    last centered stage.

    Returns:
        (x, mu, z, steps): that iterate, its mu, the dual point of its
        last Newton step, and the Newton steps taken in all.
    """
    n, dim = prob.flat.shape[0], prob.dim
    x = prob.eq / (prob.s + 3)  # P = I and tau = 1, scaled onto the normalization
    x[-1] = np.linalg.eigvalsh((x @ prob.flat).reshape(dim, dim))[0] - 1.0
    vals, vecs = _barrier(prob, x)
    kkt, rhs = np.zeros((n + 1, n + 1)), np.zeros(n + 1)
    mu, steps, centered = 1.0, 0, None
    while True:
        while True:
            dx, dec, inv = _newton_step(prob, vals, vecs, mu, kkt, rhs)
            if dec <= _CENTERED or steps >= max_steps:
                break
            step = 1.0 if dec < 0.0625 else 1.0 / (1.0 + np.sqrt(dec))
            while (eig := _barrier(prob, x + step * dx)) is None and step > 1e-12:
                step *= 0.5  # only rounding leaves the ellipsoid
            if eig is None:
                break
            x, (vals, vecs) = x + step * dx, eig
            steps += 1
        # mu (F^-1 - F^-1 dF F^-1) meets the Newton system's stationarity
        # equations exactly, and is positive definite for a decrement below 1.
        z = mu * (inv - inv @ (dx @ prob.flat).reshape(dim, dim) @ inv)
        here = (x, mu, 0.5 * (z + z.T))
        if not abs(dec) <= _CENTERED:
            return (*(centered or here), steps)
        if prob.dim * mu <= _GAP_TOL:
            return (*here, steps)
        centered = here
        mu *= 0.1


def _dual_bound(prob: _Problem, z1: np.ndarray, z2: np.ndarray, nu: float | None = None):
    """Weak-duality bound on t* from (Z1, Z2, nu); also nu and the tau slacks.

    For Z1, Z2 >= 0 and any v with trace P + sum tau = 1 and margin t >= 0,

        0 <= <Z1, -LMI(v) - t I> + <Z2, P - t I> + <Z1, L_lam> (lam - t)
           = nu + sum_k r_k v_k - sum_i tau_i (<Z1, L_tau_i> + nu) - t * scale,

    with r_k = <Z2, E_k> - <Z1, L_k> - nu [E_k diagonal] the residual of
    P's k-th stationarity equation and scale = tr Z1 + tr Z2 + <Z1, L_lam>.
    If every tau slack <Z1, L_tau_i> + nu is >= 0, then |P_ij| <= 1 gives
    t <= (nu + sum |r_k|) / scale.  nu defaults to the smallest diagonal
    <Z2, E_k> - <Z1, L_k>, which minimizes the bound for P up to 3x3.
    """
    pair = prob.basis @ z1.reshape(-1)
    stat = prob.p_basis @ z2.reshape(-1) - pair[: prob.n_p]
    diag = prob.trace_mask[: prob.n_p]
    nu = float(stat[diag == 1.0].min()) if nu is None else nu
    scale = np.trace(z1) + np.trace(z2) + (pair[prob.n_p] if prob.with_lam else 0.0)
    return float((nu + np.abs(stat - nu * diag).sum()) / scale), nu, pair[prob.n_p + 1 :] + nu


def _make_cert(bounds, prob, x, name, steps, opts) -> IqcCertificate:
    """The certificate of barrier point x, mapped back from the units u/beta.

    It is scaled by max(1, beta^2), so that its LMI and P clear -t and t
    in the caller's units as they do in the solver's.  Its lmi_max_eig
    and p_min_eig are nan until verify_certificate has measured them.
    """
    beta = bounds.beta
    v = np.zeros(prob.n_p + 4)
    v[prob.free] = x[:-1] * max(1.0, beta * beta)
    lam, tau1, tau2, tau3 = (float(c) for c in v[prob.n_p :] / [1.0, beta, beta, beta * beta])
    return IqcCertificate(
        optimizer=name, gamma=bounds.gamma, beta=beta, p=v[prob.p_index], lam=lam,
        tau1=tau1, tau2=tau2, rho=prob.rho, lmi_max_eig=np.nan, p_min_eig=np.nan,
        status=FEASIBLE, solver_seed=opts.seed, tau3=tau3, newton_steps=steps)


def solve_feasibility(
    system: LureSystem,
    bounds: SectorBounds,
    optimizer_name: str = "custom",
    rho: float = 0.0,
    with_lam: bool = True,
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
        rho: decay factor for rate-mode certificates (0 for plain).
        with_lam: include the lambda ||x||^2 coupling term (stability
            certificates); rate-only searches drop it.
        options: solver knobs, defaults to SolverOptions().
    """
    opts = options or SolverOptions()
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    prob = _unit_problem(system, bounds, rho, with_lam)
    x, mu, z, steps = _maximize_margin(prob, opts.max_iters)
    margin = float(x[-1])
    traces = [RestartTrace(steps, -margin, prob.dim * mu)]
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
    witness = InfeasibilityWitness(z1, z2, _dual_bound(prob, z1, z2)[1], rho, with_lam)
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
    clears _P_MARGIN, the multipliers are nonnegative, and lambda
    respects _LAMBDA_FLOOR (when the certificate carries one).  The
    result is truthy exactly when all conditions hold.  options is
    accepted for older callers and ignored.
    """
    lmi_top, p_bot = cert.recompute_eigs(system, bounds)
    lam_ok = cert.lam >= _LAMBDA_FLOOR or cert.lam == 0.0
    ok = (lmi_top <= -_LMI_MARGIN and p_bot >= _P_MARGIN and lam_ok
          and cert.tau1 >= 0.0 and cert.tau2 >= 0.0 and cert.tau3 >= 0.0)
    return CertificateCheck(bool(ok), lmi_top, p_bot)


def verify_infeasibility(
    witness: InfeasibilityWitness,
    system: LureSystem,
    bounds: SectorBounds,
) -> InfeasibilityCheck:
    """Independently recheck that a dual witness proves the LMI infeasible.

    Rebuilds the affine map in the units u/beta and tests that Z1 and Z2
    are positive semidefinite (by the package's own Jacobi eigensolver),
    that every tau slack is nonnegative, and that the bound of
    _dual_bound, residuals included, is <= -_WITNESS_MARGIN.
    Then no P > 0, tau >= 0, lambda >= 0 make the LMI negative
    semidefinite.  Truthy exactly when all conditions hold.
    """
    prob = _unit_problem(system, bounds, witness.rho, witness.with_lam)
    z1_bot = float(eigvals_sym(witness.z1)[0])
    z2_bot = float(eigvals_sym(witness.z2)[0])
    bound, _, tau_slacks = _dual_bound(prob, witness.z1, witness.z2, witness.nu)
    ok = (z1_bot >= 0.0 and z2_bot >= 0.0 and bool(np.all(tau_slacks >= 0.0))
          and bound <= -_WITNESS_MARGIN)
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
    of bounds, sets u = h * y for y = C x + D u, and evaluates

        (V(A x + B u) - (1 - rho) V(x) + lambda ||x||^2) / ||x||^2,

    which must be <= 0 (ok allows _SAMPLED_SLACK) for every in-sector
    response if the certificate is sound.  Returns the max over samples
    as max_violation, a margin comparable with t*: for z = (x, u) the
    decrement is z^T LMI z minus the nonnegative sector terms, and
    ||z||^2 >= ||x||^2, so it is at most lmi_max_eig when that is
    negative.  Passing bounds wider than the certificate's sector
    should, and does, break valid certificates.
    """
    if system.input_dim != 1:
        raise ValueError("sampling check implemented for scalar input channels")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, system.state_dim))
    h = rng.uniform(bounds.gamma, bounds.beta, size=samples)
    d = float(system.d[0, 0])
    denom = 1.0 - h * d
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("feedthrough makes the feedback loop singular")
    # One sample per column: every product below has two operands.
    xt = x.T
    u = h * (system.c[0] @ xt) / denom
    xt_next = system.a @ xt + system.b * u
    v_next = np.einsum("ij,ij->j", cert.p @ xt_next, xt_next)
    v_now = np.einsum("ij,ij->j", cert.p @ xt, xt)
    sq = np.einsum("ij,ij->j", xt, xt)
    vals = (v_next - (1.0 - cert.rho) * v_now + cert.lam * sq) / sq
    worst = float(vals.max())
    return {"ok": bool(worst <= _SAMPLED_SLACK), "max_violation": worst, "samples": samples}


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
    are rate-mode solves (no lambda coupling) and count only when
    Feasible.  If even the lowest probe is not certifiable the result is
    Infeasible-at-range.

    hi is the smallest non-Feasible probe, which can be Infeasible or
    Inconclusive.  Near rho* the margin shrinks like rho* - rho (about
    0.1 (rho* - rho) for heavyball on [0.1, 1]), and the barrier stops at
    a duality gap of _GAP_TOL = 1e-7, so probes within a few 1e-7 below
    the exact rate come back Inconclusive.  Below a tol of about 5e-7, hi
    can be such a probe, and rho* can then lie more than tol below the
    exact rate.

    Returns:
        RateResult with rho_star the largest rho found feasible (lo), its
        certificate, the list of (rho, status) probes and the reference.
        rho_star and the certificate are None when Infeasible-at-range.
    """
    if not (0.0 < rho_low < rho_high < 1.0):
        raise ValueError(f"need 0 < rho_low < rho_high < 1, got {rho_low}, {rho_high}")
    tested, seen = [], {}  # seen: each probed rho's result, solved once

    def probe(rho: float) -> FeasibilityResult:
        if rho not in seen:
            seen[rho] = solve_feasibility(system, bounds, optimizer_name, rho, False, options)
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
            return RateResult("Infeasible-at-range", None, None, tested, ref)
        lo, cert = rho_low, res.certificate
    if hi is None:
        if (res := probe(rho_high)).status == FEASIBLE:
            return RateResult("Certified", rho_high, res.certificate, tested, ref)
        hi = rho_high
    while hi - lo > tol:
        rho = 0.5 * (lo + hi)
        if (res := probe(rho)).status == FEASIBLE:
            lo, cert = rho, res.certificate
        else:
            hi = rho
    return RateResult("Certified", lo, cert, tested, ref)
