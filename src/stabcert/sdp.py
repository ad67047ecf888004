"""Projected-subgradient feasibility solver for the certificate LMI.

The decision vector v = (vech P, lambda, tau1, tau2, tau3) asks for a
strictly negative definite LMI with P positive definite, lambda above
a floor, and nonnegative multipliers for the three sector inequalities
(strong monotonicity, co-coercivity and the sector product form; see
iqc).  The LMI is linear in v, LMI(v) = sum_k v_k L_k, and the basis
L_k is built once per problem.  The solver minimizes the pointwise max
of the two eigenvalue violations with Polyak-style subgradient steps
(eigenvector outer products give exact subgradients, q^T L_k q, of
extreme eigenvalues of an affine matrix map), projecting the box
variables after every step.  The LMI is homogeneous in the whole tuple,
so the tuple is rescaled whenever the largest of trace(P)/s and the
multipliers leaves [0.1, 10].

All seeded restarts step in lockstep as the rows of one array: each
iteration makes one LAPACK eigh call on the stack of LMIs and one on
the stack of P blocks.  Row products use einsum, never a BLAS product,
so a restart's path is bitwise the same whether it runs alone or beside
others.  LAPACK searches and Jacobi trusts: any Feasible candidate is
re-verified by the package's own Jacobi eigensolver and by a randomized
sector sampling check before it is accepted.

Statuses: Feasible (verified certificate in hand), Infeasible (every
restart stalled at a clearly positive violation; an operational claim,
not a dual proof), Inconclusive (budget ran out while still improving,
or the residual landed too close to zero to call).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .iqc import (
    IqcCertificate,
    sector_lift,
    sector_multipliers,
    sector_product_multiplier,
)
from .linalg import sym_eigen
from .optimizers import LureSystem, SectorBounds

__all__ = [
    "SolverOptions",
    "RestartTrace",
    "FeasibilityResult",
    "RateResult",
    "CertificateCheck",
    "RATE_OPTIONS",
    "solve_feasibility",
    "verify_certificate",
    "s_lemma_cross_check",
    "certify_rate",
]

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for solve_feasibility.

    feas_margin: the LMI must clear lambda_max <= -feas_margin.
    p_tol: P must clear lambda_min >= p_tol.
    lambda_min: floor for the decay-coupling variable lambda.
    restarts: independent seeded starts; first feasible one wins.
    max_iters: per-restart subgradient step budget.
    patience: break a restart after this many steps without improvement.
    infeasible_margin: stalled residual above this reports Infeasible,
        anything closer to zero reports Inconclusive.
    check_samples: sample count for the randomized certificate check.

    Raises:
        ValueError: naming the first field out of range.
    """

    feas_margin: float = 1e-8
    p_tol: float = 1e-8
    lambda_min: float = 1e-6
    restarts: int = 16
    max_iters: int = 50_000
    patience: int = 2000
    step_cap: float = 1.0
    target_gap: float = 1e-3
    stall_tol: float = 1e-9
    infeasible_margin: float = 1e-4
    check_samples: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iters", "patience", "check_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"SolverOptions.{name} must be >= 1, got {getattr(self, name)}")
        for name in ("feas_margin", "p_tol", "lambda_min", "target_gap", "stall_tol",
                     "infeasible_margin"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(
                    f"SolverOptions.{name} must be non-negative, got {getattr(self, name)}")
        if not self.step_cap > 0.0:
            raise ValueError(f"SolverOptions.step_cap must be positive, got {self.step_cap}")


# certify_rate's defaults, also the base of `stabcert certify --rate`.
RATE_OPTIONS = SolverOptions(restarts=6, max_iters=20_000, patience=1200)


@dataclass(frozen=True)
class RestartTrace:
    """Per-restart outcome: best violation seen and how the run ended."""

    restart: int
    best_violation: float
    iterations: int
    stalled: bool


@dataclass(frozen=True)
class FeasibilityResult:
    """Aggregate solver outcome across restarts."""

    status: str
    certificate: IqcCertificate | None
    best_violation: float
    traces: list = field(default_factory=list)


@dataclass(frozen=True)
class RateResult:
    """Outcome of the bisection search for the largest certifiable rho."""

    status: str
    rho_star: float
    certificate: IqcCertificate | None
    tested: list = field(default_factory=list)


@dataclass(frozen=True)
class CertificateCheck:
    """Recheck verdict for one certificate; truthy iff it passed."""

    ok: bool
    lmi_max_eig: float
    p_min_eig: float
    lam: float
    tau1: float
    tau2: float
    tau3: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


class _Problem:
    """The affine LMI map of one system/sector, built once.

    A decision vector v is (vech P, lam, tau1, tau2, tau3), with vech in
    row-major upper-triangle order.  Row k of `basis` is vec(L_k), so
    LMI(v) = (v @ basis) reshaped to (d, d).  Row k of `p_basis` is the
    k-th symmetric unit matrix E_k of P, and P itself is the gather
    v[p_index].
    """

    def __init__(self, system: LureSystem, bounds: SectorBounds, rho: float, with_lam: bool):
        self.bounds = bounds
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
        if with_lam:
            lam_term[:s, :s] = np.eye(s)
        j = sector_lift(system)
        pis = (*sector_multipliers(bounds), sector_product_multiplier(bounds))
        terms = [*p_terms, lam_term, *(j.T @ pi @ j for pi in pis)]
        self.basis = np.array(terms).reshape(len(terms), d * d)
        self.p_basis = units.reshape(n_p, s * s)
        self.p_index = np.zeros((s, s), dtype=int)
        self.p_index[self.vech] = self.p_index[self.vech[::-1]] = np.arange(n_p)

    def lmi(self, p: np.ndarray, lam: float, tau1: float, tau2: float,
            tau3: float) -> np.ndarray:
        v = np.concatenate([p[self.vech], [lam, tau1, tau2, tau3]])
        return (v @ self.basis).reshape(self.d, self.d)


def _start(prob: _Problem, restart: int, opts: SolverOptions) -> np.ndarray:
    """The seeded starting vector of one restart (before projection)."""
    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, restart)))
    s = prob.s
    raw = rng.normal(size=(s, s))
    p0 = raw @ raw.T / s + 0.5 * np.eye(s)
    lam = opts.lambda_min + 0.1 * abs(rng.normal()) if prob.with_lam else 0.0
    taus = [0.1 + abs(rng.normal()) for _ in range(3)]
    return np.concatenate([p0[prob.vech], [lam, *taus]])


def _phi_and_grad(prob: _Problem, v: np.ndarray, opts: SolverOptions):
    """Violation and a subgradient for every row of v, shape (rows, nv)."""
    rows, n, d, s = len(v), prob.n_p, prob.d, prob.s
    lmi_vals, lmi_vecs = np.linalg.eigh(np.einsum("rk,kn->rn", v, prob.basis).reshape(rows, d, d))
    p_vals, p_vecs = np.linalg.eigh(v[:, prob.p_index])
    g_lmi = lmi_vals[:, -1] + opts.feas_margin
    g_p = opts.p_tol - p_vals[:, 0]
    on_p = g_lmi < g_p
    # q^T L_k q on the LMI branch; -w^T E_k w on P's entries otherwise.
    q = lmi_vecs[:, :, -1]
    grad = np.einsum("ra,rb,kab->rk", q, q, prob.basis.reshape(-1, d, d))
    if on_p.any():
        w = p_vecs[:, :, 0]
        grad_p = -np.einsum("ra,rb,kab->rk", w, w, prob.p_basis.reshape(n, s, s))
        grad[on_p] = 0.0
        grad[on_p, :n] = grad_p[on_p]
    return np.maximum(g_lmi, g_p), grad


def _project(prob: _Problem, v: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Clip the rows of v onto the box constraints and rescale drifted rows, in place.

    floor holds the lower bounds of (lam, tau1, tau2, tau3); without the
    lambda term lam starts at 0 and its subgradient is 0, so it stays 0.
    """
    n = prob.n_p
    np.maximum(v[:, n:], floor, out=v[:, n:])
    # The LMI is homogeneous in the decision tuple; rescale when its
    # size drifts so the absolute margins keep their meaning.  The size
    # is the largest of trace(P)/s and the multipliers: watching P alone
    # lets the multipliers run off towards overflow.
    trace = np.einsum("rk,k->r", v, prob.trace_mask)
    size = np.maximum(trace / prob.s, v[:, n + 1 :].max(axis=1))
    out = (size > 10.0) | (size < 0.1)
    if out.any():
        out &= size > 0.0
        v[out] /= size[out, None]
        v[out, n:] = np.maximum(v[out, n:], floor)
    return v


def _lockstep(prob: _Problem, restarts, opts: SolverOptions) -> dict:
    """Run seeded restarts side by side, the lowest feasible one winning.

    Each row follows exactly the path its restart would follow alone.
    A row ends when it turns feasible, when it stalls (no improvement by
    stall_tol for patience steps, or a vanishing subgradient) or at
    max_iters.  Once some restart is feasible, higher-numbered ones are
    dropped, and the loop ends when every lower-numbered one has ended.

    Returns:
        {restart: (v, violation, iterations, stalled)} for the restarts
        up to and including the winner (all of them without one), as a
        one-at-a-time search stopping at the first feasible restart
        would have run them.
    """
    rows = np.asarray(restarts)
    floor = np.array([opts.lambda_min if prob.with_lam else 0.0, 0.0, 0.0, 0.0])
    v = _project(prob, np.array([_start(prob, r, opts) for r in rows]), floor)
    best = np.full(len(rows), np.inf)
    best_v = v.copy()
    best_iter = np.zeros(len(rows), dtype=int)
    ended: dict = {}
    winner = np.inf
    for k in range(1, opts.max_iters + 1):
        phi, grad = _phi_and_grad(prob, v, opts)
        improved = phi < best - opts.stall_tol
        np.copyto(best, phi, where=improved)
        np.copyto(best_v, v, where=improved[:, None])
        np.copyto(best_iter, k, where=improved)
        gnorm2 = np.einsum("rk,rk->r", grad, grad)
        feasible = phi < 0.0
        done = feasible | (best_iter < k - opts.patience) | (gnorm2 <= 1e-300)
        if done.any():
            for i in np.flatnonzero(done):
                r = int(rows[i])
                if feasible[i]:
                    ended[r] = (v[i].copy(), float(phi[i]), k, False)
                    winner = min(winner, r)
                else:
                    ended[r] = (best_v[i].copy(), float(best[i]), k, True)
            live = ~done & (rows < winner)
            if not live.any():
                break
            rows, v, best, best_v, best_iter, phi, grad, gnorm2 = (
                a[live] for a in (rows, v, best, best_v, best_iter, phi, grad, gnorm2))
        step = np.minimum((phi + opts.target_gap) / gnorm2, opts.step_cap)
        v = _project(prob, v - step[:, None] * grad, floor)
    else:
        for i, r in enumerate(rows):
            ended[int(r)] = (best_v[i].copy(), float(best[i]), opts.max_iters, False)
    return {r: ended[r] for r in sorted(ended) if r <= winner}


def _make_cert(prob, v, name, status, opts) -> IqcCertificate:
    p = v[prob.p_index]
    lam, tau1, tau2, tau3 = (float(x) for x in v[prob.n_p :])
    lmi_top = float(sym_eigen(prob.lmi(p, lam, tau1, tau2, tau3)).values[-1])
    p_bot = float(sym_eigen(p).values[0])
    return IqcCertificate(
        optimizer=name,
        gamma=prob.bounds.gamma,
        beta=prob.bounds.beta,
        p=p,
        lam=lam,
        tau1=tau1,
        tau2=tau2,
        rho=prob.rho,
        lmi_max_eig=lmi_top,
        p_min_eig=p_bot,
        status=status,
        solver_seed=opts.seed,
        tau3=tau3,
    )


def solve_feasibility(
    system: LureSystem,
    bounds: SectorBounds,
    optimizer_name: str = "custom",
    rho: float = 0.0,
    with_lam: bool = True,
    options: SolverOptions | None = None,
) -> FeasibilityResult:
    """Search for a verified solution of the certificate LMI.

    Runs the seeded subgradient restarts in lockstep; the lowest-numbered
    feasible restart wins, so the outcome is that of running them one at
    a time.  A candidate only becomes a Feasible result after
    verify_certificate and the sector sampling cross-check both pass.

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
    prob = _Problem(system, bounds, rho, with_lam)
    results = _lockstep(prob, range(opts.restarts), opts)

    traces = [
        RestartTrace(restart=r, best_violation=res[1], iterations=res[2], stalled=res[3])
        for r, res in results.items()
    ]
    for v, phi, _, _ in results.values():
        if phi < 0.0:
            cert = _make_cert(prob, v, optimizer_name, FEASIBLE, opts)
            report = verify_certificate(cert, system, bounds, opts)
            sampled = s_lemma_cross_check(cert, system, bounds, samples=opts.check_samples,
                                          seed=opts.seed)
            if report.ok and sampled["ok"]:
                return FeasibilityResult(FEASIBLE, cert, phi, traces)

    best = min(res[1] for res in results.values())
    ran_out = any(
        not res[3] and res[2] >= opts.max_iters and res[1] >= 0.0 for res in results.values()
    )
    if ran_out or best <= opts.infeasible_margin:
        status = INCONCLUSIVE
    else:
        status = INFEASIBLE
    return FeasibilityResult(status, None, best, traces)


def verify_certificate(
    cert: IqcCertificate,
    system: LureSystem,
    bounds: SectorBounds,
    options: SolverOptions | None = None,
) -> CertificateCheck:
    """Independently recheck a certificate's eigenvalue conditions.

    Rebuilds the LMI from the stored variables and tests, with the
    package's own eigensolver, that the LMI clears -feas_margin, P
    clears p_tol, the multipliers are nonnegative, and lambda respects
    its floor (when the certificate carries one).  The result is truthy
    exactly when all conditions hold.
    """
    opts = options or SolverOptions()
    lmi_top, p_bot = cert.recompute_eigs(system, bounds)
    lam_ok = cert.lam >= opts.lambda_min or cert.lam == 0.0
    ok = (
        lmi_top <= -opts.feas_margin
        and p_bot >= opts.p_tol
        and cert.tau1 >= 0.0
        and cert.tau2 >= 0.0
        and cert.tau3 >= 0.0
        and lam_ok
    )
    return CertificateCheck(
        ok=bool(ok),
        lmi_max_eig=lmi_top,
        p_min_eig=p_bot,
        lam=cert.lam,
        tau1=cert.tau1,
        tau2=cert.tau2,
        tau3=cert.tau3,
    )


def s_lemma_cross_check(
    cert: IqcCertificate,
    system: LureSystem,
    bounds: SectorBounds,
    samples: int = 10_000,
    seed: int = 0,
    h_low: float | None = None,
    h_high: float | None = None,
) -> dict:
    """Sample sector responses and test the decrement the LMI promises.

    Draws random states x and curvatures h in [h_low, h_high] (defaults
    to the sector), sets u = h * y for y = C x + D u, and evaluates

        V(A x + B u) - (1 - rho) V(x) + lambda ||x||^2,

    which must be <= 0 for every in-sector response if the certificate
    is sound.  Returns the max over samples; drawing h outside the
    sector should, and does, break valid certificates.
    """
    if system.input_dim != 1:
        raise ValueError("sampling check implemented for scalar input channels")
    rng = np.random.default_rng(seed)
    lo = bounds.gamma if h_low is None else h_low
    hi = bounds.beta if h_high is None else h_high
    s = system.state_dim
    x = rng.normal(size=(samples, s))
    h = rng.uniform(lo, hi, size=samples)
    d = float(system.d[0, 0])
    y = x @ system.c[0]
    denom = 1.0 - h * d
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("feedthrough makes the feedback loop singular")
    u = h * y / denom
    x_next = x @ system.a.T + np.outer(u, system.b[:, 0])
    v_next = np.einsum("ij,jk,ik->i", x_next, cert.p, x_next)
    v_now = np.einsum("ij,jk,ik->i", x, cert.p, x)
    vals = v_next - (1.0 - cert.rho) * v_now + cert.lam * np.einsum("ij,ij->i", x, x)
    worst = float(vals.max())
    return {"ok": bool(worst <= 1e-9), "max_violation": worst, "samples": samples}


def certify_rate(
    system: LureSystem,
    bounds: SectorBounds,
    optimizer_name: str = "custom",
    rho_low: float = 1e-4,
    rho_high: float = 0.999,
    tol: float = 1e-4,
    options: SolverOptions | None = None,
) -> RateResult:
    """Bisect for the largest decay rate the LMI can certify.

    Feasibility is monotone in rho (any certificate at rho works for
    smaller rho), so bisection applies.  Uses rate-mode searches (no
    lambda coupling).  If even rho_low is not certifiable the result is
    Infeasible-at-range.

    Returns:
        RateResult with rho_star the largest rho found feasible, its
        certificate, and the list of (rho, status) probes.
    """
    if not (0.0 < rho_low < rho_high < 1.0):
        raise ValueError(f"need 0 < rho_low < rho_high < 1, got {rho_low}, {rho_high}")
    opts = options or RATE_OPTIONS
    tested = []

    def probe(rho: float) -> FeasibilityResult:
        res = solve_feasibility(
            system, bounds, optimizer_name, rho=rho, with_lam=False, options=opts
        )
        tested.append((rho, res.status))
        return res

    low_res = probe(rho_low)
    if low_res.status != FEASIBLE:
        return RateResult("Infeasible-at-range", 0.0, None, tested)
    lo, lo_cert = rho_low, low_res.certificate
    high_res = probe(rho_high)
    if high_res.status == FEASIBLE:
        return RateResult("Certified", rho_high, high_res.certificate, tested)
    hi = rho_high
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        res = probe(mid)
        if res.status == FEASIBLE:
            lo, lo_cert = mid, res.certificate
        else:
            hi = mid
    return RateResult("Certified", lo, lo_cert, tested)
