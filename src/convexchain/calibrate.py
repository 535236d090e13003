"""Moment calibration for the grand-canonical line model.

Solves E[X1] = n1, E[X2] = n2, E[K] = k for (beta1, beta2, lambda) by damped
Newton iteration on the strictly convex free energy

    f(b1, b2, g) = b1*n1 + b2*n2 + g*k + log Z(b1, b2, e^-g),

whose gradient is the moment mismatch and whose Hessian is the covariance
matrix of (X1, X2, K).  The initializer inverts the limiting vertex-density
curve c in the fugacity (one bracketed root in log lambda, no tabulation)
and applies the closed-form rate relations; a small-k closed form covers
densities below the bracket.

log Z and its derivatives come from `gibbs._linear_log_z`, which chooses the
kernel (no site enumeration while lambda <= 2); `exact_calibrate` runs the
Newton loop.  Each reported residual is the moment mismatch plus the
kernel's gap to the truncated site sums (`_result_at`): for lambda <= 2 a
bound on the omitted tail and on rounding, above it zero (the sums are
those of `moments`).  So a reported residual bounds that of the truncated
measure `CalibrationResult.params` describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs import EnergyModel, GibbsParams, _linear_log_z
from .specialfn import ZETA2, _residue_core, c_of_ell
from .tolerances import (
    CALIB_MAX_ITER,
    CALIB_RESIDUAL_TOL,
    CALIB_TARGET_TOL,
    DEFAULT_TRUNCATION,
)

__all__ = [
    "CalibrationError",
    "CalibrationTarget",
    "CalibrationResult",
    "asymptotic_params",
    "exact_calibrate",
    "predicted_log_pnk",
]

# fugacity bracket of the c-inversion; c is strictly increasing on it
_LAM_LO, _LAM_HI = 1e-8, 1e4
# relative change of f below which its value is rounding noise (a few ulps of
# each of its terms and of log Z's sum)
_F_RESOLUTION = 1e-14


class CalibrationError(RuntimeError):
    """Raised when no admissible parameter triple can be located."""


@dataclass(frozen=True)
class CalibrationTarget:
    n1: int
    n2: int
    k: int

    def __post_init__(self):
        if not all(1 <= x < math.inf for x in (self.n1, self.n2, self.k)):
            raise ValueError(f"target must be positive and finite, got {self}")

    def vertex_density(self) -> float:
        """k / (n1*n2)^(1/3), the quantity the curve c parametrizes."""
        return self.k / (self.n1 * self.n2) ** (1.0 / 3)


@dataclass(frozen=True)
class CalibrationResult:
    beta1: float
    beta2: float
    fugacity: float
    residuals: tuple[float, float, float]  # relative errors on (n1, n2, k)
    iterations: int
    free_energy: float
    converged: bool

    def params(self, truncation: float = DEFAULT_TRUNCATION) -> GibbsParams:
        return GibbsParams(
            EnergyModel.linear(self.beta1, self.beta2), self.fugacity, truncation
        )


def _root(f, lo: float, hi: float, xtol: float) -> float:
    """A root of f in [lo, hi] by the Illinois method (Dowell & Jarratt,
    BIT 11, 1971): regula falsi that halves the kept end's f when the same
    end is kept twice running, so both ends close in superlinearly.

    Stops when the bracket is at most xtol wide, or when the secant point
    falls on an end (the bracket is down to adjacent doubles), and returns
    the last secant point (the end with the smaller |f| if there was none).
    f(lo) and f(hi) must differ in sign.
    """
    flo, fhi = f(lo), f(hi)
    if not (flo <= 0.0 <= fhi or fhi <= 0.0 <= flo):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]: f = {flo!r}, {fhi!r}")
    x = lo if abs(flo) < abs(fhi) else hi
    if flo == 0.0 or fhi == 0.0:
        return x
    kept = 0  # -1: lo kept by the last step, +1: hi kept
    while hi - lo > xtol:
        secant = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < secant < hi:
            break
        x, fx = secant, f(secant)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fhi > 0.0):
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1
        else:
            lo, flo = x, fx
            if kept == 1:
                fhi *= 0.5
            kept = 1
    return x


def _rates_from_fugacity(lam: float, n1: int, n2: int) -> tuple[float, float]:
    # n1 = U/(b1^2 b2), n2 = U/(b1 b2^2)  =>  b1 = (U n2/n1^2)^(1/3), etc.
    U = _residue_core(lam) / ZETA2
    beta1 = (U * n2 / n1**2) ** (1.0 / 3)
    beta2 = (U * n1 / n2**2) ** (1.0 / 3)
    return beta1, beta2


def _small_k_triple(target: CalibrationTarget) -> tuple[float, float, float]:
    n1, n2, k = target.n1, target.n2, target.k
    return k / n1, k / n2, k**3 / (n1 * n2)


def asymptotic_params(target: CalibrationTarget) -> tuple[float, float, float]:
    """Initializer triple (beta1, beta2, lambda) from the limiting relations.

    The fugacity solves c(lambda) = k/(n1*n2)^(1/3) by one `_root` in
    log lambda on [1e-8, 1e4], where c is strictly increasing; densities
    below c(1e-8) use the small-k closed forms instead.  Densities above
    c(1e4) are an explicit failure (the limiting family tops out at
    3*pi^(-2/3)).
    """
    ell_t = target.vertex_density()
    c_lo, c_hi = c_of_ell(_LAM_LO), c_of_ell(_LAM_HI)
    if ell_t < c_lo:
        return _small_k_triple(target)
    if ell_t > c_hi:
        raise CalibrationError(
            f"no bracketing interval for vertex density {ell_t:.6g}: "
            f"c spans [{c_lo:.6g}, {c_hi:.6g}] over lambda in "
            f"[{_LAM_LO:g}, {_LAM_HI:g}]"
        )
    lam = math.exp(_root(lambda s: c_of_ell(math.exp(s)) - ell_t,
                         math.log(_LAM_LO), math.log(_LAM_HI), 1e-14))
    beta1, beta2 = _rates_from_fugacity(lam, target.n1, target.n2)
    return beta1, beta2, lam


def _initializer(target: CalibrationTarget) -> tuple[float, float, float]:
    try:
        return asymptotic_params(target)
    except CalibrationError:
        # density above the limiting family's reach: start from the bracket top
        # (large fugacity, saturated small sites) and let Newton finish
        beta1, beta2 = _rates_from_fugacity(_LAM_HI, target.n1, target.n2)
        return beta1, beta2, _LAM_HI


def _result_at(target: CalibrationTarget, v: np.ndarray, iterations: int,
               truncation: float, kernel=None) -> CalibrationResult:
    """The report at v; `kernel` is the `_linear_log_z` tuple at v, if the
    caller has it."""
    beta1, beta2, lam = float(v[0]), float(v[1]), math.exp(-float(v[2]))
    # g from the reported fugacity, as `moments(result.params())` takes it
    g = -math.log(lam)
    if kernel is None or g != v[2]:
        kernel = _linear_log_z(beta1, beta2, g, truncation)
    logz, grad, _, gap = kernel
    goal = np.array([target.n1, target.n2, target.k], dtype=float)
    residuals = tuple(((np.abs(-grad - goal) + gap[1:]) / goal).tolist())
    return CalibrationResult(
        beta1=beta1,
        beta2=beta2,
        fugacity=lam,
        residuals=residuals,
        iterations=iterations,
        # log Z + beta1*n1 + beta2*n2 - k*log(lambda), log Z from the kernel
        free_energy=(logz + beta1 * target.n1 + beta2 * target.n2
                     - target.k * math.log(lam)),
        converged=max(residuals) <= CALIB_RESIDUAL_TOL,
    )


def _unbounded(target: CalibrationTarget) -> CalibrationError:
    # f is sinking along a recession direction: the moment system has no solution
    return CalibrationError(
        f"free energy unbounded below for {target}: lines ending near "
        f"({target.n1}, {target.n2}) cannot carry k = {target.k} vertices "
        f"(density {target.vertex_density():.4g}; the capacity density tends "
        f"to {3.0 * math.pi ** (-2.0 / 3):.4g} only as n grows); "
        "no calibrated parameters exist"
    )


def exact_calibrate(target: CalibrationTarget,
                    trunc: float = DEFAULT_TRUNCATION) -> CalibrationResult:
    """Damped Newton on the free energy down to machine-level moment residuals.

    Accepted steps strictly decrease f (convexity makes that always possible
    for a short enough step) until the predicted decrease falls below f's
    rounding, after which full Newton steps are taken; the loop aims for
    relative residuals near 1e-11 so symmetry properties survive, and the
    success contract is 1e-6.  A numerically singular Hessian falls back to
    the small-k closed forms, or, with every site saturated (lambda > 1),
    raises `CalibrationError` like any other unbounded free energy.  The
    truncation `trunc` must be positive and finite, as in `GibbsParams`.
    """
    if not 0 < trunc < math.inf:
        raise ValueError(f"trunc must be positive and finite, got {trunc}")
    scale = np.array([target.n1, target.n2, target.k], dtype=float)

    def evaluate(v):
        """f, its gradient and its Hessian at v, and the `_linear_log_z`
        tuple they come from."""
        kernel = _linear_log_z(*v, trunc)
        logz, grad, hess, _ = kernel
        fval = v[0] * target.n1 + v[1] * target.n2 + v[2] * target.k + logz
        return fval, scale + grad, hess, kernel

    b1, b2, lam = _initializer(target)
    v = np.array([b1, b2, -math.log(lam)])
    fval, g, H, kernel = evaluate(v)
    total_iters = 0
    while total_iters < CALIB_MAX_ITER:
        if np.max(np.abs(g) / scale) <= CALIB_TARGET_TOL:
            break
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            if v[2] < 0.0:
                # every site saturated, so K has no variance: f sinks as
                # lambda grows, the same recession as below
                raise _unbounded(target) from None
            b1, b2, lam = _small_k_triple(target)
            w = np.array([b1, b2, -math.log(lam)])
            return _result_at(target, w, total_iters, trunc)
        total_iters += 1
        # once the predicted decrease (half of -g.step) is below what f can
        # resolve, the full Newton step is taken without comparing f values
        resolved = -(g @ step) > _F_RESOLUTION * abs(fval)
        t = 1.0
        while True:
            cand = v + t * step
            # a step may at most halve a rate, which bounds the growth of the
            # kernel's sum length (~1/min rate) and of the site set
            if cand[0] > 0.5 * v[0] and cand[1] > 0.5 * v[1]:
                at_cand = evaluate(cand)
                if at_cand[0] < fval or not resolved:
                    break
            t *= 0.5
            if t < 1e-12:
                # no descent available: already at numerical optimum
                return _result_at(target, v, total_iters, trunc, kernel)
        v, (fval, g, H, kernel) = cand, at_cand
        if v[2] < -700.0 or max(v[0], v[1]) > 1e8:
            raise _unbounded(target)
    return _result_at(target, v, total_iters, trunc, kernel)


def predicted_log_pnk(target: CalibrationTarget, result: CalibrationResult,
                      with_llt: bool = True) -> float:
    """log of the predicted line count:

        log Z + beta1*n1 + beta2*n2 - k*log(lambda)
              [+ log((2*pi)^(-3/2) * sqrt(k) / (n1*n2)) when with_llt]

    The first line is the calibrated `result.free_energy`; the prefactor is
    the local-limit point mass at the calibrated center.
    """
    base = result.free_energy
    if with_llt:
        base += math.log(
            (2.0 * math.pi) ** (-1.5) * math.sqrt(target.k) / (target.n1 * target.n2)
        )
    return base
