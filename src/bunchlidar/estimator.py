"""Bunching-peak fitting, range extraction, and signal-to-noise analysis.

The fitted model is the displaced double-sided exponential
g2(tau) = B + A*exp(-2|tau - tau0|/tau_c), averaged in closed form over each
histogram bin. Fitting wide bins against the bin-averaged model (instead of
point samples) is what keeps 2 ns bins unbiased when tau_c is comparable to
the bin width. The minimizer is a damped Gauss-Newton iteration with analytic
partial derivatives; the bin average is C1 in tau0, so the point-model kink
needs no special treatment beyond step halving.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .quantities import DomainError, Medium, UserError, VACUUM, nonnegative, range_from_delay

_N_FREE_PARAMS = 4


class FitError(UserError, RuntimeError):
    """Base class for fitting failures."""


class DegenerateFitError(FitError):
    """Fit collapsed (coherence time at floor or no peak)."""


class FitNotConvergedError(FitError):
    """Iteration limit reached, or no finite uncertainty at the minimum."""


@dataclass(frozen=True, kw_only=True)
class FitResult:
    """Bunching-peak parameters and one-sigma curvature uncertainties, in record order."""

    baseline: float
    baseline_err: float = 0.0
    amplitude: float  # equals V^2, the squared visibility
    amplitude_err: float = 0.0
    delay_s: float
    delay_err_s: float = 0.0
    coherence_time_s: float
    coherence_time_err_s: float = 0.0
    reduced_chi2: float = 0.0
    n_points: int = 0
    n_free_params: int = _N_FREE_PARAMS
    converged: bool = False
    n_iterations: int = 0
    bin_width_s: float = 0.0

    def binned_peak_g2(self) -> float:
        """Model prediction for the histogram bin centered on the peak."""
        return self.baseline + self.amplitude * bin_attenuation(
            self.bin_width_s, self.coherence_time_s
        )


@dataclass(frozen=True)
class SnrReport:
    """Predicted (shot-noise formula) vs measured peak signal-to-noise."""

    predicted_snr: float
    measured_snr: float
    rate_hz: float
    integration_time_s: float
    amplitude: float
    coherence_time_s: float


def bin_attenuation(bin_width_s: float, coherence_time_s: float) -> float:
    """Mean of exp(-2|tau|/tau_c) over a bin centered on the peak.

    Equals (tau_c/w)*(1 - exp(-w/tau_c)); tends to 1 as the bin narrows and
    decreases monotonically as w/tau_c grows.
    """
    if coherence_time_s <= 0:
        raise DomainError(f"coherence time must be positive, got {coherence_time_s}")
    if nonnegative("bin_width_s", bin_width_s) == 0:
        return 1.0
    ratio = bin_width_s / coherence_time_s
    return -math.expm1(-ratio) / ratio


def _bin_integrals(edges_lo, edges_hi, delay, coherence):
    """Closed-form integral of exp(-2|u|/tau_c) over [lo - tau0, hi - tau0).

    Evaluated branch-wise in forms free of catastrophic cancellation for bins
    far from the peak. Returns (integral, d/d tau0, d/d tau_c) per bin.
    """
    e1 = edges_lo - delay
    e2 = edges_hi - delay
    half = 0.5 * coherence
    integral = np.empty_like(e1)
    d_tauc = np.empty_like(e1)

    right = e1 >= 0  # bin entirely at lags above the peak
    left = e2 <= 0  # entirely below
    straddle = ~(right | left)

    for mask, near_edge in ((right, e1), (left, -e2)):
        if not mask.any():
            continue
        p = 2.0 * near_edge[mask] / coherence
        q = 2.0 * (e2[mask] - e1[mask]) / coherence
        decay = np.exp(-p)
        tail = -np.expm1(-q)
        integral[mask] = half * decay * tail
        d_tauc[mask] = 0.5 * decay * ((1.0 + p) * tail - q * np.exp(-q))
    if straddle.any():
        s = -2.0 * e1[straddle] / coherence
        t = 2.0 * e2[straddle] / coherence
        integral[straddle] = half * (-np.expm1(-s) - np.expm1(-t))
        d_tauc[straddle] = 0.5 * (
            -np.expm1(-s) - np.expm1(-t) - s * np.exp(-s) - t * np.exp(-t)
        )
    d_tau0 = np.exp(-2.0 * np.abs(e1) / coherence) - np.exp(-2.0 * np.abs(e2) / coherence)
    return integral, d_tau0, d_tauc


def binned_model(tau_s: np.ndarray, bin_width_s: float, params) -> np.ndarray:
    """Bin-averaged bunching model at the given bin centers."""
    baseline, amplitude, delay, coherence = params
    lo = tau_s - 0.5 * bin_width_s
    integral, _, _ = _bin_integrals(lo, lo + bin_width_s, delay, coherence)
    return baseline + amplitude * integral / bin_width_s


def binned_model_jacobian(tau_s: np.ndarray, bin_width_s: float, params) -> np.ndarray:
    """Analytic partial derivatives of the bin-averaged model, shape (n, 4)."""
    _, amplitude, delay, coherence = params
    lo = tau_s - 0.5 * bin_width_s
    integral, d_tau0, d_tauc = _bin_integrals(lo, lo + bin_width_s, delay, coherence)
    jac = np.empty((tau_s.size, _N_FREE_PARAMS))
    jac[:, 0] = 1.0
    jac[:, 1] = integral / bin_width_s
    jac[:, 2] = amplitude * d_tau0 / bin_width_s
    jac[:, 3] = amplitude * d_tauc / bin_width_s
    return jac


def initial_guess(tau_s: np.ndarray, g2: np.ndarray, bin_width_s: float) -> FitResult:
    """Moment-style starting point: median baseline, smoothed peak, HWHM width."""
    tau_s = np.asarray(tau_s, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    if tau_s.size < 8:
        raise FitError(f"need at least 8 points, got {tau_s.size}")
    baseline = float(np.median(g2))
    smoothed = np.convolve(g2, np.ones(5) / 5.0, mode="same")
    peak = int(np.argmax(smoothed))
    delay = float(tau_s[peak])
    amplitude = max(float(smoothed[peak] - baseline), 0.01)
    above = smoothed > baseline + 0.5 * amplitude
    lo = peak
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = peak
    while hi < above.size - 1 and above[hi + 1]:
        hi += 1
    hwhm = 0.5 * (hi - lo + 1) * bin_width_s
    coherence = max((2.0 / math.log(2.0)) * hwhm, bin_width_s)
    return FitResult(
        baseline=baseline,
        amplitude=amplitude,
        delay_s=delay,
        coherence_time_s=coherence,
        n_points=int(tau_s.size),
        bin_width_s=bin_width_s,
    )


@np.errstate(all="ignore")  # an overflow shows as a non-finite model and raises below
def fit_g2(
    tau_s,
    g2,
    sigma,
    bin_width_s: float,
    max_iterations: int = 200,
    rel_tol: float = 1e-10,
) -> FitResult:
    """Weighted least squares of the bin-averaged model via damped Gauss-Newton.

    Convergence: relative chi-square change below ``rel_tol`` (or an exhausted
    step-halving search, which means a machine-precision minimum). Returns a
    converged fit with finite, positive uncertainties, its delay inside the
    binned span and tau_c no wider than it; otherwise raises a ``FitError``:
    ``DegenerateFitError`` if tau_c collapses below a quarter bin, else
    ``FitNotConvergedError`` (iteration limit, an answer outside the data, or
    no positive finite curvature variance).
    """
    tau_s = np.asarray(tau_s, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if not (np.isfinite(tau_s).all() and np.isfinite(g2).all() and np.isfinite(sigma).all()):
        raise FitError("tau, g2 and sigma must all be finite")
    if np.any(sigma <= 0):
        raise FitError("all sigma values must be positive")
    if not bin_width_s > 0:  # also true for NaN
        raise FitError(f"bin width must be positive, got {bin_width_s}")

    initial = initial_guess(tau_s, g2, bin_width_s)
    theta = np.array(
        [initial.baseline, initial.amplitude, initial.delay_s, initial.coherence_time_s]
    )
    floor = 1e-3 * bin_width_s  # hard guard; degeneracy is judged after convergence

    def chi2_of(params) -> float:
        resid = (g2 - binned_model(tau_s, bin_width_s, params)) / sigma
        return float(resid @ resid)

    chi2 = chi2_of(theta)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        model = binned_model(tau_s, bin_width_s, theta)
        jac = binned_model_jacobian(tau_s, bin_width_s, theta) / sigma[:, None]
        resid = (g2 - model) / sigma
        if not (np.isfinite(jac).all() and np.isfinite(resid).all()):
            raise FitNotConvergedError("model or residuals overflow; rescale tau, g2 or sigma")
        step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
        scale = 1.0
        trial_chi2 = None
        for _ in range(40):
            trial = theta + scale * step
            if trial[1] >= 0.0 and trial[3] > floor:
                trial_chi2 = chi2_of(trial)
                if trial_chi2 <= chi2:
                    break
            scale *= 0.5
        else:
            converged = True  # no descent direction left at machine precision
            break
        change = chi2 - trial_chi2
        theta = trial
        chi2 = trial_chi2
        if change <= rel_tol * max(chi2, 1e-300):
            converged = True
            break

    if theta[3] < 0.25 * bin_width_s:
        raise DegenerateFitError(
            f"coherence time collapsed to {theta[3]} s (bin width {bin_width_s} s)"
        )
    reduced_chi2 = chi2 / (tau_s.size - _N_FREE_PARAMS)
    if not converged:
        raise FitNotConvergedError(
            f"fit did not converge after {iterations} iterations (reduced chi2 {reduced_chi2:.3g})"
        )
    lo, hi = tau_s.min() - 0.5 * bin_width_s, tau_s.max() + 0.5 * bin_width_s
    if not lo <= theta[2] <= hi:
        raise FitNotConvergedError(f"delay {theta[2]} s outside the binned span [{lo}, {hi}] s")
    if theta[3] > hi - lo:
        raise FitNotConvergedError(f"coherence time {theta[3]} s wider than the binned span {hi - lo} s")
    jac = binned_model_jacobian(tau_s, bin_width_s, theta) / sigma[:, None]
    try:
        covariance = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        raise FitNotConvergedError("singular curvature matrix at the minimum") from None
    variances = np.diag(covariance)
    if not (np.isfinite(variances) & (variances > 0)).all():
        raise FitNotConvergedError(f"non-positive or non-finite variances {variances.tolist()}")
    errors = np.sqrt(variances)
    return FitResult(
        baseline=float(theta[0]),
        baseline_err=float(errors[0]),
        amplitude=float(theta[1]),
        amplitude_err=float(errors[1]),
        delay_s=float(theta[2]),
        delay_err_s=float(errors[2]),
        coherence_time_s=float(theta[3]),
        coherence_time_err_s=float(errors[3]),
        reduced_chi2=reduced_chi2,
        n_points=int(tau_s.size),
        converged=True,
        n_iterations=iterations,
        bin_width_s=bin_width_s,
    )


def estimate_range(fit: FitResult, medium: Medium = VACUUM) -> tuple[float, float]:
    """Target distance d = c*tau0/(2n) and its one-sigma uncertainty, in meters."""
    if not fit.converged:
        raise FitNotConvergedError("cannot estimate range from an unconverged fit")
    return range_from_delay(fit.delay_s, medium), range_from_delay(fit.delay_err_s, medium)


def snr_predict(
    rate_hz: float, v_squared: float, coherence_time_s: float, integration_time_s: float
) -> float:
    """Shot-noise-limited peak SNR: r * V^2 * sqrt(tau_c * dT) (an upper bound)."""
    for name, value in zip(("rate_hz", "v_squared", "coherence_time_s", "integration_time_s"),
                           (rate_hz, v_squared, coherence_time_s, integration_time_s)):
        nonnegative(name, value)
    return rate_hz * v_squared * math.sqrt(coherence_time_s * integration_time_s)


def snr_measure(
    tau_s,
    g2,
    fit: FitResult,
    rate_hz: float,
    integration_time_s: float,
) -> SnrReport:
    """Measured SNR: fitted amplitude over the off-peak residual scatter.

    The off-peak region is |tau - tau0| > 5*tau_c and must contain at least 20
    bins. ``rate_hz`` should be the scenario's detected rate (geometric mean of
    the two channel rates). Zero residual scatter reports an infinite SNR.
    """
    if not fit.converged:
        raise FitNotConvergedError("cannot measure SNR from an unconverged fit")
    tau_s = np.asarray(tau_s, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    off_peak = np.abs(tau_s - fit.delay_s) > 5.0 * fit.coherence_time_s
    if int(off_peak.sum()) < 20:
        raise FitError(
            f"only {int(off_peak.sum())} off-peak bins (|tau - tau0| > 5 tau_c); need >= 20"
        )
    params = (fit.baseline, fit.amplitude, fit.delay_s, fit.coherence_time_s)
    residuals = g2[off_peak] - binned_model(tau_s[off_peak], fit.bin_width_s, params)
    scatter = float(np.std(residuals, ddof=1))
    measured = math.inf if scatter == 0.0 else fit.amplitude / scatter
    return SnrReport(
        predicted_snr=snr_predict(rate_hz, fit.amplitude, fit.coherence_time_s, integration_time_s),
        measured_snr=measured,
        rate_hz=rate_hz,
        integration_time_s=integration_time_s,
        amplitude=fit.amplitude,
        coherence_time_s=fit.coherence_time_s,
    )


def fit_to_dict(fit: FitResult) -> dict:
    """Flat JSON-ready mapping of a fit result, in field order, plus the peak-bin g2."""
    return {**asdict(fit), "binned_peak_g2": fit.binned_peak_g2()}


def format_record(record: dict) -> str:
    """Aligned ``key = value`` text block (the flat key-value export format)."""
    width = max(len(k) for k in record)
    lines = [f"{k.ljust(width)} = {v}" for k, v in record.items()]
    return "\n".join(lines)


def dump_json(record: dict, path) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
