"""Correctness checks the benchmark scores every workload's outputs with.

A fit is {estimand: (psi_hat, se, ci_lo, ci_hi)}. Every check appends a
line naming itself to a list of failures; an empty list means the
outputs passed. The Monte Carlo gates are the acceptance suite's
criterion 1-3 gates, widened for the shorter replication count of one
benchmark run: the bias band by BIAS_Z Monte Carlo standard errors
(root mean square reported SE over sqrt(reps)), the coverage band by an
exact binomial tail at COVERAGE_ALPHA.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom

ESTIMANDS = ("nde", "nie_1", "nie_2", "te")
TELESCOPE_TOL = 1e-10
TRUTH_SES = 4.0  # single large-sample fit: |psi_hat - truth| <= 4 reported SEs
BIAS_Z = 5.0
COVERAGE_ALPHA = 1e-6

# Acceptance-suite gates: (method, estimand) -> (bias low, bias high,
# coverage low, coverage high); None leaves that side open.
ORACLE_BIAS = {"nde": -0.003, "nie_1": 0.001, "nie_2": 0.007, "te": 0.005}
GATES_SRI_1E3 = {
    **{("oracle", e): (b - 0.02, b + 0.02, 0.93, 0.97) for e, b in ORACLE_BIAS.items()},
    **{("sri", e): (-0.05, 0.05, 0.92, 0.985) for e in ORACLE_BIAS},
}
GATES_MI_2E3 = {
    ("cca", "te"): (-0.80, -0.60, None, 0.20),
    ("mi", "nde"): (None, -0.03, None, None),
}


def check_fit(label: str, fit: dict, failures: list) -> bool:
    """Estimand set, telescoping, finiteness and interval shape of one fit.

    Returns False when the fit lacks an estimand, so that callers skip the
    checks that need all four.
    """
    if set(fit) != set(ESTIMANDS):
        failures.append(f"estimands [{label}]: got {sorted(fit)}")
        return False
    tel = fit["nde"][0] + fit["nie_1"][0] + fit["nie_2"][0] - fit["te"][0]
    if not abs(tel) <= TELESCOPE_TOL:
        failures.append(f"telescoping [{label}]: |nde+nie_1+nie_2-te|={abs(tel):.3e}")
    for name, (psi, se, lo, hi) in fit.items():
        if not all(math.isfinite(v) for v in (psi, se, lo, hi)):
            failures.append(f"finite [{label} {name}]: {(psi, se, lo, hi)}")
        elif not (se > 0 and lo < psi < hi):
            failures.append(f"interval [{label} {name}]: se={se} ci=({lo}, {hi}) psi={psi}")
    return True


def check_estimates(fits: list, contrasts: dict, failures: list) -> None:
    """Single large-sample fits: every contrast within TRUTH_SES reported
    standard errors of the truth."""
    if not fits:
        failures.append("estimates: no successful estimate call")
    for j, fit in enumerate(fits):
        label = f"estimate call {j}"
        if not check_fit(label, fit, failures):
            continue
        for name, (psi, se, _lo, _hi) in fit.items():
            dist = abs(psi - contrasts[name])
            if not dist <= TRUTH_SES * se:
                failures.append(f"truth [{label} {name}]: "
                                f"|psi_hat-truth|={dist:.4g} > {TRUTH_SES:g} se={se:.4g}")


def check_replications(fits: dict, contrasts: dict, gates: dict, failures: list) -> None:
    """Per-fit checks, then bias and coverage gates over replications.

    fits maps a method to {replication index: fit}.
    """
    usable = {}
    for method, by_rep in fits.items():
        usable[method] = [fit for i, fit in sorted(by_rep.items())
                          if check_fit(f"rep {i} {method}", fit, failures)]
    check_monte_carlo(usable, contrasts, gates, failures)


def _coverage_ok(covered: int, reps: int, lo, hi) -> bool:
    if lo is not None and binom.cdf(covered, reps, lo) < COVERAGE_ALPHA:
        return False
    if hi is not None and binom.sf(covered - 1, reps, hi) < COVERAGE_ALPHA:
        return False
    return True


def check_monte_carlo(fits: dict, contrasts: dict, gates: dict, failures: list) -> None:
    """Bias and coverage gates; fits maps a method to a list of fits, one
    per distinct replication."""
    for (method, name), (bias_lo, bias_hi, cov_lo, cov_hi) in gates.items():
        runs = fits.get(method, [])
        reps = len(runs)
        if reps == 0:
            failures.append(f"mc [{method} {name}]: no successful replication")
            continue
        truth = contrasts[name]
        psi = np.array([f[name][0] for f in runs])
        se = np.array([f[name][1] for f in runs])
        bias = float(psi.mean() - truth)
        mcse = float(np.sqrt(np.mean(se ** 2) / reps))
        slack = BIAS_Z * mcse
        if not ((bias_lo is None or bias >= bias_lo - slack)
                and (bias_hi is None or bias <= bias_hi + slack)):
            failures.append(
                f"mc bias [{method} {name}]: {bias:.4f} outside [{bias_lo}, {bias_hi}] "
                f"widened by {BIAS_Z:g} x mcse {mcse:.4f} ({reps} reps)")
        covered = int(sum(f[name][2] <= truth <= f[name][3] for f in runs))
        if not _coverage_ok(covered, reps, cov_lo, cov_hi):
            failures.append(
                f"mc coverage [{method} {name}]: {covered}/{reps} outside "
                f"[{cov_lo}, {cov_hi}] at binomial tail {COVERAGE_ALPHA:g}")
