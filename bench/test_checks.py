"""The benchmark's correctness checks must be able to fail.

Each workload's check passes on outputs built around the truth and trips
on a deliberately wrong truth and on a broken telescoping sum.
"""

import numpy as np
import pytest

import checks
import truth
from shadowpse.simulation import DgpConfig

TRUTH = truth.truth(DgpConfig())["contrasts"]
Z = 1.959963984540054

# workload -> method -> (bias of nde and so of te, reported se)
METHODS = {
    "estimate-csv-1e5": {"sri": (0.0, 0.02)},
    "mc-sri-1e3": {"oracle": (0.0, 0.15), "sri": (0.0, 0.19)},
    "mc-mi-2e3": {"cca": (-0.70, 0.10), "mi": (-0.10, 0.15)},
}
GATES = {"mc-sri-1e3": checks.GATES_SRI_1E3, "mc-mi-2e3": checks.GATES_MI_2E3}


def make_fit(rng, bias, se, contrasts):
    """A fit whose parts telescope exactly, scattered around truth + bias."""
    psi = {name: contrasts[name] + se * rng.standard_normal() for name in
           ("nde", "nie_1", "nie_2")}
    psi["nde"] += bias
    psi["te"] = psi["nde"] + psi["nie_1"] + psi["nie_2"]
    ses = {"nde": se, "nie_1": se, "nie_2": se, "te": np.sqrt(3.0) * se}
    return {name: (p, ses[name], p - Z * ses[name], p + Z * ses[name])
            for name, p in psi.items()}


def outputs(workload, reps=200, seed=0):
    rng = np.random.default_rng(seed)
    methods = METHODS[workload]
    if workload == "estimate-csv-1e5":
        bias, se = methods["sri"]
        return [make_fit(rng, bias, se, TRUTH) for _ in range(3)]
    return {m: {i: make_fit(rng, bias, se, TRUTH) for i in range(reps)}
            for m, (bias, se) in methods.items()}


def run_checks(workload, fits, contrasts):
    failures = []
    if workload == "estimate-csv-1e5":
        checks.check_estimates(fits, contrasts, failures)
    else:
        checks.check_replications(fits, contrasts, GATES[workload], failures)
    return failures


def all_fits(workload, fits):
    if workload == "estimate-csv-1e5":
        return fits
    return [fit for by_rep in fits.values() for fit in by_rep.values()]


@pytest.mark.parametrize("workload", sorted(METHODS))
def test_checks_pass_on_outputs_around_the_truth(workload):
    assert run_checks(workload, outputs(workload), TRUTH) == []


# Criterion 3 bounds the mi nde bias from above only, so on mc-mi-2e3 a
# truth shifted upwards is caught through the cca te band alone.
SHIFTS = [(w, name, shift) for w in sorted(METHODS) for name in ("nde", "te")
          for shift in (-0.5, 0.5) if (w, name, shift) != ("mc-mi-2e3", "nde", 0.5)]


@pytest.mark.parametrize("workload,name,shift", SHIFTS)
def test_shifted_truth_trips(workload, name, shift):
    wrong = dict(TRUTH, **{name: TRUTH[name] + shift})
    failures = run_checks(workload, outputs(workload), wrong)
    assert any(name in line for line in failures), failures


@pytest.mark.parametrize("workload", sorted(METHODS))
def test_broken_telescoping_trips(workload):
    fits = outputs(workload)
    fit = all_fits(workload, fits)[0]
    psi, se, lo, hi = fit["te"]
    fit["te"] = (psi + 1e-8, se, lo, hi)
    failures = run_checks(workload, fits, TRUTH)
    assert any(line.startswith("telescoping") for line in failures), failures


@pytest.mark.parametrize("workload", sorted(METHODS))
def test_degenerate_interval_trips(workload):
    fits = outputs(workload)
    fit = all_fits(workload, fits)[0]
    psi = fit["nde"][0]
    fit["nde"] = (psi, 0.0, psi, psi)
    failures = run_checks(workload, fits, TRUTH)
    assert any(line.startswith("interval") for line in failures), failures


def test_short_runs_keep_the_gates_open_to_chance_only():
    """Two replications centred on the truth pass; two far off fail."""
    assert run_checks("mc-sri-1e3", outputs("mc-sri-1e3", reps=2), TRUTH) == []
    wrong = {name: v + 1.0 for name, v in TRUTH.items()}
    assert run_checks("mc-sri-1e3", outputs("mc-sri-1e3", reps=2), wrong)


def test_no_estimate_trips():
    failures = run_checks("estimate-csv-1e5", [], TRUTH)
    assert any(line.startswith("estimates") for line in failures), failures


def test_cli_exit_trips(monkeypatch, tmp_path):
    # run.py pins the BLAS thread variables when imported; setting them
    # here first lets monkeypatch restore them after the test.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    import run

    wl = run.EstimateCsv(0, str(tmp_path))
    wl.truth = {"contrasts": TRUTH}
    monkeypatch.setattr(wl, "_estimate", lambda csv, desc: 2)
    wl.run_op(0)
    wl.check(gates=True)
    assert (wl.attempted, wl.failed) == (1, 1)
    assert any(line.startswith("cli exit") for line in wl.failures), wl.failures
