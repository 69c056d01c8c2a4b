"""Benchmark data-generating process, structural truth, Monte Carlo.

Two ordered mediators, one covariate subject to missingness (x1), two
always-observed covariates (x2 binaryless uniform, x3 binary) and a
shadow variable z that shares the latent normal driver of x1 but never
enters the outcome, mediator or missingness equations. Missingness
depends on x1 and on the mediator/outcome noises, so it is nonignorable
with roughly 43.7 percent of x1 missing at the default coefficients.

Streams are counter-based (Philox): replication i of a run with master
seed s draws from SeedSequence(entropy=s, spawn_key=(i,)), and internal
consumers (multiple imputation) use spawn_key=(i, 1). Results are
therefore independent of execution order and worker count.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from itertools import product
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit, ndtr

from . import baselines
from .data_model import Dataset
from .errors import ConfigError, EstimationError
from .estimator import TreatmentProfile, named_estimand

# ---- structural configuration -----------------------------------------


@dataclass(frozen=True)
class TreatEq:
    icept: float = -0.1
    x1: float = 1.0
    x2: float = -1.0
    x3: float = 0.2


@dataclass(frozen=True)
class M1Eq:
    icept: float = -1.0
    a: float = 0.5
    sin_x1: float = -2.0
    x1_sq: float = 3.0
    x2: float = -2.0
    x3: float = 1.0


@dataclass(frozen=True)
class M2Eq:
    icept: float = 1.0
    a: float = -0.5
    x1: float = 1.0
    x2_sq: float = 1.0
    x3: float = -1.0
    a_m1: float = -0.5


@dataclass(frozen=True)
class YEq:
    icept: float = -1.0
    a: float = 0.5
    m1: float = -1.5
    m2: float = 1.5
    x1: float = 3.0
    x1_sq: float = 3.0
    sin_x2: float = -3.0
    x2_sq: float = 1.0
    x3: float = -1.0
    a_m1: float = 0.5
    a_m2: float = 0.5


@dataclass(frozen=True)
class MissEq:
    icept: float = 0.1
    x1: float = -2.0
    x2: float = 1.5
    x3: float = 1.0
    a_eps3: float = 0.5
    a_eps4: float = -0.5
    eps5: float = -0.1


@dataclass(frozen=True)
class DgpConfig:
    """All structural coefficients plus sample size and seed."""

    n: int = 1000
    seed: int = 0
    alpha: float = 0.6  # corr driver between the shadow z and x1
    treat: TreatEq = TreatEq()
    m1: M1Eq = M1Eq()
    m2: M2Eq = M2Eq()
    y: YEq = YEq()
    miss: MissEq = MissEq()

    def __post_init__(self) -> None:
        if not abs(self.alpha) <= 1.0:  # also refuses NaN
            raise ConfigError(f"alpha must be a correlation in [-1, 1], got {self.alpha}")

    def without_treatment_effects(self) -> "DgpConfig":
        """Zero every A coefficient in the outcome-relevant equations."""
        return replace(
            self,
            m1=replace(self.m1, a=0.0),
            m2=replace(self.m2, a=0.0, a_m1=0.0),
            y=replace(self.y, a=0.0, a_m1=0.0, a_m2=0.0),
        )


def _m1_mean(c: M1Eq, a, x1, x2, x3):
    return c.icept + c.a * a + c.sin_x1 * np.sin(x1) + c.x1_sq * x1 ** 2 + c.x2 * x2 + c.x3 * x3


def _m2_mean(c: M2Eq, a, x1, x2, x3, m1):
    return c.icept + c.a * a + c.x1 * x1 + c.x2_sq * x2 ** 2 + c.x3 * x3 + c.a_m1 * a * m1


def _y_mean(c: YEq, a, x1, x2, x3, m1, m2):
    return (
        c.icept + c.a * a + c.m1 * m1 + c.m2 * m2 + c.x1 * x1 + c.x1_sq * x1 ** 2
        + c.sin_x2 * np.sin(x2) + c.x2_sq * x2 ** 2 + c.x3 * x3
        + c.a_m1 * a * m1 + c.a_m2 * a * m2
    )


def _miss_logit(c: MissEq, a, x1, x2, x3, eps3, eps4, eps5):
    return (
        c.icept + c.x1 * x1 + c.x2 * x2 + c.x3 * x3
        + c.a_eps3 * a * eps3 + c.a_eps4 * a * eps4 + c.eps5 * eps5
    )


def _rng_for(seed_or_seq) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_or_seq))


def generate(config: DgpConfig, rng: Optional[np.random.Generator] = None) -> tuple[Dataset, Dataset]:
    """Draw one sample; returns (full, observed).

    The full dataset keeps x1 for every record alongside the drawn r
    (for oracle estimation and diagnostics; it fails validate() by
    design). The observed dataset blanks x1 wherever r = 0.
    """
    rng = _rng_for(config.seed) if rng is None else rng
    n = config.n
    eps = rng.standard_normal((n, 5))
    u_x2 = rng.random(n)
    u_x3 = rng.random(n)
    u_a = rng.random(n)
    u_r = rng.random(n)

    x1 = ndtr(config.alpha * eps[:, 0] + np.sqrt(1.0 - config.alpha ** 2) * eps[:, 1])
    z = ndtr(eps[:, 0])
    x2 = u_x2
    x3 = (u_x3 < 0.5).astype(float)
    t = config.treat
    a = (u_a < expit(t.icept + t.x1 * x1 + t.x2 * x2 + t.x3 * x3)).astype(int)
    m1 = _m1_mean(config.m1, a, x1, x2, x3) + eps[:, 2]
    m2 = _m2_mean(config.m2, a, x1, x2, x3, m1) + eps[:, 3]
    y = _y_mean(config.y, a, x1, x2, x3, m1, m2) + eps[:, 4]
    eta = _miss_logit(config.miss, a, x1, x2, x3, eps[:, 2], eps[:, 3], eps[:, 4])
    r = (u_r < expit(eta)).astype(int)

    xo = np.column_stack([x2, x3])
    full = Dataset(r=r, z=z, x_miss=x1, x_obs=xo, a=a, m=(m1, m2), y=y)
    xm_obs = np.where(r == 1, x1, np.nan)
    observed = Dataset(r=r, z=z, x_miss=xm_obs, x_obs=xo, a=a, m=(m1, m2), y=y)
    return full, observed


def true_gamma_values(full: Dataset, config: DgpConfig) -> np.ndarray:
    """Exact odds f(R=0|record)/f(R=1|record) for every record.

    The noises are recovered from the structural equations, so this
    needs the full dataset (x1 present everywhere).
    """
    x1 = full.x_miss[:, 0]
    x2, x3 = full.x_obs[:, 0], full.x_obs[:, 1]
    a = full.a
    m1, m2 = full.m[0][:, 0], full.m[1][:, 0]
    eps3 = m1 - _m1_mean(config.m1, a, x1, x2, x3)
    eps4 = m2 - _m2_mean(config.m2, a, x1, x2, x3, m1)
    eps5 = full.y - _y_mean(config.y, a, x1, x2, x3, m1, m2)
    return np.exp(-_miss_logit(config.miss, a, x1, x2, x3, eps3, eps4, eps5))


# ---- structural truth --------------------------------------------------


@dataclass
class TruthTable:
    psi: dict[TreatmentProfile, float]
    psi_mcse: dict[TreatmentProfile, float]
    contrasts: dict[str, float]
    contrast_mcse: dict[str, float]
    big_n: int
    seed: int

    def to_dict(self) -> dict:
        key = lambda p: "".join(str(a) for a in p)
        return {
            "big_n": self.big_n,
            "seed": self.seed,
            "psi": {key(p): v for p, v in self.psi.items()},
            "psi_mcse": {key(p): v for p, v in self.psi_mcse.items()},
            "contrasts": dict(self.contrasts),
            "contrast_mcse": dict(self.contrast_mcse),
        }


STANDARD_ESTIMANDS = ("nde", "nie_1", "nie_2", "te")
TRUTH_SEED = 20260814


def true_effects(config: DgpConfig, big_n: int = 10 ** 6, seed: int = TRUTH_SEED) -> TruthTable:
    """Counterfactual means by simulating the structural equations.

    Mediator k follows its own profile entry and downstream equations
    consume the counterfactual upstream values; treatment assignment
    and missingness play no role. Common noise draws across profiles
    shrink the Monte-Carlo error of every contrast.
    """
    rng = _rng_for(seed)
    x1 = ndtr(config.alpha * rng.standard_normal(big_n)
              + np.sqrt(1.0 - config.alpha ** 2) * rng.standard_normal(big_n))
    x2 = rng.random(big_n)
    x3 = (rng.random(big_n) < 0.5).astype(float)
    eps3 = rng.standard_normal(big_n)
    eps4 = rng.standard_normal(big_n)
    eps5 = rng.standard_normal(big_n)

    draws: dict[TreatmentProfile, np.ndarray] = {}
    for prof in product((0, 1), repeat=3):
        a1, a2, a3 = prof
        m1 = _m1_mean(config.m1, a1, x1, x2, x3) + eps3
        m2 = _m2_mean(config.m2, a2, x1, x2, x3, m1) + eps4
        yv = _y_mean(config.y, a3, x1, x2, x3, m1, m2) + eps5
        draws[prof] = yv
    psi = {p: float(v.mean()) for p, v in draws.items()}
    mcse = {p: float(v.std(ddof=1) / np.sqrt(big_n)) for p, v in draws.items()}
    contrasts, cmcse = {}, {}
    for name in STANDARD_ESTIMANDS:
        pa, pb = named_estimand(name, 2)
        delta = draws[pa] - draws[pb]
        contrasts[name] = float(delta.mean())
        cmcse[name] = float(delta.std(ddof=1) / np.sqrt(big_n))
    return TruthTable(
        psi=psi, psi_mcse=mcse, contrasts=contrasts, contrast_mcse=cmcse,
        big_n=big_n, seed=seed,
    )


# ---- Monte-Carlo harness ------------------------------------------------


# replications a cell statistic needs to be defined; with fewer it is
# NaN in CellStats and null in the JSON summary
_LEAST_REPS = {"bias": 1, "cp": 1, "mcse_cp": 1, "se": 2, "mcse_bias": 2}


@dataclass
class CellStats:
    bias: float
    se: float
    cp: float
    mcse_bias: float
    mcse_cp: float
    reps_used: int
    n_fail: int


@dataclass
class McResult:
    settings_summary: dict
    truth: dict[str, float]
    cells: dict[tuple[str, str], CellStats]
    raw: dict[tuple[str, str], np.ndarray]  # (method, estimand) -> points
    failures: dict[str, list[str]]

    def to_csv(self, path: str) -> None:
        """Table layout: one row per method and metric, estimands as columns."""
        methods = self.settings_summary["methods"]
        estimands = self.settings_summary["estimands"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "metric", *estimands])
            for method in methods:
                for metric in ("bias", "se", "cp"):
                    row = [method, metric]
                    for est in estimands:
                        cell = self.cells[(method, est)]
                        row.append(repr(getattr(cell, metric)))
                    writer.writerow(row)

    def to_json_dict(self) -> dict:
        out = {
            "settings": self.settings_summary,
            "truth": dict(self.truth),
            "cells": {},
            "failures": {m: list(v) for m, v in self.failures.items()},
        }
        for (method, est), cell in self.cells.items():
            out["cells"].setdefault(method, {})[est] = {
                name: None if cell.reps_used < _LEAST_REPS.get(name, 0) else value
                for name, value in asdict(cell).items()}
        return out


def _one_rep(args: tuple) -> dict:
    """Run every method on one replication; args is (config, methods,
    estimands, options, master_seed, i)."""
    config, methods, estimands, options, master_seed, i = args
    rng = _rng_for(np.random.SeedSequence(entropy=master_seed, spawn_key=(i,)))
    full, observed = generate(config, rng=rng)
    out: dict = {}
    for method in methods:
        try:
            res = baselines.run_method(
                method, full if method == "oracle" else observed, estimands, options,
                seed=np.random.SeedSequence(entropy=master_seed, spawn_key=(i, 1)),
            )
        except EstimationError as exc:
            out[method] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        out[method] = {
            "estimands": {
                name: (rep.psi_hat, rep.ci_lo, rep.ci_hi)
                for name, rep in res.estimands.items()
            },
        }
    return out


@contextmanager
def _one_blas_thread_env():
    """Set the BLAS thread-count variables to 1 inside the block, then
    restore them, so that processes started in it run one BLAS thread
    each. The current process's BLAS, already loaded, is left as it is."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {name: os.environ.get(name) for name in names}
    os.environ.update(dict.fromkeys(names, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_monte_carlo(
    config: DgpConfig,
    reps: int,
    methods: Sequence[str],
    estimands: Sequence[str] = STANDARD_ESTIMANDS,
    master_seed: int = 0,
    workers: int = 1,
    truth: Optional[TruthTable] = None,
    options: baselines.MethodOptions = baselines.MethodOptions(),
    truth_big_n: int = 10 ** 6,
) -> McResult:
    """Replicate the benchmark and score each method against the truth.

    Replications are independent tasks with their own substreams, so
    the result is identical for any worker count and bit-identical for
    a fixed master seed. With workers > 1 they run in spawned processes
    with one BLAS thread each: the replications' products are small, so
    more BLAS threads than cores only contend (a fork pool inheriting
    the default thread count ran slower than one process). An unknown
    method or an estimand the truth table lacks raises ConfigError
    before any replication runs.
    """
    unknown = [m for m in methods if m not in baselines.METHODS]
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; choose from {', '.join(baselines.METHODS)}")
    if truth is None:
        truth = true_effects(config, big_n=truth_big_n)
    missing = [e for e in estimands if e not in truth.contrasts]
    if missing:
        raise ConfigError(f"no true value for estimands {missing}; "
                          f"the truth table holds {sorted(truth.contrasts)}")

    tasks = [(config, methods, estimands, options, master_seed, i) for i in range(reps)]
    if workers > 1:
        context = multiprocessing.get_context("spawn")
        with _one_blas_thread_env(), ProcessPoolExecutor(workers, mp_context=context) as pool:
            results = list(pool.map(_one_rep, tasks, chunksize=max(1, reps // (8 * workers))))
    else:
        results = [_one_rep(t) for t in tasks]

    cells: dict[tuple[str, str], CellStats] = {}
    raw: dict[tuple[str, str], np.ndarray] = {}
    failures: dict[str, list[str]] = {m: [] for m in methods}
    for method in methods:
        ok = [res[method] for res in results if "error" not in res[method]]
        for i, res in enumerate(results):
            if "error" in res[method]:
                failures[method].append(f"rep {i}: {res[method]['error']}")
        for est in estimands:
            pts = np.array([res["estimands"][est][0] for res in ok])
            lo = np.array([res["estimands"][est][1] for res in ok])
            hi = np.array([res["estimands"][est][2] for res in ok])
            tval = truth.contrasts[est]
            used = len(pts)
            cover = ((lo <= tval) & (tval <= hi)).astype(float)
            bias = float(pts.mean() - tval) if used else float("nan")
            se = float(pts.std(ddof=1)) if used > 1 else float("nan")
            cp = float(cover.mean()) if used else float("nan")
            cells[(method, est)] = CellStats(
                bias=bias, se=se, cp=cp,
                mcse_bias=se / np.sqrt(used) if used > 1 else float("nan"),
                mcse_cp=float(np.sqrt(max(cp * (1 - cp), 0.0) / used)) if used else float("nan"),
                reps_used=used, n_fail=reps - used,
            )
            raw[(method, est)] = pts
    summary = {
        "n": config.n,
        "reps": reps,
        "master_seed": master_seed,
        "methods": list(methods),
        "estimands": list(estimands),
        "level": options.level,
        **asdict(options.sieve),
        "mi_m": options.mi_m,
        "truth_big_n": truth.big_n,
        "truth_seed": truth.seed,
        "dgp": asdict(config),
    }
    return McResult(
        settings_summary=summary,
        truth={e: truth.contrasts[e] for e in estimands},
        cells=cells, raw=raw, failures=failures,
    )
