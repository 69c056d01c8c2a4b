"""Workload benchmark for shadowpse.

Run from the repository root:

    python3 bench/run.py --workload mc-sri-1e3 --seed 1 --seconds 30 --trace 0

The program is imported from ./src. Set-up (imports, data, truth) is
timed apart from the measured operations, which run one after another
for --seconds. Where operations are short, a reference kernel timed
between them scales the timings to a nominal host speed (speed.py). Every
operation's output is checked; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end
ones, with --trace 1 the per-layer ones from a traced run (see spans.py).
The exit code is 0 only when every check passed. README.md has the
workloads, metrics and reference figures.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads, so that on a small host the
# figures measure the program and not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

T_START = time.perf_counter()
import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import truth  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The workloads and metrics are the ones BENCHMARK.json names.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_REPEATS = 3
SETUP_REF_S = 0.15  # reference kernel time after each set-up repetition
REF_SHARE = 0.1  # reference kernel time after each operation, as a share of it
FIELDS = ("r", "z", "x_miss", "x_obs", "a", "y")


def import_program():
    """Import the package from ./src and nowhere else."""
    init = os.path.join(SRC, "shadowpse", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: program source not found at {init}")
    sys.path.insert(0, SRC)
    import shadowpse

    if os.path.realpath(shadowpse.__file__) != os.path.realpath(init):
        sys.exit(f"bench: imported {shadowpse.__file__}, expected {init}")


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        return False
    if x.dtype.kind == "f" or y.dtype.kind == "f":
        x, y = x.astype(float), y.astype(float)
        nan = np.isnan(x)
        return bool(np.array_equal(nan, np.isnan(y))
                    and np.array_equal(x[~nan].view(np.uint64), y[~nan].view(np.uint64)))
    return bool(np.array_equal(x, y))


def fit_of(reports: dict) -> dict:
    """{estimand: (psi_hat, se, ci_lo, ci_hi)} from InferenceReport dicts."""
    return {name: tuple(float(rep[key]) for key in ("psi_hat", "se", "ci_lo", "ci_hi"))
            for name, rep in reports.items()}


class Workload:
    """One benchmark workload: set-up, one operation, and its checks.

    `run_op(i)` performs operation i and returns its wall time; operation i
    always sees the same inputs for a given seed. A traced round is the
    operations 0 .. round_ops-1.
    """

    round_ops = 1
    # Timings scaled by the reference kernel (speed.py); only where an
    # operation is short against the host's speed swings.
    speed_scaled = True

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed checks on what set-up made."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int) -> float:
        raise NotImplementedError

    def check(self, gates: bool) -> None:
        """Score the outputs; `gates` adds the checks over all operations."""
        raise NotImplementedError


class EstimateCsv(Workload):
    """`shadowpse estimate --method sri` on one n=1e5 draw, through cli.main."""

    n = 100_000
    speed_scaled = False  # one call takes about ten seconds

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.csv = os.path.join(work, "data.csv")
        self.desc = os.path.join(work, "data.json")
        self.out = os.path.join(work, "estimate.json")
        self.fits: list[dict] = []

    def setup(self):
        from shadowpse import data_model, simulation

        _, observed = simulation.generate(simulation.DgpConfig(n=self.n, seed=self.seed))
        data_model.write_csv(observed, self.csv)
        data_model.write_descriptor(observed, self.desc)
        self.observed = observed
        self.truth = truth.truth(simulation.DgpConfig(n=self.n))

    def after_setup(self):
        from shadowpse import data_model

        back = data_model.read_csv(self.csv, self.desc)
        bad = [f for f in FIELDS if not same_bits(getattr(self.observed, f), getattr(back, f))]
        bad += [f"m{k + 1}" for k, (x, y) in enumerate(zip(self.observed.m, back.m))
                if not same_bits(x, y)]
        if bad:
            self.failures.append(f"csv round trip: columns {bad} differ from the generated arrays")

    def _estimate(self, csv: str, desc: str) -> int:
        from shadowpse import cli

        return cli.main(["estimate", "--method", "sri", "--data", csv,
                         "--descriptor", desc, "--out", self.out])

    def warm_up(self):
        from shadowpse import data_model, simulation

        _, small = simulation.generate(simulation.DgpConfig(n=2000, seed=self.seed))
        csv, desc = os.path.join(self.work, "warm.csv"), os.path.join(self.work, "warm.json")
        data_model.write_csv(small, csv)
        data_model.write_descriptor(small, desc)
        self._estimate(csv, desc)

    def run_op(self, i):
        start = time.perf_counter()
        rc = self._estimate(self.csv, self.desc)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.failures.append(f"cli exit [estimate call {i}]: rc={rc}")
            return elapsed
        with open(self.out) as fh:
            self.fits.append(fit_of(json.load(fh)["estimands"]))
        return elapsed

    def check(self, gates):
        checks.check_estimates(self.fits, self.truth["contrasts"], self.failures)


class MonteCarlo(Workload):
    """Replications through run_monte_carlo, one call (reps=1) per operation.

    Replication i uses the master seed drawn from (seed, i). The method
    results behind each replication are captured at the top-level calls
    of the baselines estimators, for the per-fit checks.
    """

    def __init__(self, seed, work, n, methods, gates, round_ops):
        super().__init__(seed, work)
        self.n = n
        self.methods = methods
        self.gates = gates
        self.round_ops = round_ops
        self.fits: dict[str, dict[int, dict]] = {m: {} for m in methods}
        self.captured: dict = {}
        self._depth = 0
        from shadowpse import baselines

        for name in ("oracle_estimate", "sri_estimate", "cca_estimate", "mi_estimate"):
            fn = getattr(baselines, name)
            spans.patch_everywhere(fn, self._capturing(fn))

    def master_seed(self, *key) -> int:
        return int(np.random.SeedSequence([self.seed, *key]).generate_state(1)[0])

    def setup(self):
        from shadowpse import simulation

        self.config = simulation.DgpConfig(n=self.n)
        t = truth.truth(self.config)
        profiles = {tuple(int(c) for c in key): v for key, v in t["psi"].items()}
        self.truth = t
        self.table = simulation.TruthTable(
            psi=profiles, psi_mcse={p: 0.0 for p in profiles},
            contrasts=t["contrasts"], contrast_mcse={e: 0.0 for e in t["contrasts"]},
            big_n=0, seed=0,
        )

    def _capturing(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth += 1
            try:
                res = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.captured[res.method] = res
            return res
        return wrapper

    def _replicate(self, master: int):
        from shadowpse import simulation

        self.captured = {}
        return simulation.run_monte_carlo(
            self.config, reps=1, methods=self.methods, estimands=checks.ESTIMANDS,
            master_seed=master, workers=1, truth=self.table,
        )

    def warm_up(self):
        self._replicate(self.master_seed(1))

    def run_op(self, i):
        start = time.perf_counter()
        res = self._replicate(self.master_seed(0, i))
        elapsed = time.perf_counter() - start
        for method in self.methods:
            self.attempted += 1
            errors = res.failures.get(method, [])
            if errors:
                self.failed += len(errors)
                continue
            label = f"rep {i} {method}"
            got = self.captured.get(method)
            if got is None:
                self.failures.append(f"capture [{label}]: no top-level {method} result seen")
                continue
            fit = fit_of({e: rep.to_dict() for e, rep in got.estimands.items()})
            drift = [e for e in fit if res.raw[(method, e)].tolist() != [fit[e][0]]]
            if drift:
                self.failures.append(f"harness [{label}]: McResult points differ on {drift}")
            self.fits[method][i] = fit
        return elapsed

    def check(self, gates):
        checks.check_replications(self.fits, self.truth["contrasts"],
                                  self.gates if gates else {}, self.failures)


# workload -> (n, methods, acceptance gates, operations in a traced round)
MONTE_CARLO = {
    "mc-sri-1e3": (1000, ("oracle", "sri"), checks.GATES_SRI_1E3, 10),
    "mc-mi-2e3": (2000, ("cca", "mi"), checks.GATES_MI_2E3, 4),
}


def make_workload(name: str, seed: int, work: str) -> Workload:
    if name == "estimate-csv-1e5":
        return EstimateCsv(seed, work)
    return MonteCarlo(seed, work, *MONTE_CARLO[name])


def measure(wl: Workload, seconds: float, ref: speed.Reference) -> list:
    """Operations 0, 1, 2, ... until `seconds` have passed, each followed
    by the reference kernel for REF_SHARE of the operation's time."""
    times = []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        times.append(wl.run_op(len(times)))
        ref.sample(REF_SHARE * times[-1])
    return times


def measure_traced(wl: Workload, seconds: float,
                   ref: speed.Reference) -> tuple[dict, float, int]:
    """Pairs of plain and traced rounds of the same operations, the order
    within a pair alternating, until `seconds` have passed. Each traced
    round is followed by the reference kernel, as in `measure`.

    Returns the tracer's totals, the traced-over-plain ratio of median
    round times, and the number of traced operations.
    """
    tracer = spans.Tracer()
    plain, traced = [], []

    def plain_round():
        plain.append(sum(wl.run_op(i) for i in range(wl.round_ops)))

    def traced_round():
        tracer.install()
        try:
            total = 0.0
            for i in range(wl.round_ops):
                total += wl.run_op(i)
        finally:
            tracer.uninstall()
        traced.append(total)
        ref.sample(REF_SHARE * total)

    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        first, second = (plain_round, traced_round) if len(traced) % 2 == 0 \
            else (traced_round, plain_round)
        first()
        second()
    ratio = statistics.median(traced) / statistics.median(plain)
    return tracer.totals(), ratio, len(traced) * wl.round_ops


# Per-layer metric -> key in Tracer.totals(), where the names differ.
LAYER_SOURCES = {
    "gamma_solver.starts": "gamma_solver.fit_gamma_starts",
    "baselines.sri_s": "baselines.sri_estimate_s",
    "baselines.oracle_s": "baselines.oracle_estimate_s",
    "baselines.cca_s": "baselines.cca_estimate_s",
    "baselines.mi_s": "baselines.mi_estimate_s",
}


def layer_metrics(totals: dict, ratio: float, ops: int, scale: float) -> dict:
    """Per-operation figures; seconds are scaled to the nominal host speed."""
    useful = totals.get("gamma_solver.fit_gamma_useful_nfev", 0.0)
    nfev = totals.get("gamma_solver.trf_nfev", 0)
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            value = ratio
        elif name == "gamma_solver.useful_nfev_ratio":
            value = useful / nfev if nfev else 0.0
        else:
            value = totals.get(LAYER_SOURCES.get(name, name), 0.0) / ops
            if name.endswith("_s"):
                value *= scale
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import_s = time.perf_counter() - T_START
    work = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        wl = make_workload(args.workload, args.seed, work)
        setup_ref = speed.Reference(wl.speed_scaled)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
            setup_ref.sample(SETUP_REF_S)
        setup_raw = import_s + statistics.median(setups)
        setup_s = setup_raw * setup_ref.scale()
        wl.after_setup()
        start = time.perf_counter()
        wl.warm_up()
        warm_s = time.perf_counter() - start
        ref = speed.Reference(wl.speed_scaled)
        if args.trace:
            totals, ratio, ops = measure_traced(wl, args.seconds, ref)
            metrics = layer_metrics(totals, ratio, ops, ref.scale())
            summary = f"traced ops={ops} overhead={ratio:.3f} speed scale={ref.scale():.3f}"
        else:
            times = measure(wl, args.seconds, ref)
            p50 = statistics.median(times)
            scale = ref.scale()
            values = {
                "setup_s": setup_s,
                "op_s_p50": p50 * scale,
                "ops_per_s": len(times) / sum(times) / scale,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
            summary = (f"ops={len(times)} speed scale={scale:.3f} "
                       f"unscaled: p50={p50:.4f}s")
            if len(times) >= 100:  # at least ten operations lie beyond the p90
                summary += f" p90={statistics.quantiles(times, n=10)[-1]:.4f}s"
        # A traced run repeats a few operations, too few for the gates.
        wl.check(gates=not args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"bench {args.workload} seed={args.seed}: {summary} setup={setup_raw:.3f}s "
          f"warm-up={warm_s:.3f}s "
          f"attempted={wl.attempted} failed={wl.failed}", file=sys.stderr)
    for line in wl.failures:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not wl.failures, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if not wl.failures else 1


if __name__ == "__main__":
    sys.exit(main())
