"""Property tests: invariants checked over generated inputs."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shadowpse import cli
from shadowpse.baselines import cca_estimate, mi_estimate, oracle_estimate, sri_estimate
from shadowpse.data_model import Dataset, read_csv, write_csv, write_descriptor
from shadowpse.errors import EmptyArm, EmptyResult, InsufficientCompleteCases
from shadowpse.simulation import DgpConfig, generate

from support import one_mediator_dataset, rng_for, seq

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
            1.7976931348623157e308]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64),
                   st.sampled_from(EXTREMES))


@st.composite
def datasets(draw):
    """A dataset of random finite float64 blocks, x_miss NaN where r = 0."""
    n = draw(st.integers(1, 25))
    widths = [draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2)),
              *draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))]
    cells = draw(arrays(np.float64, (n, sum(widths) + 1), elements=FINITE))
    r = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    a = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    z, x_miss, x_obs, *m, y = np.split(cells, np.cumsum(widths), axis=1)
    x_miss[r == 0] = np.nan
    return Dataset(r=r, z=z, x_miss=x_miss, x_obs=x_obs, a=a, m=tuple(m), y=y[:, 0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ds=datasets())
def test_csv_round_trip_keeps_every_bit(ds, tmp_path_factory):
    """read_csv(write_csv(ds)) gives back the same bits in every column,
    subnormals, signed zeros and the largest doubles included."""
    folder = tmp_path_factory.getbasetemp()
    data, desc = folder / "prop.csv", folder / "prop.json"
    write_csv(ds, str(data))
    write_descriptor(ds, str(desc))
    back = read_csv(str(data), str(desc))
    assert back.dims == ds.dims
    pairs = [(back.r, ds.r), (back.a, ds.a), (back.y, ds.y), (back.z, ds.z),
             (back.x_miss, ds.x_miss), (back.x_obs, ds.x_obs), *zip(back.m, ds.m)]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# How far a row permutation or an affine rescale may move psi_hat and
# se. cca solves only linear systems, so the drift is rounding (at most
# 4e-14 measured). sri also descends on the odds criterion; its Newton
# polish stops at a gradient norm of 1e-11 after quadratic steps, which
# pins the end point to rounding as well (at most 1.5e-14 measured over
# 20 draws at n = 600).
PERMUTATION_DRIFT = {"cca": 1e-10, "sri": 1e-10}


def assert_same_estimates(obs, other):
    """sri and cca give psi_hat and se on other within PERMUTATION_DRIFT
    of those on obs."""
    for estimate in (sri_estimate, cca_estimate):
        want, got = estimate(obs), estimate(other)
        tol = PERMUTATION_DRIFT[want.method]
        assert got.estimands.keys() == want.estimands.keys()
        for name, rep in want.estimands.items():
            assert abs(got.estimands[name].psi_hat - rep.psi_hat) <= tol, (want.method, name)
            assert abs(got.estimands[name].se - rep.se) <= tol, (want.method, name)


@pytest.mark.parametrize("draw", range(5))
def test_row_permutation_leaves_estimates_unchanged(draw):
    """sri and cca give the same psi_hat and se on a sample and on the
    same records in another order: the estimators are functions of the
    empirical distribution, not of the row order."""
    _, obs = generate(DgpConfig(n=600, seed=seq(2, draw)))
    assert_same_estimates(obs, obs.subset(rng_for(3, draw).permutation(obs.n)))


@pytest.mark.parametrize("draw", range(5))
def test_affine_rescale_leaves_estimates_unchanged(draw):
    """An affine map of a continuous covariate, sign flips included,
    leaves sri's and cca's psi_hat and se unchanged: every sieve basis
    standardizes its coordinates, and a power basis in a*u + b spans the
    same functions as one in u. NaN x_miss cells stay NaN."""
    _, obs = generate(DgpConfig(n=600, seed=seq(2, draw)))
    x_obs = obs.x_obs.copy()
    x_obs[:, 0] = 3.7 * x_obs[:, 0] - 1.2
    rescaled = replace(obs, z=0.25 * obs.z + 5.0, x_miss=-2.0 * obs.x_miss + 0.5, x_obs=x_obs)
    assert_same_estimates(obs, rescaled)


# How far sri may sit from cca under MCAR, in cca standard errors. Both
# are consistent there and differ only by sampling noise: over 60 fresh
# draws at n = 2000 with 30% of x_miss blanked at random, |sri - cca| / se
# had medians of 0.30-0.42 and maxima of 1.10 (nde), 1.29 (nie_1),
# 1.27 (nie_2) and 1.93 (te).
MCAR_AGREEMENT_SE = 3.0


@pytest.mark.parametrize("draw", range(8))
def test_sri_agrees_with_cca_when_x_miss_is_missing_completely_at_random(draw):
    """With r drawn independently of the data, the odds are constant and
    the complete cases are a random subsample, so sri and cca estimate
    the same effects: on every estimand they differ by at most
    MCAR_AGREEMENT_SE of cca's standard error."""
    full, _ = generate(DgpConfig(n=2000, seed=seq(310, draw)))
    r = (rng_for(311, draw).random(full.n) < 0.7).astype(int)
    obs = replace(full, r=r, x_miss=np.where(r[:, None] == 1, full.x_miss, np.nan))
    sri, cca = sri_estimate(obs), cca_estimate(obs)
    for name, rep in cca.estimands.items():
        assert abs(sri.estimands[name].psi_hat - rep.psi_hat) <= MCAR_AGREEMENT_SE * rep.se, name


def mnar_one_mediator_dataset(n: int) -> Dataset:
    """K = 1 draw whose x is missing more often the larger it is, with a
    noisy copy of x as the shadow variable."""
    rng = rng_for(41)
    x = rng.random(n)
    z = x + 0.3 * rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(int)
    m1 = x + a + rng.standard_normal(n)
    y = m1 + a + x + rng.standard_normal(n)
    r = (rng.random(n) < 0.9 - 0.5 * x).astype(int)
    return one_mediator_dataset(n, x, a, m1, y, r=r, z=z)


def three_mediators(ds: Dataset) -> Dataset:
    """ds with m_2 widened to two columns and a third, two-column mediator
    appended; the new columns are the same seeded normal draw for every
    dataset of the same n."""
    extra = rng_for(42, ds.n).standard_normal((ds.n, 3))
    m1, m2 = ds.m
    return replace(ds, m=(m1, np.hstack([m2, extra[:, :1]]), extra[:, 1:]), columns={})


def test_total_effect_is_the_sum_of_its_paths(full2000, obs600):
    """te = nde + nie_1 + ... + nie_K for every method, at K = 2, at K = 1
    and at K = 3 with vector mediator blocks: the contrasts telescope
    from psi(1,..,1) down to psi(0,..,0)."""
    full600 = full2000.subset(np.arange(full2000.n) < 600)
    k1 = mnar_one_mediator_dataset(800)
    k3, full_k3 = three_mediators(obs600), three_mediators(full600)
    assert k3.dims.m == (1, 2, 2)
    results = [sri_estimate(obs600), cca_estimate(obs600), mi_estimate(obs600),
               oracle_estimate(full600), sri_estimate(k1), cca_estimate(k1), mi_estimate(k1),
               sri_estimate(k3), cca_estimate(k3), mi_estimate(k3), oracle_estimate(full_k3)]
    assert results[4].extras["gamma_converged"]
    assert set(results[-1].estimands) == {"nde", "nie_1", "nie_2", "nie_3", "te"}
    for res in results:
        est = {name: rep.psi_hat for name, rep in res.estimands.items()}
        paths = sum(value for name, value in est.items() if name != "te")
        assert abs(est["te"] - paths) <= 1e-12, res.method


def degenerate_draw(case: str) -> tuple[Dataset, Dataset]:
    """(full, observed) n = 300 draw made degenerate in one way; the full
    data changes with the observed data wherever the oracle would see it."""
    full, obs = generate(DgpConfig(n=300, seed=seq(27, 1)))
    if case == "empty complete-case arm":  # a = 1 only where x_miss is missing
        a = np.where(obs.complete_mask, 0, 1)
        return replace(full, a=a), replace(obs, a=a)
    if case == "all missing":
        return full, replace(obs, r=np.zeros_like(obs.r), x_miss=np.full_like(obs.x_miss, np.nan))
    if case == "none missing":
        return full, replace(obs, r=np.ones_like(obs.r), x_miss=full.x_miss)
    if case == "constant x_obs column":
        x_obs = obs.x_obs.copy()
        x_obs[:, 0] = 0.5
        return replace(full, x_obs=x_obs), replace(obs, x_obs=x_obs)
    if case == "n below the basis dimension":
        keep = np.arange(obs.n) < 25
        return full.subset(keep), obs.subset(keep)
    if case == "z duplicates x_obs[:, 0]":
        z = obs.x_obs[:, :1].copy()
        return replace(full, z=z), replace(obs, z=z)
    assert case == "constant y"
    y = np.full(obs.n, 1.5)
    return replace(full, y=y), replace(obs, y=y)


# The calls on degenerate draws that end in a typed error, and its class;
# every other call returns finite estimates.
DEGENERATE_ERRORS = {
    ("empty complete-case arm", "sri"): EmptyArm,
    ("empty complete-case arm", "cca"): EmptyArm,
    ("all missing", "sri"): EmptyResult,
    ("all missing", "cca"): EmptyResult,
    ("all missing", "mi"): InsufficientCompleteCases,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [
    "empty complete-case arm", "all missing", "none missing", "constant x_obs column",
    "n below the basis dimension", "z duplicates x_obs[:, 0]", "constant y"])
def test_degenerate_inputs_give_finite_estimates_or_a_typed_error(case):
    """sri, cca, mi (m = 3) and the oracle each return finite psi_hat and
    se, or raise the EstimationError that DEGENERATE_ERRORS names, on a
    degenerate draw; no warning is raised on the way."""
    full, obs = degenerate_draw(case)
    runs = {"sri": lambda: sri_estimate(obs), "cca": lambda: cca_estimate(obs),
            "mi": lambda: mi_estimate(obs, m=3, seed=5), "oracle": lambda: oracle_estimate(full)}
    for method, run in runs.items():
        error = DEGENERATE_ERRORS.get((case, method))
        if error is not None:
            with pytest.raises(error):
                run()
            continue
        got = [(rep.psi_hat, rep.se) for rep in run().estimands.values()]
        assert got and np.isfinite(got).all(), (method, got)


ROLES = ("r", "z", "x_miss", "x_obs", "a", "m", "y")
BOM = b"\xef\xbb\xbf"
MUTATIONS = ["drop a column", "duplicate a column", "rename a column", "swap two roles",
             "a name in two roles", "blank an observed cell", "text in a cell",
             "non-UTF-8 bytes", "truncate the descriptor", "a role of the wrong type",
             "k disagrees with m", "k not an integer", "fractional r or a", "byte order mark"]
# a pair so mutated may be read or refused, as its descriptor says; a
# byte order mark must be read past, and every other mutation refused
EITHER = {"swap two roles", "a role of the wrong type"}


@pytest.fixture(scope="module")
def written_pair(tmp_path_factory):
    """The folder, CSV rows (cells as bytes), descriptor and column
    values by name of a written n = 60 draw."""
    obs = generate(DgpConfig(n=60, seed=seq(320)))[1]
    folder = tmp_path_factory.mktemp("mutated")
    data, desc = folder / "clean.csv", folder / "clean.json"
    write_csv(obs, str(data))
    write_descriptor(obs, str(desc))
    rows = [line.split(b",") for line in data.read_bytes().split(b"\r\n")[:-1]]
    blocks = zip(by_role(obs.columns), [obs.r, obs.z, obs.x_miss, obs.x_obs, obs.a, *obs.m, obs.y])
    values = {name: col for names, block in blocks
              for name, col in zip(names, np.reshape(block, (obs.n, -1)).T)}
    return folder, rows, json.loads(desc.read_text()), values


def by_role(cols: dict) -> list:
    """The column names of each array of a Dataset, in the order r, z,
    x_miss, x_obs, a, m_1..m_K, y."""
    return [[cols["r"]], cols["z"], cols["x_miss"], cols["x_obs"], [cols["a"]], *cols["m"],
            [cols["y"]]]


def mutated(kind: str, draw, rows: list, doc: dict) -> tuple[bytes, bytes, dict]:
    """One mutation of a written CSV and descriptor pair: the data and
    descriptor bytes, and the descriptor's columns as written."""
    rows, doc = [list(row) for row in rows], json.loads(json.dumps(doc))
    cols, header = doc["columns"], [cell.decode() for cell in rows[0]]
    i, j = draw(st.integers(1, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
    marks = (b"", b"")
    if kind == "drop a column":
        for row in rows:
            del row[j]
    elif kind == "duplicate a column":
        for row in rows:
            row.append(row[j])
    elif kind == "rename a column":
        rows[0][j] += b"_renamed"
    elif kind == "swap two roles":
        a, b = draw(st.lists(st.sampled_from(ROLES), min_size=2, max_size=2, unique=True))
        cols[a], cols[b] = cols[b], cols[a]
    elif kind == "a name in two roles":
        key = draw(st.sampled_from(("z", "x_miss", "x_obs")))
        cols[key] = cols[key] + [draw(st.sampled_from([n for n in header if n not in cols[key]]))]
    elif kind == "blank an observed cell":
        rows[i][draw(st.sampled_from([k for k, n in enumerate(header)
                                      if n not in cols["x_miss"]]))] = b""
    elif kind == "text in a cell":
        rows[i][j] = b"abc"
    elif kind == "non-UTF-8 bytes":
        rows[i][j] = b"\xff"
    elif kind == "a role of the wrong type":
        cols[draw(st.sampled_from(ROLES))] = draw(
            st.sampled_from([5, None, "x1", [], ["x1"], [["x1"]], {}, [5]]))
    elif kind == "k disagrees with m":
        doc["k"] = draw(st.integers(-1, 4).filter(lambda k: k != len(cols["m"])))
    elif kind == "k not an integer":
        doc["k"] = draw(st.sampled_from([2.5, "2", True, 2.0, None]))
    elif kind == "fractional r or a":
        rows[i][header.index(draw(st.sampled_from((cols["r"], cols["a"]))))] = b"0.5"
    elif kind == "byte order mark":
        marks = draw(st.sampled_from([(BOM, b""), (b"", BOM), (BOM, BOM)]))
    data = marks[0] + b"".join(b",".join(row) + b"\r\n" for row in rows)
    desc = marks[1] + json.dumps(doc).encode()
    if kind == "truncate the descriptor":
        desc = desc[:draw(st.integers(0, len(desc) - 1))]
    return data, desc, cols


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(MUTATIONS), data=st.data())
def test_a_mutated_input_file_is_read_as_written_or_refused(kind, data, written_pair):
    """validate and estimate --method cca on a CSV and descriptor pair
    with one mutation either exit 0 having read the arrays its
    descriptor names, or exit 2 or 3 with one line on stderr: no
    mutation ends in a traceback. Which of the two, EITHER says."""
    folder, rows, doc, values = written_pair
    data_bytes, desc_bytes, cols = mutated(kind, data.draw, rows, doc)
    data_path, desc_path = folder / "mutated.csv", folder / "mutated.json"
    data_path.write_bytes(data_bytes)
    desc_path.write_bytes(desc_bytes)
    for command in (["validate"], ["estimate", "--method", "cca"]):
        read = []

        def reading(*args):
            read.append(read_csv(*args))
            return read[-1]

        err = io.StringIO()
        with mock.patch.object(cli, "read_csv", reading), redirect_stdout(io.StringIO()), \
                redirect_stderr(err):
            rc = cli.main([*command, "--data", str(data_path), "--descriptor", str(desc_path)])
        assert kind in EITHER or (rc == 0) == (kind == "byte order mark"), (kind, err.getvalue())
        if rc != 0:
            assert rc in (2, 3) and len(err.getvalue().splitlines()) == 1, (rc, err.getvalue())
            continue
        ds = read[0]
        got = [ds.r, ds.z, ds.x_miss, ds.x_obs, ds.a, *ds.m, ds.y]
        assert len(got) == len(by_role(cols)), kind
        for have, names in zip(got, by_role(cols)):
            want = np.column_stack([values[n] for n in names] or [np.empty((len(rows) - 1, 0))])
            assert np.array_equal(np.reshape(have, want.shape), want, equal_nan=True), kind
