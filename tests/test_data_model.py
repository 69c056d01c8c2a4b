import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from shadowpse import data_model
from shadowpse.data_model import (
    Dataset,
    DatasetDims,
    complete_cases,
    header_order,
    read_csv,
    read_descriptor,
    validate,
    write_csv,
    write_descriptor,
)
from shadowpse.errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptyResult,
    MissingTrueX,
    NonFiniteInput,
)
from shadowpse.data_model import _parse_cell
from shadowpse.simulation import DgpConfig, generate

from support import one_mediator_dataset, rng_for, seq


def small_mixed(n=8):
    rng = rng_for(101)
    x = rng.random(n)
    r = np.array([1, 0, 1, 1, 0, 1, 1, 1][:n])
    a = np.array([0, 1, 1, 0, 1, 0, 1, 0][:n])
    m1 = x + rng.standard_normal(n)
    y = m1 + a + rng.standard_normal(n)
    return one_mediator_dataset(n, x, a, m1, y, r=r)


def test_dims_accessors():
    dims = DatasetDims(z=1, x_miss=2, x_obs=3, m=(1, 2))
    assert dims.k == 2
    assert dims.x == 5
    ds = _hand_built(4, z=2, x_miss=1, x_obs=0, m=(2, 1))
    assert ds.dims == DatasetDims(z=2, x_miss=1, x_obs=0, m=(2, 1))
    assert ds.k == 2
    with pytest.raises(TypeError):
        Dataset(r=ds.r, z=ds.z, x_miss=ds.x_miss, x_obs=ds.x_obs, a=ds.a, m=ds.m, y=ds.y,
                dims=ds.dims)


def test_validate_benchmark_missing_rate():
    full, obs = generate(DgpConfig(n=10000, seed=seq(102)))
    rep = validate(obs)
    assert rep.n == 10000
    assert rep.n_complete == int(obs.r.sum())
    assert abs(rep.miss_frac - 0.437) <= 0.02
    assert rep.arm_counts[0] + rep.arm_counts[1] == rep.n
    assert rep.arm_complete_counts[0] + rep.arm_complete_counts[1] == rep.n_complete
    assert rep.flags == []
    keys = sorted(rep.to_dict())
    assert keys == ["arm_complete_counts", "arm_counts", "flags", "miss_frac",
                    "n", "n_complete"]


def test_validate_flags():
    ds = small_mixed()
    all_missing = ds.subset(ds.r == 0)
    assert "all_missing" in validate(all_missing).flags
    none_missing = ds.subset(ds.r == 1)
    assert "no_missing" in validate(none_missing).flags
    one_arm = ds.subset(ds.a == 1)
    assert "empty_arm:0" in validate(one_arm).flags


def test_complete_cases_order_and_idempotence():
    ds = small_mixed()
    cc = complete_cases(ds)
    assert cc.n == int(ds.r.sum())
    np.testing.assert_array_equal(cc.y, ds.y[ds.r == 1])
    np.testing.assert_array_equal(cc.r, np.ones(cc.n, dtype=int))
    cc2 = complete_cases(cc)
    np.testing.assert_array_equal(cc2.y, cc.y)
    with pytest.raises(EmptyResult):
        complete_cases(ds.subset(ds.r == 0))


def test_subset_is_independent_copy():
    ds = small_mixed()
    sub = ds.subset(ds.r == 1)
    before = ds.y.copy()
    sub.y[:] = -99.0
    np.testing.assert_array_equal(ds.y, before)


def test_point_matrix_shapes():
    full, obs = generate(DgpConfig(n=300, seed=seq(103)))
    n_cc = int(obs.r.sum())
    assert obs.conditioning_points().shape == (300, 7)
    assert obs.regressor_points().shape == (n_cc, 7)
    assert obs.mu_points(1).shape == (n_cc, 3)
    assert obs.mu_points(2).shape == (n_cc, 4)
    assert obs.mu_points(3).shape == (n_cc, 5)
    everywhere = obs.mu_points(1, mask=np.ones(300, dtype=bool))
    assert everywhere.shape == (300, 3)
    with pytest.raises(DimensionMismatch):
        obs.mu_points(4)


def test_validate_structural_guards():
    n = 4
    x = np.array([0.1, 0.2, 0.3, 0.4])
    good = dict(n=n, x=x, a=np.array([0, 1, 0, 1]), m1=x + 1.0, y=x + 2.0)

    with pytest.raises(DimensionMismatch):
        validate(one_mediator_dataset(
            good["n"], x, np.array([0, 2, 0, 1]), good["m1"], good["y"]))
    with pytest.raises(DimensionMismatch):
        validate(one_mediator_dataset(
            good["n"], x, good["a"], good["m1"], good["y"],
            r=np.array([1, 1, 2, 1])))
    with pytest.raises(NonFiniteInput):
        validate(one_mediator_dataset(
            good["n"], x, good["a"], good["m1"],
            np.array([1.0, np.inf, 2.0, 3.0])))
    # x_miss must be NaN exactly on the r=0 rows (construction allows a
    # fully populated x_miss for oracle use; validate refuses it)
    with pytest.raises(DimensionMismatch):
        validate(Dataset(
            r=np.array([1, 0, 1, 1]), z=x, x_miss=x, x_obs=np.empty((n, 0)),
            a=good["a"], m=(good["m1"],), y=good["y"]))
    xm = np.where(np.array([1, 0, 1, 1]) == 1, x, np.nan)
    xm[0] = np.nan
    with pytest.raises(DimensionMismatch):
        validate(Dataset(
            r=np.array([1, 0, 1, 1]), z=x, x_miss=xm, x_obs=np.empty((n, 0)),
            a=good["a"], m=(good["m1"],), y=good["y"]))


def test_with_r_set_to_one():
    full, obs = generate(DgpConfig(n=200, seed=seq(104)))
    comp = full.with_r_set_to_one()
    assert comp.complete_mask.all()
    np.testing.assert_array_equal(comp.x_miss, full.x_miss)
    with pytest.raises(MissingTrueX):
        obs.with_r_set_to_one()


def test_csv_round_trip(tmp_path):
    full, obs = generate(DgpConfig(n=150, seed=seq(105)))
    data = tmp_path / "d.csv"
    desc = tmp_path / "d.json"
    write_csv(obs, str(data))
    write_descriptor(obs, str(desc))
    back = read_csv(str(data), str(desc))
    assert back.dims == obs.dims
    np.testing.assert_array_equal(back.r, obs.r)
    np.testing.assert_array_equal(back.a, obs.a)
    np.testing.assert_array_equal(back.y, obs.y)
    np.testing.assert_array_equal(back.z, obs.z)
    np.testing.assert_array_equal(back.x_obs, obs.x_obs)
    # same NaN pattern and exact values elsewhere
    assert np.array_equal(back.x_miss, obs.x_miss, equal_nan=True)
    k, columns = read_descriptor(str(desc))
    assert k == 2
    assert columns == obs.columns
    assert header_order(columns)[0] == columns["r"]


@pytest.mark.parametrize("y_cell", [None, "1_000"], ids=["loadtxt", "cell by cell"])
def test_byte_order_mark_is_skipped(y_cell, tmp_path):
    """A data file and a descriptor that start with a UTF-8 byte order
    mark, as spreadsheet programs write them, read as the same files
    without one, whichever reader takes the records."""
    obs = generate(DgpConfig(n=30, seed=seq(107)))[1]
    data, desc = tmp_path / "d.csv", tmp_path / "d.json"
    write_csv(obs, str(data))
    write_descriptor(obs, str(desc))
    if y_cell is not None:
        lines = data.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + y_cell
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    clean = _arrays(read_csv(str(data), str(desc)))
    for path in (data, desc):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    marked = _arrays(read_csv(str(data), str(desc)))
    for key, want in clean.items():
        assert marked[key].tobytes() == want.tobytes()


def test_csv_parse_errors(tmp_path):
    full, obs = generate(DgpConfig(n=20, seed=seq(106)))
    data = tmp_path / "d.csv"
    desc = tmp_path / "d.json"
    write_csv(obs, str(data))
    write_descriptor(obs, str(desc))

    lines = data.read_text().splitlines()
    bad = tmp_path / "bad.csv"

    bad.write_text("\n".join([lines[0]] + []) + "\n")
    with pytest.raises(EmptyDataset):
        read_csv(str(bad), str(desc))

    row = lines[1].split(",")
    row[-1] = "oops"
    bad.write_text("\n".join([lines[0], ",".join(row)]) + "\n")
    with pytest.raises(NonFiniteInput):
        read_csv(str(bad), str(desc))

    row = lines[1].split(",")
    row[0] = ""
    bad.write_text("\n".join([lines[0], ",".join(row)]) + "\n")
    with pytest.raises(NonFiniteInput):
        read_csv(str(bad), str(desc))

    header = lines[0].split(",")
    bad.write_text("\n".join([",".join(header[:-1])] + lines[1:3]) + "\n")
    with pytest.raises(DimensionMismatch):
        read_csv(str(bad), str(desc))


def _csv_pair(tmp_path, seed):
    """Observed n=20 draw written as CSV plus descriptor; (header, rows, paths)."""
    full, obs = generate(DgpConfig(n=20, seed=seq(seed)))
    data = tmp_path / "d.csv"
    desc = tmp_path / "d.json"
    write_csv(obs, str(data))
    write_descriptor(obs, str(desc))
    lines = data.read_text().splitlines()
    return obs, lines[0].split(","), [line.split(",") for line in lines[1:]], data, desc


def _rewrite(path, header, rows):
    path.write_text("\n".join(",".join(row) for row in [header] + rows) + "\n")


def test_declared_column_named_twice_raises(tmp_path):
    """A declared name that appears twice in the header is ambiguous and
    raises, naming the column; an undeclared one is never parsed, so it
    may repeat."""
    obs, header, rows, data, desc = _csv_pair(tmp_path, 116)
    _rewrite(data, header + ["note", "note"], [row + ["a", "b"] for row in rows])
    assert read_csv(str(data), str(desc)).y.tobytes() == obs.y.tobytes()
    _rewrite(data, header + ["y"], [row + ["9.0"] for row in rows])
    with pytest.raises(DimensionMismatch, match="column 'y' is repeated in "):
        read_csv(str(data), str(desc))


def test_column_names_must_match_block_widths(tmp_path):
    """Each role names one column per array column: a block widened
    without new names raises, where write_csv would write a header over
    longer records and read_csv would refuse its own file; with the
    default names of the new widths it round-trips."""
    obs = generate(DgpConfig(n=20, seed=seq(3102)))[1]
    m1, m2 = obs.m
    with pytest.raises(DimensionMismatch, match="columns name blocks of widths"):
        replace(obs, m=(m1, np.hstack([m2, m2])))
    with pytest.raises(DimensionMismatch):
        replace(obs, columns={**obs.columns, "z": ["z", "z2"]})
    widened = replace(obs, m=(m1, np.hstack([m2, m2])), columns={})
    assert widened.columns["m"] == [["m1"], ["m2_1", "m2_2"]]
    data, desc = tmp_path / "w.csv", tmp_path / "w.json"
    write_csv(widened, str(data))
    write_descriptor(widened, str(desc))
    assert read_csv(str(data), str(desc)).m[1].tobytes() == widened.m[1].tobytes()


def test_csv_short_row_names_its_row(tmp_path):
    obs, header, rows, data, desc = _csv_pair(tmp_path, 107)
    rows[4] = rows[4][:-1]
    _rewrite(data, header, rows)
    with pytest.raises(DimensionMismatch, match="row 6:"):
        read_csv(str(data), str(desc))


def test_csv_missing_tokens_read_as_nan_in_x_miss(tmp_path):
    obs, header, rows, data, desc = _csv_pair(tmp_path, 108)
    col = header.index(obs.columns["x_miss"][0])
    missing = np.flatnonzero(obs.r == 0)
    assert len(missing) >= 3
    for i, token in zip(missing, ["NA", " nan ", ""]):
        rows[i][col] = token
    _rewrite(data, header, rows)
    back = read_csv(str(data), str(desc))
    assert np.isnan(back.x_miss[missing]).all()
    assert np.array_equal(back.x_miss, obs.x_miss, equal_nan=True)


def test_csv_nan_in_always_observed_column_raises(tmp_path):
    obs, header, rows, data, desc = _csv_pair(tmp_path, 109)
    col = obs.columns["z"][0]
    rows[3][header.index(col)] = "nan"
    _rewrite(data, header, rows)
    with pytest.raises(NonFiniteInput, match=repr(col)):
        read_csv(str(data), str(desc))


def test_csv_unparsable_cell_names_its_column(tmp_path):
    obs, header, rows, data, desc = _csv_pair(tmp_path, 110)
    col = obs.columns["m"][0][0]
    rows[7][header.index(col)] = "1.2.3"
    _rewrite(data, header, rows)
    with pytest.raises(NonFiniteInput, match=f"column {col!r}"):
        read_csv(str(data), str(desc))


def test_csv_infinite_treatment_value_raises(tmp_path):
    obs, header, rows, data, desc = _csv_pair(tmp_path, 111)
    col = obs.columns["a"]
    rows[2][header.index(col)] = "inf"
    _rewrite(data, header, rows)
    with pytest.raises(NonFiniteInput, match=repr(col)):
        read_csv(str(data), str(desc))


def _reference_read(data, desc):
    """The dataset arrays of a CSV file, read by the csv module and
    converted cell by cell through _parse_cell."""
    k, columns = read_descriptor(str(desc))
    with open(data, newline="") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    idx = {name.strip(): j for j, name in enumerate(header)}

    def col(name, allow_missing=False):
        return np.array([_parse_cell(row[idx[name]], name, allow_missing) for row in rows])

    def block(names, allow_missing=False):
        return np.stack([col(name, allow_missing) for name in names], axis=1)

    return {
        "r": col(columns["r"]).astype(int), "a": col(columns["a"]).astype(int),
        "y": col(columns["y"]), "z": block(columns["z"]),
        "x_miss": block(columns["x_miss"], True), "x_obs": block(columns["x_obs"]),
        **{f"m{j}": block(group) for j, group in enumerate(columns["m"])},
    }


def _arrays(ds):
    return {"r": ds.r, "a": ds.a, "y": ds.y, "z": ds.z, "x_miss": ds.x_miss,
            "x_obs": ds.x_obs, **{f"m{j}": mk for j, mk in enumerate(ds.m)}}


def _missing_tokens(obs, header, rows):
    col = header.index(obs.columns["x_miss"][0])
    for i, j in enumerate(np.flatnonzero(obs.r == 0)):
        rows[j][col] = ["NA", " nan ", "", "na", "NaN", "  "][i % 6]
    return header, rows, "\n"


def _quoted(obs, header, rows):
    return header, [[f'"{cell}"' for cell in row] if i % 3 == 0 else row
                    for i, row in enumerate(rows)], "\n"


def _crlf_and_blank_lines(obs, header, rows):
    out = []
    for i, row in enumerate(rows):
        out.append(row)
        if i % 50 == 0:
            out.append([])
    return header, out, "\r\n"


def _reordered(obs, header, rows):
    perm = np.random.default_rng(5).permutation(len(header))
    return [header[j] for j in perm], [[row[j] for j in perm] for row in rows], "\n"


def _hash_in_cells(obs, header, rows):
    """An undeclared text column whose cells hold a #, quoted with a
    comma in every other row, and a # in a declared column's name."""
    note = [f'"see #{i}, again"' if i % 2 else f"see #{i}" for i in range(len(rows))]
    return ([*header, "note"], [[*row, cell] for row, cell in zip(rows, note)], "\n")


def _underscored_digits(obs, header, rows):
    """Cells that float() reads and np.loadtxt rejects, so the file is
    read cell by cell."""
    col = header.index(obs.columns["x_obs"][0])
    for row in rows[::7]:
        row[col] = "1_0"
    return header, rows, "\n"


def _integers_as_floats(obs, header, rows):
    """r and a cells written as 1.0 and 0.0: whole numbers, read as such."""
    for name in (obs.columns["r"], obs.columns["a"]):
        col = header.index(name)
        for row in rows:
            row[col] += ".0"
    return header, rows, "\n"


READ_VARIANTS = {
    "plain": (lambda obs, header, rows: (header, rows, "\n"), True),
    "missing_tokens": (_missing_tokens, True),
    "quoted": (_quoted, True),
    "crlf_blank_lines": (_crlf_and_blank_lines, True),
    "reordered": (_reordered, True),
    "hash_in_cells": (_hash_in_cells, True),
    "underscored_digits": (_underscored_digits, False),
    "integers_as_floats": (_integers_as_floats, True),
}


@pytest.fixture(scope="module")
def obs_n2000():
    return generate(DgpConfig(n=2000, seed=seq(112)))[1]


@pytest.mark.parametrize("variant", sorted(READ_VARIANTS))
def test_read_csv_matches_cell_by_cell_reference(variant, obs_n2000, tmp_path, monkeypatch):
    """read_csv gives byte-identical arrays to a csv-module reader that
    converts every cell through _parse_cell; a file np.loadtxt reads
    never reaches the cell-by-cell path."""
    rewrite, loadtxt_reads = READ_VARIANTS[variant]
    data, desc = tmp_path / "d.csv", tmp_path / "d.json"
    write_csv(obs_n2000, str(data))
    write_descriptor(obs_n2000, str(desc))
    lines = data.read_text().splitlines()
    header, rows, newline = rewrite(obs_n2000, lines[0].split(","),
                                    [line.split(",") for line in lines[1:]])
    if variant == "hash_in_cells":
        doc = json.loads(desc.read_text())
        doc["columns"]["y"] = "y#1"
        desc.write_text(json.dumps(doc))
        header = ["y#1" if name == "y" else name for name in header]
    data.write_bytes(newline.join(",".join(row) for row in [header, *rows]).encode()
                     + newline.encode())

    if loadtxt_reads:
        def no_cells(*args):
            raise AssertionError("read cell by cell")
        monkeypatch.setattr(data_model, "_read_cells", no_cells)
    got = _arrays(read_csv(str(data), str(desc)))
    want = _reference_read(data, desc)
    assert sorted(got) == sorted(want)
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name
        assert got[name].flags.c_contiguous, name
    np.testing.assert_array_equal(got["r"], obs_n2000.r)
    np.testing.assert_array_equal(got["a"], obs_n2000.a)


@pytest.mark.parametrize("cell, column, error, message", [
    ("1e300", "r", NonFiniteInput, "value out of integer range in column 'r'"),
    ("nan", "a", NonFiniteInput, "missing value in always-observed column 'a'"),
    ("", "y", NonFiniteInput, "missing value in always-observed column 'y'"),
    ("1.2.3", "x1", NonFiniteInput, "cannot parse '1.2.3' in column 'x1'"),
    ('"1,5"', "z", NonFiniteInput, "cannot parse '1,5' in column 'z'"),
])
def test_read_csv_names_the_faulty_column(cell, column, error, message, tmp_path):
    obs, header, rows, data, desc = _csv_pair(tmp_path, 113)
    i = int(np.flatnonzero(obs.r == 1)[2])
    rows[i][header.index(column)] = cell
    _rewrite(data, header, rows)
    with pytest.raises(error) as info:
        read_csv(str(data), str(desc))
    assert str(info.value) == message


@pytest.mark.parametrize("path", ["loadtxt", "cells"])
@pytest.mark.parametrize("cell, column", [("0.4", "r"), ("0.7", "a"), ("1.9", "a"), ("1.5", "r")])
def test_fractional_integer_cell_names_its_column(cell, column, path, tmp_path):
    """A fractional r or a cell raises, whether np.loadtxt reads the file
    or a cell it rejects sends the whole file cell by cell."""
    obs, header, rows, data, desc = _csv_pair(tmp_path, 115)
    rows[5][header.index(column)] = cell
    if path == "cells":
        rows[9][header.index(obs.columns["x_obs"][0])] = "1_0"
    _rewrite(data, header, rows)
    with pytest.raises(DimensionMismatch) as info:
        read_csv(str(data), str(desc))
    assert str(info.value) == f"row 7: non-integer value {cell!r} in column {column!r}"


def test_read_csv_peaks_under_one_and_a_half_file_sizes(obs20000, tmp_path):
    """loadtxt reads the open file, so no copy of the text is held:
    tracemalloc's peak, which counts every numpy array and Python
    string, stays under 1.5 times the file's size."""
    data, desc = tmp_path / "d.csv", tmp_path / "d.json"
    write_csv(obs20000, str(data))
    write_descriptor(obs20000, str(desc))
    read_csv(str(data), str(desc))
    tracemalloc.start()
    try:
        read_csv(str(data), str(desc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * data.stat().st_size


def test_header_only_file_warns_nothing(tmp_path, recwarn):
    obs, header, rows, data, desc = _csv_pair(tmp_path, 114)
    data.write_text(",".join(header) + "\r\n\r\n\n")
    with pytest.raises(EmptyDataset, match="has a header but no records"):
        read_csv(str(data), str(desc))
    assert len(recwarn) == 0


def _reference_write(ds, path):
    """write_csv's bytes, one csv.writer row per record: repr(float(v))
    for every float cell, str(int(v)) for r and a, and empty x_miss
    cells on the records whose x_miss values are all NaN."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header_order(ds.columns))
        for i in range(len(ds.r)):
            x_miss = ([""] * ds.dims.x_miss if np.isnan(ds.x_miss[i]).all()
                      else [repr(float(v)) for v in ds.x_miss[i]])
            writer.writerow([
                str(int(ds.r[i])), *(repr(float(v)) for v in ds.z[i]), *x_miss,
                *(repr(float(v)) for v in ds.x_obs[i]), str(int(ds.a[i])),
                *(repr(float(v)) for mk in ds.m for v in mk[i]), repr(float(ds.y[i]))])


def _hand_built(n, z=1, x_miss=1, x_obs=1, m=(1,), fill=None):
    """Dataset with the given block widths: r alternates 1, 0 from the
    first record, x_miss is NaN on r = 0, cells come from fill (cycled)
    or a seeded normal draw."""
    width = z + x_miss + x_obs + sum(m) + 1
    if fill is None:
        cells = rng_for(116, n, width).standard_normal((n, width))
    else:
        cells = np.resize(np.array(fill, dtype=float), n * width).reshape(n, width)
    r = (np.arange(n) % 2 == 0).astype(int)
    cuts = np.cumsum([z, x_miss, x_obs, *m])
    zb, xm, xo, *mb, y = np.split(cells, cuts, axis=1)
    xm[r == 0] = np.nan
    return Dataset(r=r, z=zb, x_miss=xm, x_obs=xo, a=np.arange(n) % 3 == 0,
                   m=tuple(mb), y=y[:, 0])


def _partly_missing_x_miss():
    ds = _hand_built(6, x_miss=2)
    ds.x_miss[2, 1] = np.nan  # a complete record with one x_miss cell NaN
    ds.x_miss[4, 0] = np.nan
    return ds


def _quoted_name():
    ds = _hand_built(5, z=2)
    columns = dict(ds.columns, y='y, "final"', z=["z 1", "z\r\n2"])
    return Dataset(r=ds.r, z=ds.z, x_miss=ds.x_miss, x_obs=ds.x_obs, a=ds.a, m=ds.m,
                   y=ds.y, columns=columns)


EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, 1.0, -1e308, 2.5e-308]

HAND_BUILT = {
    "partly_missing_x_miss": _partly_missing_x_miss,
    "vector_blocks_k1": lambda: _hand_built(7, z=2, x_miss=2, x_obs=0, m=(2,)),
    "vector_blocks_k3": lambda: _hand_built(7, z=2, x_miss=1, x_obs=2, m=(2, 1, 2)),
    "edge_values": lambda: _hand_built(9, x_miss=2, m=(1, 1), fill=EDGE_VALUES),
    "quoted_name": _quoted_name,
}


def _assert_same_bytes(ds, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(ds, str(got))
    _reference_write(ds, str(want))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n", [1, 999, 1000, 1001, 2500])
def test_write_csv_matches_row_by_row_reference_on_draws(n, tmp_path):
    """Byte parity on generated draws whose sizes sit on and around the
    edges of write_csv's row chunks."""
    _assert_same_bytes(generate(DgpConfig(n=n, seed=seq(116, n)))[1], tmp_path)


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_write_csv_matches_row_by_row_reference_on_hand_built(case, tmp_path):
    ds = HAND_BUILT[case]()
    _assert_same_bytes(ds, tmp_path)
    if case == "partly_missing_x_miss":
        lines = (tmp_path / "got.csv").read_text().splitlines()
        assert lines[2].split(",")[2:4] == ["", ""]
        assert lines[3].split(",")[2:4] == [repr(float(ds.x_miss[2, 0])), "nan"]
        assert lines[5].split(",")[2:4] == ["nan", repr(float(ds.x_miss[4, 1]))]
    if case == "edge_values":
        cells = set((tmp_path / "got.csv").read_text().replace("\r\n", ",").split(","))
        assert {"-0.0", "5e-324", "1e+16", "1e-05", "0.30000000000000004", "1.0",
                "-1e+308", "2.5e-308"} <= cells
