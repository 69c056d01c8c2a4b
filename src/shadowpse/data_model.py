"""Observed-data records, datasets, validation and CSV round-trip.

A unit is (R, Z, X_miss, X_obs, A, M_1, ..., M_K, Y) where X_miss is the
block of covariates subject to missingness (present iff R = 1), X_obs the
always-observed covariate block, Z the shadow variable, A a binary
treatment, and M_1, ..., M_K the ordered mediator blocks.

Datasets are stored column-wise as numpy arrays; missing X_miss entries
are NaN rows aligned with R = 0.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptyResult,
    MissingTrueX,
    NonFiniteInput,
)

_MISSING_TOKENS = {"", "na", "nan"}


def _as_2d(arr: np.ndarray, n: int, what: str) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2 or out.shape[0] != n:
        raise DimensionMismatch(f"{what}: expected {n} rows, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class DatasetDims:
    """Coordinate counts for each block; m has one entry per mediator."""

    z: int
    x_miss: int
    x_obs: int
    m: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.m)

    @property
    def x(self) -> int:
        return self.x_miss + self.x_obs


def _default_columns(dims: DatasetDims) -> dict:
    return {
        "r": "r",
        "z": ["z"] if dims.z == 1 else [f"z{i}" for i in range(1, dims.z + 1)],
        "x_miss": [f"x{i}" for i in range(1, dims.x_miss + 1)],
        "x_obs": [f"x{i}" for i in range(dims.x_miss + 1, dims.x + 1)],
        "a": "a",
        "m": [[f"m{k}"] if dm == 1 else [f"m{k}_{j}" for j in range(1, dm + 1)]
              for k, dm in enumerate(dims.m, start=1)],
        "y": "y",
    }


@dataclass
class Dataset:
    """Column-wise dataset; the canonical storage for all estimators.

    A dataset is its arrays: dims reads the block widths off them, and a
    1-d block is read as one column; columns names each of their columns.

    x_miss rows are NaN wherever the covariate block is missing. For
    observed data that coincides with r = 0; simulation can also build
    full datasets that carry x_miss for every record regardless of r
    (those fail validate() and are meant for oracle/diagnostic use only).
    """

    r: np.ndarray
    z: np.ndarray
    x_miss: np.ndarray
    x_obs: np.ndarray
    a: np.ndarray
    m: tuple[np.ndarray, ...]
    y: np.ndarray
    columns: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.r)
        self.r = np.asarray(self.r, dtype=int)
        self.a = np.asarray(self.a, dtype=int)
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != (n,) or self.a.shape != (n,):
            raise DimensionMismatch("r, a, y must be aligned 1-d arrays")
        self.z = _as_2d(self.z, n, "z")
        self.x_miss = _as_2d(self.x_miss, n, "x_miss")
        self.x_obs = _as_2d(self.x_obs, n, "x_obs")
        self.m = tuple(_as_2d(mk, n, f"m{k+1}") for k, mk in enumerate(self.m))
        if not self.columns:
            self.columns = _default_columns(self.dims)
        named = DatasetDims(*(len(self.columns[key]) for key in ("z", "x_miss", "x_obs")),
                            tuple(map(len, self.columns["m"])))
        if named != self.dims:
            raise DimensionMismatch(f"columns name blocks of widths {named} but arrays give {self.dims}")

    # ---- basic views -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def k(self) -> int:
        return len(self.m)

    @property
    def dims(self) -> DatasetDims:
        """The block widths, read off the arrays."""
        return DatasetDims(self.z.shape[1], self.x_miss.shape[1], self.x_obs.shape[1],
                           tuple(mk.shape[1] for mk in self.m))

    @property
    def complete_mask(self) -> np.ndarray:
        return self.r == 1

    # ---- point matrices consumed by the sieve bases ------------------

    def conditioning_points(self) -> np.ndarray:
        """(z, x_obs, a, m_1..m_K, y) for every record; always observed."""
        cols = [self.z, self.x_obs, self.a[:, None].astype(float)]
        cols.extend(self.m)
        cols.append(self.y[:, None])
        return np.hstack(cols)

    def regressor_points(self) -> np.ndarray:
        """(x, a, m_1..m_K, y) over the complete cases."""
        mask = self.complete_mask
        cols = [self.x_miss[mask], self.x_obs[mask], self.a[mask, None].astype(float)]
        cols.extend(mk[mask] for mk in self.m)
        cols.append(self.y[mask, None])
        return np.hstack(cols)

    def mu_points(self, k: int, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """(x, m_1..m_{k-1}) over rows in mask (default: complete cases).

        k runs 1..K+1; k = 1 gives covariates only.
        """
        if not 1 <= k <= self.k + 1:
            raise DimensionMismatch(f"mu_points: k={k} outside 1..{self.k + 1}")
        if mask is None:
            mask = self.complete_mask
        cols = [self.x_miss[mask], self.x_obs[mask]]
        cols.extend(self.m[j][mask] for j in range(k - 1))
        return np.hstack(cols)

    def subset(self, mask: np.ndarray) -> "Dataset":
        return Dataset(
            r=self.r[mask],
            z=self.z[mask],
            x_miss=self.x_miss[mask],
            x_obs=self.x_obs[mask],
            a=self.a[mask],
            m=tuple(mk[mask] for mk in self.m),
            y=self.y[mask],
            columns=self.columns,
        )

    def with_r_set_to_one(self) -> "Dataset":
        """Copy with r = 1 everywhere; requires x_miss present for all rows."""
        if np.isnan(self.x_miss).any():
            raise MissingTrueX("cannot set r=1: x_miss is NaN on some records")
        out = self.subset(np.ones(self.n, dtype=bool))
        out.r = np.ones(self.n, dtype=int)
        return out


@dataclass
class ValidationReport:
    n: int
    n_complete: int
    miss_frac: float
    arm_counts: dict
    arm_complete_counts: dict
    flags: list[str]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "n_complete": self.n_complete,
            "miss_frac": self.miss_frac,
            "arm_counts": {str(k): v for k, v in self.arm_counts.items()},
            "arm_complete_counts": {str(k): v for k, v in self.arm_complete_counts.items()},
            "flags": list(self.flags),
        }


def validate(ds: Dataset) -> ValidationReport:
    """Structural checks (raise) plus statistical red flags (reported).

    Raises DimensionMismatch when a record breaks the missingness
    pattern (x_miss present with r = 0 or absent with r = 1), when r or a
    leave {0,1}; NonFiniteInput when an always-observed field is not
    finite; EmptyDataset on zero records.
    """
    if ds.n == 0:
        raise EmptyDataset("dataset has no records")
    if not np.isin(ds.r, (0, 1)).all():
        raise DimensionMismatch("r must be 0/1")
    if not np.isin(ds.a, (0, 1)).all():
        raise DimensionMismatch("a must be 0/1")
    nan_rows = np.isnan(ds.x_miss).any(axis=1)
    partial = nan_rows & ~np.isnan(ds.x_miss).all(axis=1)
    if partial.any():
        raise DimensionMismatch("x_miss rows must be entirely present or entirely missing")
    present_when_missing = (ds.r == 0) & ~nan_rows
    if present_when_missing.any():
        i = int(np.argmax(present_when_missing))
        raise DimensionMismatch(f"record {i}: x_miss present but r=0")
    absent_when_complete = (ds.r == 1) & nan_rows
    if absent_when_complete.any():
        i = int(np.argmax(absent_when_complete))
        raise DimensionMismatch(f"record {i}: r=1 but x_miss missing")
    always_observed = [ds.z, ds.x_obs, ds.y[:, None], *ds.m]
    for block in always_observed:
        if not np.isfinite(block).all():
            raise NonFiniteInput("non-finite value in an always-observed column")
    cc = ds.complete_mask
    if not np.isfinite(ds.x_miss[cc]).all():
        raise NonFiniteInput("non-finite x_miss value on a complete case")

    n_complete = int(cc.sum())
    arm_counts = {a: int((ds.a == a).sum()) for a in (0, 1)}
    arm_cc = {a: int(((ds.a == a) & cc).sum()) for a in (0, 1)}
    flags = []
    for a in (0, 1):
        if arm_counts[a] == 0:
            flags.append(f"empty_arm:{a}")
        elif arm_cc[a] == 0:
            flags.append(f"empty_complete_arm:{a}")
    if n_complete == 0:
        flags.append("all_missing")
    elif n_complete == ds.n:
        flags.append("no_missing")
    return ValidationReport(
        n=ds.n,
        n_complete=n_complete,
        miss_frac=1.0 - n_complete / ds.n,
        arm_counts=arm_counts,
        arm_complete_counts=arm_cc,
        flags=flags,
    )


def complete_cases(ds: Dataset) -> Dataset:
    """Subset with r = 1. Raises EmptyResult when there are none."""
    mask = ds.complete_mask
    if not mask.any():
        raise EmptyResult("no complete cases")
    return ds.subset(mask)


# ---- CSV + descriptor round trip -------------------------------------


def header_order(columns: dict) -> list[str]:
    cols = [columns["r"]]
    cols.extend(columns["z"])
    cols.extend(columns["x_miss"])
    cols.extend(columns["x_obs"])
    cols.append(columns["a"])
    for group in columns["m"]:
        cols.extend(group)
    cols.append(columns["y"])
    return cols


def json_text(doc) -> str:
    """doc as strict JSON text, indented with sorted keys, for every JSON
    file the package writes: a NaN or infinity in doc, which strict JSON
    cannot hold, raises NonFiniteInput, so it never reaches a file."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteInput(f"not written: {exc}") from exc


def write_descriptor(ds: Dataset, path: str) -> None:
    text = json_text({"k": ds.k, "columns": ds.columns})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


_CHUNK_ROWS = 1000  # records formatted per write; memory stays flat in n


def _cells(block: np.ndarray, blank: Optional[np.ndarray] = None) -> list[list[str]]:
    """One list of cell strings per column of a (rows, p) float block.

    repr of a Python float is the shortest string that round-trips the
    double. Rows where blank is True are written as empty cells.
    """
    columns = [list(map(repr, column)) for column in block.T.tolist()]
    if blank is not None:
        rows = np.flatnonzero(blank).tolist()
        for column in columns:
            for i in rows:
                column[i] = ""
    return columns


def write_csv(ds: Dataset, path: str) -> None:
    """Write records in the canonical column order.

    The header is written by the csv module, so a name is quoted where
    it needs to be. Records end in CRLF, as the csv module's rows do.
    Floats use the shortest round-trip representation, so
    read_csv(write_csv(ds)) gives back the same bits; r and a are
    integers.
    The x_miss cells of a record whose x_miss values are all NaN are
    written empty; a record with only some of them NaN writes "nan".
    Cells are formatted column by column, _CHUNK_ROWS records at a time,
    with one write per chunk.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header_order(ds.columns))
        for start in range(0, ds.n, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            x_miss = ds.x_miss[rows]
            columns = [list(map(str, ds.r[rows].tolist()))]
            columns += _cells(ds.z[rows])
            columns += _cells(x_miss, np.isnan(x_miss).all(axis=1))
            columns += _cells(ds.x_obs[rows])
            columns.append(list(map(str, ds.a[rows].tolist())))
            for mk in ds.m:
                columns += _cells(mk[rows])
            columns += _cells(ds.y[rows, None])
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _parse_cell(token: str, col: str, allow_missing: bool) -> float:
    tok = token.strip()
    if tok.lower() in _MISSING_TOKENS:
        if allow_missing:
            return np.nan
        raise NonFiniteInput(f"missing value in always-observed column {col!r}")
    try:
        return float(tok)
    except ValueError as exc:
        raise NonFiniteInput(f"cannot parse {token!r} in column {col!r}") from exc


def _missing_as_nan(token: str) -> float:
    """An x_miss cell for np.loadtxt: the value _parse_cell reads, or a
    ValueError where it raises. float() itself reads "nan" in any case
    and around whitespace; only "", "na" and blank cells fail it."""
    try:
        return float(token) if token else np.nan
    except ValueError:
        if token.strip().lower() in _MISSING_TOKENS:
            return np.nan
        raise


def _unread_cell(token: str) -> float:
    """A cell of a column the descriptor does not declare, left unparsed."""
    return 0.0


def _integer_range(vals: np.ndarray) -> bool:
    """Whether every value of an integer column (r, a) converts to int."""
    return bool((np.abs(vals) < 2.0**63).all())


def _whole(vals: np.ndarray) -> np.ndarray:
    """Which values of an integer column (r, a) have no fractional part."""
    return vals == np.floor(vals)


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(name, str) for name in value)


def read_descriptor(path: str) -> tuple[int, dict]:
    """(k, columns) of a descriptor: r, a and y each name a column, z,
    x_miss and x_obs are lists of names, k is a JSON integer and m is k
    lists of names. A field of another type, or a column named twice, in
    two roles or within one, raises DimensionMismatch naming it. A UTF-8
    byte order mark is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DimensionMismatch(f"descriptor {path}: not valid JSON: {exc}") from exc
    try:
        k, columns = doc["k"], doc["columns"]
        for key in ("r", "z", "x_miss", "x_obs", "a", "m", "y"):
            columns[key]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"descriptor {path}: missing or malformed field ({exc})")
    if type(k) is not int:
        raise DimensionMismatch(f"descriptor {path}: 'k' must be an integer, got {k!r}")
    for key in ("r", "a", "y"):
        if not isinstance(columns[key], str):
            raise DimensionMismatch(f"descriptor {path}: {key!r} must be a column name")
    for key in ("z", "x_miss", "x_obs"):
        if not _is_names(columns[key]):
            raise DimensionMismatch(f"descriptor {path}: {key!r} must be a list of column names")
    if not isinstance(columns["m"], list) or not all(map(_is_names, columns["m"])):
        raise DimensionMismatch(f"descriptor {path}: 'm' must be a list of lists of column names")
    if len(columns["m"]) != k:
        raise DimensionMismatch(f"descriptor declares k={k} but {len(columns['m'])} mediator groups")
    roles: dict = {}
    for key in ("r", "z", "x_miss", "x_obs", "a", "m", "y"):
        names = columns[key]
        for name in [names] if key in ("r", "a", "y") else sum(names, []) if key == "m" else names:
            if name in roles:
                where = (f"twice in {key!r}" if roles[name] == key
                         else f"in both {roles[name]!r} and {key!r}")
                raise DimensionMismatch(f"descriptor {path}: column {name!r} {where}")
            roles[name] = key
    return k, columns


def _load_table(records: TextIO, header: list[str], idx: dict,
                columns: dict) -> Optional[np.ndarray]:
    """Every cell of the records as one float table, by one np.loadtxt
    call on the open file, from its position on.

    Only the x_miss columns read missing tokens, as NaN, and columns the
    descriptor does not declare are not parsed. None when loadtxt
    rejects the text, when the rows do not have one cell per header
    column, or when an always-observed column holds a NaN or an r or a
    value that is fractional or outside the integer range: _read_cells
    then names the error.
    """
    declared = {idx[name] for name in header_order(columns)}
    converters = {j: _unread_cell for j in range(len(header)) if j not in declared}
    converters.update({idx[name]: _missing_as_nan for name in columns["x_miss"]})
    try:
        table = np.loadtxt(records, dtype=float, delimiter=",", comments=None,
                           quotechar='"', ndmin=2, converters=converters)
    except ValueError:
        return None
    if table.shape[1] != len(header):
        return None
    observed = [idx[name] for name in header_order(columns) if name not in columns["x_miss"]]
    if np.isnan(table[:, observed]).any():
        return None
    integer = table[:, [idx[columns["r"]], idx[columns["a"]]]]
    if not _integer_range(integer) or not _whole(integer).all():
        return None
    return table


def _read_cells(records: TextIO, header: list[str], idx: dict, columns: dict) -> np.ndarray:
    """The table of _load_table, read by the csv module cell by cell
    from the open file's position on.

    Raises the error that names the row or column at fault. The checks
    run in a fixed order, so a file with several faults always names
    the same one: the length of every record, then r, a, y and the z,
    x_miss, x_obs and mediator blocks, column by column. Columns the
    descriptor does not declare stay NaN.
    """
    rows = [row for row in csv.reader(records) if row]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DimensionMismatch(f"row {i + 2}: {len(row)} cells for {len(header)} columns")
    table = np.full((len(rows), len(header)), np.nan)
    integer = (columns["r"], columns["a"])
    for name in [*integer, columns["y"], *columns["z"], *columns["x_miss"],
                 *columns["x_obs"], *(name for group in columns["m"] for name in group)]:
        j = idx[name]
        allow_missing = name in columns["x_miss"]
        table[:, j] = [_parse_cell(row[j], name, allow_missing) for row in rows]
        if name in integer:
            if not _integer_range(table[:, j]):
                raise NonFiniteInput(f"value out of integer range in column {name!r}")
            fractional = np.flatnonzero(~_whole(table[:, j]))
            if fractional.size:
                i = fractional[0]
                raise DimensionMismatch(
                    f"row {i + 2}: non-integer value {rows[i][j].strip()!r} in column {name!r}")
    return table


def read_csv(data_path: str, descriptor_path: str) -> Dataset:
    """Load a dataset given its sidecar descriptor.

    Column order in the file is free; columns are matched by name.
    Blank lines are skipped. The records are parsed by one np.loadtxt
    call on the open file, so no copy of the text is held; it reads a
    missing token (empty, na or nan in any case) as NaN in the x_miss
    columns only. A file that loadtxt rejects, or one with a NaN in an
    always-observed column or an r or a value that is fractional or
    outside the integer range, is read again from the first record, cell
    by cell, through the csv module, which raises the error naming the row or
    column at fault (or returns the same table when float() reads every
    cell, as it does "1_000"). Columns the descriptor does not declare
    are never parsed, and may repeat a name; a declared name may not.
    The file must be UTF-8 text; a byte order mark is skipped.
    """
    k, columns = read_descriptor(descriptor_path)
    try:
        with open(data_path, newline="", encoding="utf-8-sig") as fh:
            # readline, not iteration, so that tell() can mark where the records start
            lines = iter(fh.readline, "")
            try:
                header = [h.strip() for h in next(csv.reader(lines))]
            except StopIteration:
                raise EmptyDataset(f"{data_path} is empty")
            idx = {name: i for i, name in enumerate(header)}
            for name in header_order(columns):
                if name not in idx:
                    raise DimensionMismatch(f"column {name!r} declared but absent from {data_path}")
                if header.count(name) > 1:
                    raise DimensionMismatch(f"column {name!r} is repeated in {data_path}")
            records = fh.tell()
            if not any(line.strip("\r\n") for line in lines):
                raise EmptyDataset(f"{data_path} has a header but no records")
            fh.seek(records)
            table = _load_table(fh, header, idx, columns)
            if table is None:
                fh.seek(records)
                table = _read_cells(fh, header, idx, columns)
    except UnicodeDecodeError as exc:
        raise DimensionMismatch(f"{data_path}: not UTF-8 text: {exc}") from exc

    def column(name: str) -> np.ndarray:
        return np.ascontiguousarray(table[:, idx[name]])

    def block(names: list[str]) -> np.ndarray:
        return np.ascontiguousarray(table[:, [idx[name] for name in names]])

    return Dataset(
        r=column(columns["r"]).astype(int),
        z=block(columns["z"]),
        x_miss=block(columns["x_miss"]),
        x_obs=block(columns["x_obs"]),
        a=column(columns["a"]).astype(int),
        m=tuple(block(group) for group in columns["m"]),
        y=column(columns["y"]),
        columns=columns,
    )
