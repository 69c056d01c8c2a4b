"""Property tests: invariants checked over generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shadowpse.data_model import Dataset, DatasetDims, read_csv, write_csv, write_descriptor

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
            1.7976931348623157e308]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64),
                   st.sampled_from(EXTREMES))


@st.composite
def datasets(draw):
    """A dataset of random finite float64 blocks, x_miss NaN where r = 0."""
    n = draw(st.integers(1, 25))
    dims = DatasetDims(z=draw(st.integers(1, 2)), x_miss=draw(st.integers(1, 2)),
                       x_obs=draw(st.integers(0, 2)),
                       m=tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))))
    width = dims.z + dims.x + sum(dims.m) + 1
    cells = draw(arrays(np.float64, (n, width), elements=FINITE))
    r = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    a = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    z, x_miss, x_obs, *m, y = np.split(
        cells, np.cumsum([dims.z, dims.x_miss, dims.x_obs, *dims.m]), axis=1)
    x_miss[r == 0] = np.nan
    return Dataset(r=r, z=z, x_miss=x_miss, x_obs=x_obs, a=a, m=tuple(m), y=y[:, 0],
                   dims=dims)


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
