import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from morsecontrol import GridFile, read_grid, write_grid
from morsecontrol.errors import FormatError


def roundtrip(tmp_path, grid, name="g.wgrd"):
    path = tmp_path / name
    write_grid(path, grid)
    return path, read_grid(path)


def test_small_matrix_roundtrip(tmp_path):
    grid = GridFile(
        axes=(np.array([0.0, 1.0]), np.array([-1.0, 0.0])),
        payload=np.eye(2),
        meta={"theta": "0.5", "t": "12.0"},
    )
    _, back = roundtrip(tmp_path, grid)
    assert np.array_equal(back.payload, grid.payload)
    assert all(np.array_equal(a, b) for a, b in zip(back.axes, grid.axes))
    assert back.meta == grid.meta


def test_non_ascii_metadata_preserved(tmp_path):
    grid = GridFile(
        axes=(np.linspace(0, 1, 4),),
        payload=np.arange(4.0),
        meta={"ключ": "значение", "λ": "116.56", "note": "±5·σ"},
    )
    _, back = roundtrip(tmp_path, grid)
    assert back.meta == grid.meta


def test_file_size_closed_form(tmp_path):
    x = np.linspace(-1, 1, 1024)
    p = np.linspace(-2, 2, 512)
    grid = GridFile(axes=(x, p), payload=np.zeros((1024, 512)), meta={"k": "v"})
    path, _ = roundtrip(tmp_path, grid)
    # header + dims + axes + payload + metadata, all explicit
    expected = 5 + 1 + 4 + 16 + 8 * (1024 + 512) + 8 * 1024 * 512 + 8 + len(b'{"k":"v"}')
    assert path.stat().st_size == expected


def test_shape_mismatch_rejected():
    with pytest.raises(FormatError, match="shape"):
        GridFile(axes=(np.zeros(3),), payload=np.zeros(4))


def test_axes_must_be_one_dimensional():
    # a (2, 2) axis would come back from read_grid as shape (4,)
    with pytest.raises(FormatError, match="axes must be 1-d"):
        GridFile(axes=(np.zeros((2, 2)),), payload=np.zeros(4))


@pytest.mark.parametrize("axes, payload", [
    ((np.arange(3.0),), np.array([1 + 2j, 3, 4j])),
    ((np.array([0.0, 1j, 2.0]),), np.zeros(3)),
], ids=["payload", "axis"])
def test_complex_arrays_rejected(axes, payload):
    # written as float64 they would come back with the imaginary parts dropped
    with pytest.raises(FormatError, match="must be real"):
        GridFile(axes=axes, payload=payload)


@pytest.mark.parametrize("axes, payload", [
    ((np.arange(2.0),), np.array([2**53 + 1, 3])),
    ((np.array(["a", "b"]),), np.zeros(2)),
    ((np.arange(2.0),), np.array([0.1, 3.0], dtype=np.float32)),
    ((np.arange(2.0).astype(">f8"),), np.zeros(2)),
], ids=["int64-payload", "string-axis", "float32-payload", "big-endian-axis"])
def test_non_float64_arrays_rejected(axes, payload):
    # a cast on write would round 2**53 + 1, fail on the strings only in
    # write_grid, and read the float32 and '>f8' values back with other bytes
    with pytest.raises(FormatError, match="must be real float64"):
        GridFile(axes=axes, payload=payload)


def test_non_string_metadata_rejected():
    with pytest.raises(FormatError, match="str"):
        GridFile(axes=(np.zeros(2),), payload=np.zeros(2), meta={"a": 1})


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.wgrd"
    grid = GridFile(axes=(np.zeros(2),), payload=np.zeros(2))
    write_grid(path, grid)
    data = bytearray(path.read_bytes())
    data[:5] = b"NOPE!"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="magic"):
        read_grid(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.wgrd"
    grid = GridFile(axes=(np.linspace(0, 1, 8),), payload=np.arange(8.0))
    write_grid(path, grid)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(FormatError, match="truncated"):
        read_grid(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "long.wgrd"
    grid = GridFile(axes=(np.linspace(0, 1, 8),), payload=np.arange(8.0))
    write_grid(path, grid)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        read_grid(path)


def test_bad_endian_flag_rejected(tmp_path):
    path = tmp_path / "endian.wgrd"
    write_grid(path, GridFile(axes=(np.zeros(2),), payload=np.zeros(2)))
    data = bytearray(path.read_bytes())
    data[5:6] = b">"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="endian"):
        read_grid(path)


@pytest.mark.parametrize("rank", [0, 9])
def test_rank_out_of_range_rejected(tmp_path, rank):
    path = tmp_path / "rank.wgrd"
    path.write_bytes(b"WGRD1<" + struct.pack("<I", rank))
    with pytest.raises(FormatError, match=f"rank {rank} out of range 1..8"):
        read_grid(path)


@pytest.mark.parametrize("meta, message", [
    (b"\xff\xfe", "not UTF-8 JSON"),
    (b"{,", "not UTF-8 JSON"),
    (b"[]", "must be a JSON object"),
])
def test_bad_metadata_rejected(tmp_path, meta, message):
    path = tmp_path / "meta.wgrd"
    write_grid(path, GridFile(axes=(np.zeros(2),), payload=np.zeros(2)))
    # the file ends with the two bytes of the empty object "{}"
    data = path.read_bytes()
    assert data[-2:] == b"{}"
    path.write_bytes(data[:-2] + meta)
    with pytest.raises(FormatError, match=message):
        read_grid(path)


def test_ten_randomized_roundtrips_bit_exact(tmp_path):
    rng = np.random.default_rng(20139)
    for k in range(10):
        rank = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 9)) for _ in range(rank))
        axes = tuple(np.sort(rng.standard_normal(d)) for d in dims)
        payload = rng.standard_normal(dims)
        meta = {f"key{i}": repr(rng.standard_normal()) for i in range(int(rng.integers(0, 4)))}
        grid = GridFile(axes=axes, payload=payload, meta=meta)
        _, back = roundtrip(tmp_path, grid, f"r{k}.wgrd")
        assert back.payload.tobytes() == payload.tobytes()
        assert back.payload.shape == payload.shape
        for a, b in zip(axes, back.axes):
            assert b.tobytes() == a.tobytes()
        assert back.meta == meta


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def desk_grid():
    rng = np.random.default_rng(7)
    return GridFile(axes=(np.linspace(-0.25, 0.45, 2048), np.linspace(-300.0, 300.0, 512)),
                    payload=rng.standard_normal((2048, 512)), meta={"theta": "0.5"})


def test_write_streams_the_payload_without_a_copy(tmp_path, desk_grid):
    peak = _traced_peak(lambda: write_grid(tmp_path / "w.wgrd", desk_grid))
    assert peak <= 0.5 * desk_grid.payload.nbytes


def test_read_fills_the_payload_array_once(tmp_path, desk_grid):
    path = tmp_path / "r.wgrd"
    write_grid(path, desk_grid)
    peak = _traced_peak(lambda: read_grid(path))
    assert peak <= 1.5 * desk_grid.payload.nbytes


@settings(max_examples=40, deadline=None)
@given(
    values=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(allow_nan=True, allow_infinity=True, width=64),
    ),
    meta=st.dictionaries(
        st.text(min_size=0, max_size=8), st.text(min_size=0, max_size=12), max_size=4
    ),
)
def test_roundtrip_property(values, meta):
    import tempfile
    from pathlib import Path

    axes = (np.arange(values.shape[0], dtype=float), np.arange(values.shape[1], dtype=float))
    grid = GridFile(axes=axes, payload=values, meta=meta)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prop.wgrd"
        write_grid(path, grid)
        back = read_grid(path)
    assert back.payload.tobytes() == values.tobytes()
    assert back.meta == meta
