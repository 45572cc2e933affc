import numpy as np
import pytest

from rieffel.cli import main
from rieffel.errors import MGFFormatError
from rieffel.grids import GridSpec
from rieffel.mgf import MAGIC, read_mgf, write_mgf
from rieffel.module_space import ModuleFunction


def sample_field(seed=0, n=2, npts=16, L=8.0, k=2):
    r = np.random.default_rng(seed)
    g = GridSpec(n, npts, L)
    return ModuleFunction(g, r.normal(size=g.shape + (k, k))
                          + 1j * r.normal(size=g.shape + (k, k)))


def test_round_trip_bit_identical(tmp_path):
    f = sample_field()
    p = tmp_path / "field.mgf"
    write_mgf(p, f)
    back = read_mgf(p)
    assert back.grid.compatible(f.grid)
    assert np.array_equal(back.samples, f.samples)
    # a second write of the read-back file produces the same bytes
    p2 = tmp_path / "again.mgf"
    write_mgf(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_truncated_header(tmp_path):
    p = tmp_path / "short.mgf"
    p.write_bytes(MAGIC + b"\x01\x00")
    with pytest.raises(MGFFormatError, match="truncated header"):
        read_mgf(p)


def test_truncated_payload(tmp_path):
    f = sample_field()
    p = tmp_path / "cut.mgf"
    write_mgf(p, f)
    data = p.read_bytes()
    p.write_bytes(data[:-16])
    with pytest.raises(MGFFormatError, match="truncated payload"):
        read_mgf(p)


def test_trailing_bytes(tmp_path):
    f = sample_field()
    p = tmp_path / "long.mgf"
    write_mgf(p, f)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(MGFFormatError, match="trailing"):
        read_mgf(p)


def test_bad_magic(tmp_path):
    f = sample_field()
    p = tmp_path / "bad.mgf"
    write_mgf(p, f)
    data = bytearray(p.read_bytes())
    data[:4] = b"XGF1"
    p.write_bytes(bytes(data))
    with pytest.raises(MGFFormatError, match="magic"):
        read_mgf(p)


def test_nan_payload_rejected(tmp_path):
    f = sample_field()
    f.samples[0, 0, 0, 0] = np.nan
    p = tmp_path / "nan.mgf"
    write_mgf(p, f)
    with pytest.raises(MGFFormatError, match="NaN"):
        read_mgf(p)


def test_header_claiming_huge_payload_rejected_before_read(tmp_path, capsys):
    # 24 header bytes claiming n=2, N=65536, k=1024, i.e. 2^56 payload bytes:
    # the size check rejects it before read() is asked for that many
    import struct
    p = tmp_path / "huge.mgf"
    p.write_bytes(struct.Struct("<4sIIId").pack(MAGIC, 2, 65536, 1024, 8.0))
    with pytest.raises(MGFFormatError, match="truncated payload"):
        read_mgf(p)
    assert main(["info", str(p)]) == 2
    assert "truncated payload" in capsys.readouterr().err


def test_invalid_header_fields(tmp_path):
    import struct
    header = struct.Struct("<4sIIId")  # magic; u32 n, N, k; f64 L
    p = tmp_path / "hdr.mgf"
    for n, npts, k, L in [(3, 16, 1, 8.0), (2, 7, 1, 8.0), (2, 16, 0, 8.0),
                          (2, 16, 1, -1.0), (2, 16, 1, float("inf"))]:
        p.write_bytes(header.pack(MAGIC, n, npts, k, L))
        with pytest.raises(MGFFormatError):
            read_mgf(p)


def test_one_dimensional_round_trip(tmp_path):
    f = sample_field(seed=1, n=1, npts=32, k=1)
    p = tmp_path / "oned.mgf"
    write_mgf(p, f)
    back = read_mgf(p)
    assert back.grid.n == 1
    assert np.array_equal(back.samples, f.samples)


@pytest.mark.parametrize("n, npts, k", [(2, 8, 3), (1, 16, 2)])
def test_layout_is_header_and_interleaved_pairs(tmp_path, n, npts, k):
    # the file is the header, then one little-endian (re, im) float64 pair
    # per value, grid row-major with the matrix entries innermost; signed
    # zeros keep their sign both ways
    import struct
    f = sample_field(seed=4, n=n, npts=npts, k=k)
    f.samples.flat[:3] = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 1.0)]
    p = tmp_path / "layout.mgf"
    write_mgf(p, f)
    values = [f.samples[idx] for idx in np.ndindex(f.samples.shape)]
    expect = struct.pack("<4sIIId", b"MGF1", n, npts, k, 8.0) + b"".join(
        struct.pack("<dd", z.real, z.imag) for z in values)
    assert p.read_bytes() == expect
    back = read_mgf(p)
    assert back.samples.flags.writeable
    assert np.array_equal(back.samples, f.samples)
    assert np.array_equal(np.signbit(back.samples.view(float)),
                          np.signbit(f.samples.view(float)))
