import numpy as np

from bgqkd.io import pgm_bytes, write_pgm


def test_pgm_header_and_peak():
    intensity = np.zeros((8, 8))
    intensity[3, 4] = 2.5
    data = pgm_bytes(intensity)
    header, rest = data.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"8 8"
    maxval, body = rest.split(b"\n", 1)
    assert maxval == b"65535"
    arr = np.frombuffer(body, dtype=">u2").reshape(8, 8)
    assert arr[3, 4] == 65535
    assert arr.sum() == 65535


def test_pgm_16bit_big_endian():
    intensity = np.array([[0.0, 1.0]])
    data = pgm_bytes(intensity)
    body = data.split(b"\n", 3)[3]
    arr = np.frombuffer(body, dtype=">u2")
    assert list(arr) == [0, 65535]


def test_pgm_deterministic(tmp_path):
    rng = np.random.default_rng(0)
    intensity = rng.random((16, 16))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, intensity)
    write_pgm(p2, intensity)
    assert p1.read_bytes() == p2.read_bytes()
