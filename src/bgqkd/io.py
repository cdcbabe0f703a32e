"""File export: NetPBM (PGM) intensity images."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def pgm_bytes(intensity: np.ndarray) -> bytes:
    """Encode an intensity map as 16-bit binary PGM (P5), max-normalized.

    Samples are big-endian with maxval 65535, per the NetPBM convention.
    """
    arr = np.asarray(intensity, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("intensity must be a 2-D array")
    peak = arr.max()
    scale = 0.0 if peak <= 0 else 1.0 / peak
    quant = np.rint(arr * scale * 65535)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    return header + quant.astype(">u2").tobytes()


def write_pgm(path, intensity: np.ndarray) -> None:
    Path(path).write_bytes(pgm_bytes(intensity))
