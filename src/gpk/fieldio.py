"""Binary field dumps.

Layout (little-endian): magic b"GPKF", uint32 version (1), uint32 dim,
uint32 points per axis, float64 box length, float64 snapshot time, then the
field values in C order as complex128 (re/im float64 pairs).
"""

from __future__ import annotations

import struct

import numpy as np

from .dynamics import GridSpec, WaveFunction
from .errors import ConfigurationError

_MAGIC, _VERSION = b"GPKF", 1
_HEADER = struct.Struct("<4sIII d d")
_VALUES = np.dtype("<c16")
# a read field's grid needs a time step; a dump does not carry one
_READ_DT = 1e-3


def write_field(path, psi: WaveFunction, t: float = 0.0) -> None:
    grid = psi.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, grid.dim, grid.points_per_axis,
                              grid.box_length, t))
        fh.write(np.ascontiguousarray(psi.values, dtype=_VALUES))


def read_field(path):
    """Returns (WaveFunction, snapshot_time); the file must hold exactly the
    values its header sizes."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        fields = _HEADER.unpack(raw) if len(raw) == _HEADER.size else ()
        # a corrupt dim must not size the value shape
        if fields[:2] != (_MAGIC, _VERSION) or fields[2] not in (1, 2, 3):
            raise ConfigurationError(f"{path} is not a gpk field dump")
        body = fh.read()
    dim, n, L, t = fields[2:]
    expected = n**dim * _VALUES.itemsize
    if len(body) != expected:
        raise ConfigurationError(
            f"{path}: field dump holds {len(body)} bytes of values, "
            f"expected {expected}")
    grid = GridSpec(dim=dim, box_length=L, points_per_axis=n, dt=_READ_DT,
                    t_final=0.0)
    values = np.frombuffer(body, dtype=_VALUES).reshape((n,) * dim).copy()
    return WaveFunction(values=values, grid=grid), t
