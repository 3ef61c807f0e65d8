"""Binary field and kernel dumps.

Field layout (little-endian): magic b"GPKF", uint32 version (1), uint32 dim,
uint32 points per axis, float64 box length, float64 snapshot time, then the
field values in C order as complex128 (re/im float64 pairs).

Kernel layout: magic b"GPKK", uint32 version (1), uint32 dim, uint32 points
per axis, uint32 scale parameter N, float64 box length, then the dense
M x M kernel values (M = points^dim) row-major as complex128.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .dynamics import GridSpec, WaveFunction
from .errors import ConfigurationError

_VERSION = 1
_VALUES = np.dtype("<c16")
_FIELD = (b"GPKF", struct.Struct("<4sIII d d"))
_KERNEL = (b"GPKK", struct.Struct("<4sIIII d"))
# a read field's grid needs a time step; a dump does not carry one
_READ_DT = 1e-3


def _write(path, layout, fields, values) -> None:
    """One dump: the header of `layout` holding `fields`, then the values."""
    magic, header = layout
    with open(path, "wb") as fh:
        fh.write(header.pack(magic, _VERSION, *fields))
        fh.write(np.ascontiguousarray(values, dtype=_VALUES))


def _read(path, layout, what: str, shape):
    """(header fields, values) of a dump; `shape(*fields)` is the values'
    shape, and the file must hold exactly that many."""
    magic, header = layout
    with open(path, "rb") as fh:
        raw = fh.read(header.size)
        fields = header.unpack(raw) if len(raw) == header.size else ()
        # dim follows the version in both layouts; a corrupt dim must not
        # size the value shape
        if fields[:2] != (magic, _VERSION) or fields[2] not in (1, 2, 3):
            raise ConfigurationError(f"{path} is not a gpk {what} dump")
        body = fh.read()
    fields = fields[2:]
    dims = shape(*fields)
    expected = math.prod(dims) * _VALUES.itemsize
    if len(body) != expected:
        raise ConfigurationError(
            f"{path}: {what} dump holds {len(body)} bytes of values, "
            f"expected {expected}")
    return fields, np.frombuffer(body, dtype=_VALUES).reshape(dims).copy()


def write_field(path, psi: WaveFunction, t: float = 0.0) -> None:
    grid = psi.grid
    _write(path, _FIELD, (grid.dim, grid.points_per_axis, grid.box_length, t),
           psi.values)


def read_field(path):
    """Returns (WaveFunction, snapshot_time)."""
    (dim, n, L, t), vals = _read(path, _FIELD, "field",
                                 lambda dim, n, L, t: (n,) * dim)
    grid = GridSpec(dim=dim, box_length=L, points_per_axis=n, dt=_READ_DT,
                    t_final=0.0)
    return WaveFunction(values=vals, grid=grid), t


def write_kernel(path, kernel, N: int) -> None:
    grid = kernel.grid
    _write(path, _KERNEL,
           (grid.dim, grid.points_per_axis, int(N), grid.box_length),
           kernel.values)


def read_kernel(path):
    """Returns (values as an (M, M) complex array, dim, n, N, box_length)."""
    (dim, n, N, L), vals = _read(path, _KERNEL, "kernel",
                                 lambda dim, n, N, L: (n**dim, n**dim))
    return vals, dim, n, N, L
