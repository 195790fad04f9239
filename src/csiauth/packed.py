"""Exact binary arrays inside JSON model files, shared by detector files and
GAN checkpoints.

An array is stored as {"dtype", "shape", "base64"}: the base64 of its
little-endian bytes, "<f8" for floats and "<i4" for integers. A loaded
array is bit for bit the saved one, and no decimal text is parsed.
"""

from __future__ import annotations

import base64
import binascii
import math

import numpy as np


def pack(a: np.ndarray) -> dict:
    dtype = "<f8" if a.dtype.kind == "f" else "<i4"
    data = np.ascontiguousarray(a, dtype=dtype).tobytes()
    return {
        "dtype": dtype, "shape": list(a.shape), "base64": base64.b64encode(data).decode("ascii")
    }


def unpack(doc: dict, key: str, dtype: str, ndim: int) -> np.ndarray:
    """The packed array doc[key], which must hold exactly `dtype` data of a
    shape with `ndim` dimensions. The result is read-only."""
    packed = doc[key]
    if not isinstance(packed, dict):
        raise ValueError(f"{key} must be a packed array object, got {type(packed).__name__}")
    if packed["dtype"] != dtype:
        raise ValueError(f"{key} has dtype {packed['dtype']!r}, expected {dtype!r}")
    shape = packed["shape"]
    if not (
        isinstance(shape, list) and len(shape) == ndim
        and all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ValueError(f"{key} must have a shape of {ndim} dimensions, got {shape!r}")
    try:
        data = base64.b64decode(packed["base64"], validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{key} is not valid base64: {exc}") from exc
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if len(data) != size:
        raise ValueError(f"{key} holds {len(data)} bytes, shape {shape} needs {size}")
    return np.frombuffer(data, dtype=dtype).reshape(shape)


def finite_array(doc: dict, key: str, ndim: int) -> np.ndarray:
    """unpack of an "<f8" array, which must hold only finite values."""
    a = unpack(doc, key, "<f8", ndim)
    if not np.isfinite(a).all():
        raise ValueError(f"{key} holds a non-finite value")
    return a
