"""How csiauth reads JSON. Every number goes through number(): an integer
key takes only a JSON integer, a real key only a finite JSON number, and a
bool is never a number. A model file stores an array as {"dtype", "shape",
"base64"}, the base64 of its little-endian "<f8" or "<i4" bytes, so a
loaded array is bit for bit the saved one."""

from __future__ import annotations

import base64
import binascii
import json
import math
import numbers
import sys
import typing
from pathlib import Path

import numpy as np


def number(value, kind: type, name: str):
    """value as a `kind`: an int if it is an integer, a float if it is a
    finite real, never from a bool; else ValueError naming `name`."""
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) if kind is int
        else isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    ):
        return kind(value)
    what = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{name} must be {what}, got {json.dumps(value, default=repr)}")


def scalar(doc: dict, key: str, kind: type):
    return number(doc[key], kind, f'"{key}"')


def typed_fields(cls, values: dict, where: str = "") -> dict:
    """values through number() by the kind of the field of the dataclass cls
    that each key names, an error naming '"<key>"<where>'; a field typed
    `float | None` also takes None."""
    hints = typing.get_type_hints(cls)
    checked = {}
    for key, value in values.items():
        if key not in hints:
            raise ValueError(f"unknown key {key!r}{where}")
        kind, *none = typing.get_args(hints[key]) or (hints[key],)
        checked[key] = value if value is None and none else number(value, kind, f'"{key}"{where}')
    return checked


class NumberFields:
    """A base of frozen dataclasses whose int and float fields are checked
    by typed_fields on construction."""

    def __post_init__(self):
        for key, value in typed_fields(type(self), vars(self)).items():
            object.__setattr__(self, key, value)


def read_document(path, build, version: int | None = None, what="", command=""):
    """build(doc) of the JSON object in the file `path`, of `version` if not
    None; a malformed document raises ValueError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        if version is not None and doc.get("format_version") != version:
            raise ValueError(
                f"{what} format {doc.get('format_version')!r} is not {version}; "
                f"re-run `{command}` to rewrite it"
            )
        return build(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
