"""Readers of outside mappings (YAML configs, model metadata), each declared as
mappings from its required and its optional keys to readers: a reader takes
(value, where) and returns the value parsed, or raises ValidationError naming `where`."""

import dataclasses

import numpy as np

from .errors import ValidationError


def _read(node, where, required, optional={}):
    """The keys of mapping `node` that are given (not null), each parsed by
    its reader.  Unknown keys and missing required ones raise.  An omitted
    or null key is left out, so the callee's own default applies."""
    if not isinstance(node, dict):
        raise ValidationError(f"{where} must be a mapping")
    keys = {**required, **optional}
    unknown = sorted(set(node) - set(keys), key=str)
    if unknown:
        raise ValidationError(
            f"{where}: unknown keys {unknown}; allowed keys are {sorted(keys)}")
    given = {key: value for key, value in node.items() if value is not None}
    for key in required:
        if key not in given:
            raise ValidationError(f"{where}: missing required key {key!r}")
    return {key: keys[key](value, f"{where}.{key}") for key, value in given.items()}


def _raw(value, where):
    return value


def _path(value, where):
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a file path, got {value!r}")
    return value


def _float(value, where):
    number = _numbers(value, where)
    if number.ndim:
        raise ValidationError(f"{where} must be a finite number, got {value!r}")
    return float(number)


def _int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    return value


def _seed(value, where):
    if _int(value, where) < 0:
        raise ValidationError(f"{where} must be a nonnegative integer, got {value!r}")
    return value


def _numbers(value, where):
    """A finite number or (nested) list of finite numbers as a float64 array."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{where} must be numeric, got {value!r}") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return arr


def _vector(value, where, width=None):
    arr = _numbers(value, where).reshape(-1)
    if width is not None:
        if arr.size == 1:
            arr = np.full(width, arr[0])
        elif arr.size != width:
            raise ValidationError(f"{where} must have {width} entries, got {arr.size}")
    return arr


def _read_fields(cls, node, where, **readers):
    """`_read` with one key per field of dataclass `cls`, read by `readers`'
    entry for it or else by its annotated type; fields without a default
    are required."""
    required, optional = {}, {}
    for f in dataclasses.fields(cls):
        keys = required if f.default is dataclasses.MISSING else optional
        keys[f.name] = readers.get(f.name) or {"int": _int, "float": _float}[f.type]
    return _read(node, where, required, optional)
