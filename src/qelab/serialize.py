"""The JSON format of qelab's inputs, written and read here and nowhere else.

A matrix is {"re": rows, "im": rows}; a state adds "dims", a Kraus channel is
{"d_in", "d_out", "kraus": [matrix, ...]}, a MarkovSpec {"d_a", "d_c", "blocks":
[{"weight", "ab": matrix, "bc": matrix}, ...]}.  A dumped instance value also
carries its "type"; a state or spec file is the untagged body.  Anything
malformed is a BadConfig naming where it is, and a NaN or infinite matrix entry
is NonFinite; what decodes still validates itself as it is built (NotPSD,
BadTrace, InconsistentBlocks, DimMismatch).
"""

from __future__ import annotations

import reprlib

import numpy as np

from .channels import KrausChannel
from .errors import BadConfig, DimMismatch, NonFinite
from .states import DensityMatrix, MarkovSpec, SubnormalizedOperator


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_rows(value) -> bool:
    if not (isinstance(value, list) and value and isinstance(value[0], list) and value[0]):
        return False
    width = len(value[0])
    return all(isinstance(row, list) and len(row) == width and all(map(_is_number, row))
               for row in value)


# What a field must hold: a test and the words for it in an error message.
_LIST = (lambda value: isinstance(value, list), "a list")
_NUMBER = (_is_number, "a number")
_DIM = (lambda value: _is_number(value) and isinstance(value, int) and value >= 1,
        "an integer >= 1")
_DIMS = (lambda value: _LIST[0](value) and value and all(map(_DIM[0], value)),
         "a non-empty list of integers >= 1")
_ROWS = (_is_rows, "a rectangular list of rows of numbers")


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise BadConfig(f"{where} must be a JSON object, got {type(obj).__name__}")
    return obj


def _field(obj, key: str, where: str, need=None):
    """obj[key], or BadConfig naming where when obj is no object, lacks key or
    holds a value that fails ``need``."""
    if key not in _object(obj, where):
        raise BadConfig(f"{where} lacks the key {key!r}")
    if need is not None and not need[0](obj[key]):
        raise BadConfig(f"{where}.{key} must be {need[1]}, got {reprlib.repr(obj[key])}")
    return obj[key]


def _encode_matrix(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def _decode_matrix(obj, where: str) -> np.ndarray:
    re, im = (np.asarray(_field(obj, key, where, _ROWS), dtype=float) for key in ("re", "im"))
    if re.shape != im.shape:
        raise BadConfig(f"{where}: re and im have different shapes")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        # a raw matrix value reaches its checker unvalidated
        raise NonFinite("matrix has a NaN or infinite entry")
    return re + 1j * im


def serialize_value(value) -> dict:
    """The tagged JSON object of one instance value."""
    if isinstance(value, DensityMatrix):
        return {"type": "state", "dims": list(value.dims), **_encode_matrix(value.mat)}
    if isinstance(value, SubnormalizedOperator):
        return {"type": "subnormalized", **_encode_matrix(value.mat)}
    if isinstance(value, KrausChannel):
        kraus = [_encode_matrix(k) for k in value.kraus]
        return {"type": "channel", "d_in": value.d_in, "d_out": value.d_out, "kraus": kraus}
    if isinstance(value, MarkovSpec):
        blocks = [{"weight": p, "ab": _encode_matrix(ab.mat), "bc": _encode_matrix(bc.mat)}
                  for p, ab, bc in zip(value.weights, value.ab_factors, value.bc_factors)]
        return {"type": "markov_spec", "d_a": value.d_a, "d_c": value.d_c, "blocks": blocks}
    if isinstance(value, np.ndarray):
        return {"type": "matrix", **_encode_matrix(value)}
    if isinstance(value, (int, np.integer)):
        # kept exact: a wide Monte Carlo seed would not survive a float round trip
        return {"type": "scalar", "value": int(value)}
    if isinstance(value, (float, np.floating)):
        return {"type": "scalar", "value": float(value)}
    raise BadConfig(f"cannot serialize instance value of type {type(value).__name__}")


def deserialize_value(obj, kind: str | None = None, where: str = "value"):
    """The value a tagged JSON object encodes or, given ``kind`` ("state",
    "markov_spec", ...), the untagged body of that kind.  ``where`` names obj
    in error messages."""
    kind = kind or _field(obj, "type", where)
    if kind == "state":
        dims = _field(obj, "dims", where, _DIMS)
        return DensityMatrix(_decode_matrix(obj, where), dims)
    if kind == "subnormalized":
        return SubnormalizedOperator(_decode_matrix(obj, where))
    if kind == "channel":
        ops = enumerate(_field(obj, "kraus", where, _LIST))
        channel = KrausChannel([_decode_matrix(k, f"{where}.kraus[{i}]") for i, k in ops])
        stored = (_field(obj, "d_in", where, _DIM), _field(obj, "d_out", where, _DIM))
        if stored != (channel.d_in, channel.d_out):
            raise DimMismatch("stored dimensions disagree with Kraus shapes")
        return channel
    if kind == "markov_spec":
        d_a, d_c = _field(obj, "d_a", where, _DIM), _field(obj, "d_c", where, _DIM)
        weights, abs_, bcs = [], [], []
        for i, block in enumerate(_field(obj, "blocks", where, _LIST)):
            at = f"{where}.blocks[{i}]"
            weights.append(float(_field(block, "weight", at, _NUMBER)))
            abs_.append(DensityMatrix(_decode_matrix(_field(block, "ab", at), f"{at}.ab")))
            bcs.append(DensityMatrix(_decode_matrix(_field(block, "bc", at), f"{at}.bc")))
        # the weights as stored, not renormalized: a dumped spec replays bit for bit
        return MarkovSpec(d_a, d_c, tuple(weights), tuple(abs_), tuple(bcs))
    if kind == "matrix":
        return _decode_matrix(obj, where)
    if kind == "scalar":
        return _field(obj, "value", where, _NUMBER)
    raise BadConfig(f"{where} has unknown type {kind!r}")


def serialize_instance(instance: dict) -> dict:
    return {name: serialize_value(value) for name, value in instance.items()}


def deserialize_instance(obj) -> dict:
    return {name: deserialize_value(value, where=f"instance.{name}")
            for name, value in _object(obj, "instance").items()}
