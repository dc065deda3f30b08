"""The JSON of qelab's files, written and read here and nowhere else.

Here are the two replay envelopes, a check dump (check_dump) and an exploration report
(exploration_report), which read_dump reads back, and the state and spec files (read_value).
results owns the check reports and encodes every JSON text; cli owns no file format.

A matrix is {"re": rows, "im": rows}; a state adds "dims", a Kraus channel is
{"d_in", "d_out", "kraus": [matrix, ...]}, a MarkovSpec {"d_a", "d_c", "blocks":
[{"weight", "ab": matrix, "bc": matrix}, ...]}.  A dumped instance value also
carries its "type"; a state or spec file is the untagged body.  Anything
malformed is a BadConfig naming where it is, and a NaN or infinite matrix entry
is linalg.finite's NonFinite; what decodes still validates itself as it is built (NotPSD,
BadTrace, InconsistentBlocks, DimMismatch).  The tests of the values and of cli's --seed and
grid flags (COUNT, GRID) are built by errors' number and grid, which need judges by.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel
from .errors import BadConfig, DimMismatch, grid, need, number
from .linalg import finite
from .states import DensityMatrix, MarkovSpec, SubnormalizedOperator
from .tolerances import TOL_INEQ


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_rows(value) -> bool:
    if not (isinstance(value, list) and value and isinstance(value[0], list) and value[0]):
        return False
    width = len(value[0])
    return all(isinstance(row, list) and len(row) == width and all(map(_is_number, row))
               for row in value)


def _json_int(test: tuple) -> tuple:
    """test, passed by a JSON integer alone: a dimension, seed or trial of 2.0 fails it."""
    return (lambda value: isinstance(value, int) and test[0](value), test[1])


# What a value must hold: a test and the words for it in an error message.
_LIST = (lambda value: isinstance(value, list), "a list")
_OBJECT = (lambda value: isinstance(value, dict), "a JSON object")
_NUMBER = (_is_number, "a number")
_TOLERANCE = number(0)
_DIM, COUNT = (_json_int(number(least, integral=True)) for least in (1, 0))
_DIM_LIST = (lambda value: _LIST[0](value) and all(map(_DIM[0], value)),
             "a list of integers >= 1")
_DIMS = (lambda value: _DIM_LIST[0](value) and value != [], "a non-empty list of integers >= 1")
GRID = grid()
_ROWS = (_is_rows, "a rectangular list of rows of numbers")


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise BadConfig(f"{where} must be a JSON object, got {type(obj).__name__}")
    return obj


def _field(obj, key: str, where: str, test=None, default=None):
    """obj[key], or ``default`` when obj lacks key and it is not None; BadConfig naming where
    when obj is no object, lacks a key with no default or holds a value that fails ``test``."""
    if key not in _object(obj, where):
        if default is None:
            raise BadConfig(f"{where} lacks the key {key!r}")
        return default
    return obj[key] if test is None else need(obj[key], test, f"{where}.{key}")


def _encode_matrix(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def _decode_matrix(obj, where: str) -> np.ndarray:
    re, im = (np.asarray(_field(obj, key, where, _ROWS), dtype=float) for key in ("re", "im"))
    if re.shape != im.shape:
        raise BadConfig(f"{where}: re and im have different shapes")
    return finite(re) + 1j * finite(im)  # a raw matrix value reaches its checker unvalidated


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


def check_dump(checker: str, dims, seed: int, trial: int, tolerance: float, opts: dict,
               instance: dict) -> dict:
    """The dump of a check's worst failing trial."""
    return {"checker": checker, "dims": list(dims), "seed": seed, "trial": trial,
            "tolerance": tolerance, "opts": opts, "instance": serialize_instance(instance)}


def exploration_report(kind: str, trials: int, dims, seed: int, tolerance: float,
                       min_slack: float, worst_trial: int, edges, counts, worst_instance: dict,
                       candidate: bool) -> dict:
    """The report of an exploration: its slack histogram and its worst trial's instance."""
    return {"kind": kind, "trials": trials, "dims": "x".join(str(int(d)) for d in dims),
            "seed": seed, "tolerance": tolerance, "min_slack": min_slack,
            "worst_trial": worst_trial, "worst_instance": serialize_instance(worst_instance),
            "histogram": {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]},
            "candidate_counterexample": candidate}


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadConfig(f"cannot read {what} {path!r}: {exc}") from exc


# A value file's kind: (what a failed read calls the file, where a fault in it is)
_FILES = {"state": ("state", "state"), "markov_spec": ("Markov spec", "spec")}


def read_value(path: str, kind: str):
    """The value of ``kind``, "state" or "markov_spec", whose untagged body is the file."""
    what, where = _FILES[kind]
    return deserialize_value(_read_json(path, what), kind, where)


def _named(dump: dict, key: str, registry: dict):
    """The entry of registry that dump[key] names."""
    test = (lambda name: isinstance(name, str) and name in registry,
            "one of " + ", ".join(registry))
    return registry[_field(dump, key, "dump", test)]


def read_dump(path: str, checkers: dict, kinds: dict) -> tuple:
    """(suite, instance, tolerance, opts, record) of the check dump or exploration report
    at path, for replay.

    A check dump names its suite among ``checkers``, and record is the (dims, seed, trial)
    of its report record.  A file without "checker" is an exploration report, which names
    its suite among ``kinds``, and record is None.  When missing, tolerance is TOL_INEQ,
    opts {}, dims [] and seed and trial 0.
    """
    dump = _object(_read_json(path, "dump"), "dump")
    tolerance = _field(dump, "tolerance", "dump", _TOLERANCE, TOL_INEQ)
    opts = _field(dump, "opts", "dump", _OBJECT, {})
    for key in opts:
        _field(opts, key, "dump.opts", GRID)
    if "checker" in dump:
        suite = _named(dump, "checker", checkers)
        record = (_field(dump, "dims", "dump", _DIM_LIST, []),
                  _field(dump, "seed", "dump", COUNT, 0), _field(dump, "trial", "dump", COUNT, 0))
        blob = _field(dump, "instance", "dump")
    else:
        suite, record = _named(dump, "kind", kinds), None
        blob = _field(dump, "worst_instance", "dump")
    return suite, deserialize_instance(blob), tolerance, opts, record
