"""Out-of-process span tracer for qelab: wraps the package from outside.

``install()`` replaces every public function and public method of the qelab
layer modules, the suite and exploration registry entries, and the
``numpy.linalg`` kernels qelab calls, with wrappers that record one span per
call.  A function is rebound under every name that refers to it in any qelab
module (``checks.herm_eig`` as well as ``linalg.herm_eig``), because a wrapper
on the defining module alone misses every call made through an import.

Spans live in flat in-memory arrays (name id, start, end, parent span, trial)
and are written out once, by ``save``, when the traced work has finished.
Nothing here is imported by the untraced benchmark process.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array

import numpy as np

# Module -> layer.  ``errors`` and ``tolerances`` do no runtime work.
LAYER_OF_MODULE = {
    "qelab.cli": "cli",
    "qelab.suites": "suites",
    "qelab.checks": "checks",
    "qelab.entropy": "entropy",
    "qelab.channels": "channels",
    "qelab.states": "states",
    "qelab.linalg": "linalg",
    "qelab.results": "results",
    "qelab.serialize": "results",
}
KERNELS = ("eigh", "eigvalsh", "svd", "qr")

# Plain dunders are object plumbing; these two do the work of their class.
_WRAPPED_DUNDERS = ("__init__", "__call__")


class Tracer:
    """Records nested call spans; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial = array("q")
        self._stack = [-1]
        self.trial_no = -1
        self._eig_inputs: set = set()
        self.herm_eig_repeats = 0

    def begin_trial(self) -> None:
        self.trial_no += 1
        self._eig_inputs = set()

    def note_eig_input(self, h) -> None:
        """Count a herm_eig input whose bytes were already decomposed this trial."""
        mat = np.asarray(h, dtype=complex)
        key = (mat.shape, mat.tobytes())
        if key in self._eig_inputs:
            self.herm_eig_repeats += 1
        else:
            self._eig_inputs.add(key)

    def wrap(self, fn, name: str, starts_trial: bool = False, observe=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_trial:
                self.begin_trial()
            if observe is not None:
                observe(*args)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.trial.append(self.trial_no)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            trial=np.frombuffer(self.trial, dtype=np.int64),
        )


def _qelab_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qelab" or name.startswith("qelab."))
    ]


def _wrap_class(tracer: Tracer, cls, layer: str) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(tracer.wrap(raw.__func__, name)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(raw, name))


def install(tracer: Tracer) -> None:
    """Wrap qelab's layers and numpy.linalg kernels; imports qelab first."""
    import qelab.cli  # noqa: F401  (loads every layer module and both registries)
    from qelab import checks, suites

    # A module, function or registry missing at some commit is skipped; the
    # metrics that name it then read 0 and are reported as absent.
    replaced: dict[int, object] = {}
    for modname, layer in LAYER_OF_MODULE.items():
        members = vars(sys.modules[modname]) if modname in sys.modules else {}
        for attr, obj in list(members.items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                observe = tracer.note_eig_input if (layer, attr) == ("linalg", "herm_eig") else None
                replaced[id(obj)] = tracer.wrap(obj, f"{layer}.{attr}", observe=observe)
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, tuple)):
                _wrap_class(tracer, obj, layer)
    for module in _qelab_modules():
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])

    for name, suite in list(getattr(suites, "SUITES", {}).items()):
        suites.SUITES[name] = dataclasses.replace(
            suite,
            sample=tracer.wrap(suite.sample, f"suites.{name}.sample", starts_trial=True),
            run=tracer.wrap(suite.run, f"suites.{name}.run"),
        )
    for kind, (sample, evaluate) in list(getattr(checks, "EXPLORE_KINDS", {}).items()):
        checks.EXPLORE_KINDS[kind] = (
            tracer.wrap(sample, f"checks.{sample.__name__}", starts_trial=True),
            tracer.wrap(evaluate, f"checks.{evaluate.__name__}"),
        )

    for kernel in KERNELS:
        setattr(np.linalg, kernel, tracer.wrap(getattr(np.linalg, kernel), f"kernel.{kernel}"))
