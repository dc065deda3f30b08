"""Per-layer metrics from the spans that ``tracer.Tracer.save`` writes.

A span's self time is its duration minus the part of it covered by its
direct child spans; a layer's self time is the sum over its spans.  A
metric is named ``<layer>.<group>.<stat>``: the group is one traced function
(``linalg.herm_eig``) or one of SPAN_GROUPS, the stat ``calls`` or
``self_s``.  ``<layer>.self_s`` is the whole layer's self time.
"""

from __future__ import annotations

import numpy as np

SPAN_GROUPS = {
    "channels.kraus_apply": ("channels.KrausChannel.apply",),
    "channels.kraus_init": ("channels.KrausChannel.__init__",),
    "channels.petz": ("channels.PetzMap.__init__", "channels.PetzMap.apply"),
    "states.marginal": ("states.MultipartiteState.marginal",),
    "checks.explore": ("checks.explore_conjecture",),
}
LAYERS = ("cli", "suites", "checks", "entropy", "channels", "states", "linalg",
          "results", "kernel")


def self_times(start, end, parent) -> np.ndarray:
    """Self time of every span, in the units of ``start``/``end``.

    Child intervals are clipped to their parent and merged, so overlapping
    children are not subtracted twice.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start), dtype=np.int64)
    children = np.nonzero(parent >= 0)[0]
    children = children[np.lexsort((start[children], parent[children]))]
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0
    for c in children.tolist():
        p = parents[c]
        if p != current:
            current, reach = p, starts[p]
        lo = max(starts[c], reach)
        hi = min(ends[c], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the base is 0; the base is reported beside it."""
    return num / den if den else 0.0


class SpanTable:
    """Aggregates of one span file by span name."""

    def __init__(self, spans):
        self.names = [str(n) for n in spans["names"]]
        nid = np.asarray(spans["name_id"], dtype=np.int64)
        start, end = spans["start"], spans["end"]
        size = len(self.names)
        self.calls = np.bincount(nid, minlength=size)
        self.self_s = np.bincount(nid, weights=self_times(start, end, spans["parent"]),
                                  minlength=size) / 1e9
        self.incl_s = np.bincount(nid, weights=end - start, minlength=size) / 1e9
        self.index = {name: i for i, name in enumerate(self.names)}

    def total(self, stat: str, names) -> float:
        values = getattr(self, stat)
        return float(sum(values[self.index[n]] for n in names if n in self.index))

    def layer_self_s(self, layer: str) -> float:
        return float(sum(s for n, s in zip(self.names, self.self_s)
                         if n.split(".", 1)[0] == layer))


def suite_names(table: SpanTable) -> list[str]:
    return sorted({n.split(".")[1] for n in table.names
                   if n.startswith("suites.") and n.endswith(".run")})


def layer_metrics(table: SpanTable, wanted, extra: dict) -> tuple[dict, list]:
    """Values of the ``wanted`` metric names, and the names found absent.

    ``extra`` supplies values the span file cannot hold: herm_eig repeats,
    changed records and the tracing overhead.  A metric whose spans were
    never installed (the function does not exist at this commit) reads 0
    and is listed as absent.
    """
    values, absent = {}, []
    for metric in wanted:
        if metric in extra:
            values[metric] = float(extra[metric])
            continue
        prefix, _, stat = metric.rpartition(".")
        if metric == "kernel.svd_per_eigh":
            value = _ratio(table.total("calls", ["kernel.svd"]), table.total("calls", ["kernel.eigh"]))
            spans = ["kernel.svd", "kernel.eigh"]
        elif metric == "suites.sample_s":
            spans = [f"suites.{s}.sample" for s in suite_names(table)]
            value = table.total("incl_s", spans)
        elif stat == "ms_per_trial":
            suite = prefix.split(".", 1)[1]
            spans = [f"suites.{suite}.sample", f"suites.{suite}.run"]
            value = 1e3 * _ratio(table.total("incl_s", spans), table.total("calls", spans[1:]))
        elif prefix in LAYERS and stat == "self_s":
            spans = []
            value = table.layer_self_s(prefix)
        elif stat in ("calls", "self_s"):
            spans = list(SPAN_GROUPS.get(prefix, (prefix,)))
            value = table.total(stat, spans)
        else:
            spans, value = [metric], 0.0
        if any(s not in table.index for s in spans):
            absent.append(metric)
        values[metric] = value
    return values, absent
