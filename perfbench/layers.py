"""Per-layer attribution of traced requests.

Each traced request is one root span named ``request`` that the
benchmark opens around the whole client-side call.  Under it sit the
benchmark's own spans (``sql.parse``, ``sql.translate``,
``bench.check``, ``service.call``) and, on the session path, the
program's existing spans (``session.run``, ``pipeline.*``,
``optimize.*``, ``execute``, ``vector.*`` ...).  A span's self time is
its duration minus its children's; each span name maps to one layer
metric, so a request's layer times add up to its latency exactly.
Self time of the ``request`` span itself, and of any span name not in
the table, is ``trace.unattributed``.
"""

from __future__ import annotations

import statistics

from repro.runtime.tracing import Span

#: span name -> layer metric (without the ``_ms`` suffix)
LAYER_OF = {
    "sql.parse": "sql.parse",
    "sql.translate": "sql.translate",
    "bench.check": "bench.check",
    "pipeline.normalize": "core.normalize",
    "pipeline.enumerate": "core.enumerate",
    "optimize.cost": "optimizer.cost",
    "optimize.enumerate": "optimizer.search",
    "optimize.dp": "optimizer.search",
    "optimize.goo": "optimizer.search",
    "optimize.partition": "optimizer.search",
    "optimize.greedy": "optimizer.search",
    "optimize.left_deep": "optimizer.search",
    "plan.order": "optimizer.order",
    "session.run": "session.self",
    "plan.full": "session.self",
    "plan.partitioned_dp": "session.self",
    "plan.goo": "session.self",
    "plan.greedy": "session.self",
    "execute": "exec.engine_self",
    "vector.join": "exec.join",
    "merge.join": "exec.join",
    "vector.semijoin": "exec.join",
    "vector.groupby": "exec.groupby",
    "groupby.stream": "exec.groupby",
    "vector.select": "exec.select",
    "vector.genselect": "exec.select",
    "vector.rename": "exec.rename",
    "vector.scan": "exec.scan",
    "vector.project": "exec.other",
    "vector.adjust": "exec.other",
    "vector.union": "exec.other",
    "vector.sort": "exec.other",
    "sort.enforce": "exec.other",
}

#: layers a request's latency is split into (they sum to the latency)
ADDITIVE = (
    "sql.parse",
    "sql.translate",
    "core.normalize",
    "core.enumerate",
    "optimizer.search",
    "optimizer.cost",
    "optimizer.order",
    "session.self",
    "exec.engine_self",
    "exec.join",
    "exec.groupby",
    "exec.select",
    "exec.rename",
    "exec.scan",
    "exec.other",
    "service.queue",
    "service.busy",
    "procpool.transport",
    "bench.check",
    "trace.unattributed",
)


def split_request(root: Span, unknown: set[str]) -> dict[str, float]:
    """One request's latency split into additive layers, in ms.

    Also returns, under ``exec.execute``, the inclusive time of the
    ``execute`` subtree, under ``exec.rows_out`` the operators' summed
    ``rows_out`` counters, and under ``service.call`` the time spent
    waiting on the service, which the caller splits from the
    ``ServiceResult``.  Span names not in :data:`LAYER_OF` are added
    to ``unknown`` and counted as unattributed.
    """
    out = dict.fromkeys(ADDITIVE, 0.0)
    out.update({"exec.execute": 0.0, "exec.rows_out": 0.0, "service.call": 0.0})
    for sp in root.iter():
        self_ms = (sp.dur_ms or 0.0) - sum(c.dur_ms or 0.0 for c in sp.children)
        if sp is root:
            layer = "trace.unattributed"
        elif sp.name == "service.call":
            out["service.call"] += sp.dur_ms or 0.0
            continue
        else:
            layer = LAYER_OF.get(sp.name)
            if layer is None:
                unknown.add(sp.name)
                layer = "trace.unattributed"
        out[layer] += self_ms
        if sp.name == "execute":
            out["exec.execute"] += sp.dur_ms or 0.0
        out["exec.rows_out"] += sp.counters.get("rows_out", 0)
    return out


def summarize(splits: list[dict[str, float]]) -> dict:
    """Per layer: p50 over requests (``_ms``) and share of summed latency."""
    total = sum(s[layer] for s in splits for layer in ADDITIVE) or 1.0
    metrics: dict[str, tuple[float, str]] = {}
    for layer in ADDITIVE:
        values = [s[layer] for s in splits]
        metrics[f"{layer}_ms"] = (statistics.median(values), "ms")
        metrics[f"{layer}_share"] = (sum(values) / total, "ratio")
    metrics["exec.execute_ms"] = (
        statistics.median(s["exec.execute"] for s in splits),
        "ms",
    )
    metrics["exec.rows_out"] = (
        statistics.median(s["exec.rows_out"] for s in splits),
        "rows",
    )
    return metrics
