"""SQL-text-to-answer benchmark with per-layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tpch_warm --seed 1 --seconds 20 --trace 0

Workloads: ``tpch_warm``, ``reorder_cold``, ``service_proc`` (see
:mod:`perfbench.workloads`).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, and the run's spans are
written to ``perfbench/out/<workload>-seed<seed>.trace.json`` in
Chrome trace format.  The lines before it report every metric by name
and unit, plus the inputs and environment the run measured.

Every time in the result is scaled to a fixed host speed by the probe
of :mod:`perfbench.hostspeed`, so that load from other tenants of a
shared host does not read as a slower program; the wall-clock figures
are printed under ``unscaled`` in the line before the result.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 before measuring anything.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end metrics that go in the result object; ``failed_frac`` and
#: ``wrong_answers`` are 0 on a clean run, so they are reported in the
#: text lines and carried by the object's ``failed`` and ``correct``
GATED = ("setup_s", "latency_p50_ms", "latency_p90_ms", "throughput_qps",
         "peak_rss_mb")


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def stop_resource_tracker() -> None:
    """Stop and reap the helper process shared memory starts, if any."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.hostspeed import REFERENCE_MS

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from "
                     f"{sorted(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, trace)
    stop_resource_tracker()

    e2e = workloads.end_to_end(run, peak_rss_mb())
    wrong = int(e2e["wrong_answers"][0]) + run.setup_wrong
    failed = sum(not s.ok for s in run.samples) + len(run.hygiene)
    errors = sorted({s.error for s in run.samples if s.error})
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        # probe times during the run and the one every figure refers to
        "host_probe_ms": {
            "reference": REFERENCE_MS,
            "quartiles": [round(q, 4) for q in
                          statistics.quantiles(run.probes, n=4)],
        },
        "unscaled": {k: round(v, 4) for k, v in workloads.unscaled(run).items()},
        "inputs": run.stamp,
        "requests": len(run.samples),
        "window_s": round(run.window_s, 3),
        "beyond_p90": sum(
            s.scaled_ms > e2e["latency_p90_ms"][0] for s in run.samples
        ),
        "setups_s": [  # total, gen, stats, start, ready unscaled; scale
            [round(v, 4) for v in (s.total_s, s.gen_s, s.stats_s, s.start_s,
                                   s.ready_s, s.scale)]
            for s in run.setups
        ],
        "setup_wrong": run.setup_wrong,
        "rss_peak_phase": rss_peak_phase(run.extra["rss_self_mb_after"]),
        "leftovers": run.hygiene,
        "errors": errors[:5],
        **run.extra,
    }
    if trace:
        metrics = workloads.per_layer(run)
        info["per_query_hits"] = per_query_hits(run)
        info["unmapped_spans"] = sorted(run.unknown)
        if args.workload == "service_proc":
            info["note"] = (
                "spans stop at the process pipe; service.* and procpool.* "
                "come from ServiceResult fields: service.busy includes the "
                "pipe exchange and result unpickling, procpool.transport "
                "is only the client-side submit and future hand-off")
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}.trace.json"
        path.write_text(json.dumps(run.tracer.to_chrome_trace()))
        info["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>13}  {name:<28} {value:14.4f} {unit}")
    print(json.dumps(info, sort_keys=True, default=str))
    shown = metrics if trace else {k: e2e[k] for k in GATED}
    print(json.dumps({
        "correct": wrong == 0 and not run.hygiene,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


def rss_peak_phase(after: dict[str, float]) -> str:
    """The first phase whose end already shows this process's peak RSS."""
    peak = max(after.values())
    return next(phase for phase, mb in after.items() if mb == peak)


def per_query_hits(run) -> dict:
    """Plan-cache hits and requests per request name."""
    out: dict[str, list[int]] = {}
    for sample in run.samples:
        if sample.ok:
            tally = out.setdefault(sample.name, [0, 0])
            tally[0] += sample.hit
            tally[1] += 1
    if run.distinct:  # one total, not one line per statement
        hits = sum(h for h, _ in out.values())
        return {"all": [hits, sum(n for _, n in out.values())]}
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
