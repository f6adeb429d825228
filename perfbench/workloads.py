"""The three workloads: set-up, the closed measuring loop, the checks.

A request is one SQL statement, timed from the moment the client holds
the text until it holds the checked answer: ``parse_statements``, then
``translate``, then ``QuerySession.run`` or
``QueryService.submit(...).result()``, then a bag comparison with the
sqlite oracle.  The oracle runs once per run, before set-up and
outside every timed window.

``tpch_warm``
    The five TPC-H-lite queries, round-robin, through
    ``QuerySession(executor="vector")`` at 3000 customers and 100
    suppliers; closed loop, 1 client, after one warm-up pass.
    Execution-heavy and plan-cache-hot (see :mod:`perfbench.inputs`
    for the two plan-cache defects this keeps visible).
``reorder_cold``
    Distinct 4-relation statements from the paper's hard class (outer
    joins, complex ON predicates, predicates on a ``count(*)`` column)
    through the same session; closed loop, 1 client.  No text repeats,
    so every request plans cold and the 256-entry plan cache evicts
    once the run passes 256 requests.  5-relation statements are left
    out (see ``perfbench.inputs.RELATIONS``).
``service_proc``
    TPC-H-lite at 1000 customers through
    ``QueryService(isolation="process", workers=2, engine="vector")``
    with shared-memory pages auto-detected; closed loop, 2 clients.
    Set-up ends when each client holds its first answer, so it covers
    both worker spawns and the page build.  Spans stop at the pipe, so
    the service layers come from ``ServiceResult``: ``service.queue``
    is ``queue_ms``; ``service.busy`` is ``service_ms``, which the
    supervisor times from dispatch until the child's result is back and
    unpickled, so it includes the pipe exchange; ``procpool.transport``
    is what is left of the client's wait, the submit and the future's
    wake-up on the client side.

Set-up (``setup_s``) runs from the start of database generation until
the first answer is held and checked, and is repeated from scratch
several times a run; each repetition is torn down before the next is
built.  ``reorder_cold`` answers the fixed statement ``r0`` there (see
:data:`perfbench.inputs.FIRST_SEED`), the TPC-H-lite workloads their
first query names, so set-up does the same work on every seed.

Every time is scaled to a fixed host speed by the probe of
:mod:`perfbench.hostspeed`, run in each client thread after each of
its requests and around each set-up repetition; the unscaled figures
are printed beside the result.

With tracing on, odd-numbered requests of each client run under a
``Tracer`` and even ones do not, so the two halves see the same
conditions and their p50 difference is the tracing overhead.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.optimizer.stats import Statistics
from repro.runtime import QuerySession, QueryService
from repro.runtime.session import DegradationLevel
from repro.runtime.tracing import Tracer, span, trace_scope
from repro.sql import parse_statements, translate

from perfbench.hostspeed import burst, probe_ms, scale, scales
from perfbench.inputs import Requests, reorder_requests, tpch_requests
from perfbench.layers import split_request, summarize
from perfbench.oracle import answer_bag, expected_bags

#: distinct reorder statements generated per second of measuring; a
#: run consumes about 15 a second, so the pool does not run dry
REORDER_POOL_PER_SECOND = 40

#: set-up repetitions per run; ``setup_s`` is their median
SESSION_SETUPS = 21
SERVICE_SETUPS = 7


@dataclass
class Sample:
    """One request's outcome as the client saw it."""

    name: str
    latency_ms: float
    ok: bool
    error: str | None = None
    traced: bool = False
    split: dict | None = None
    # what the program reported about the request (results themselves
    # are dropped: holding them would grow the heap all run long)
    hit: bool = False
    plans: int = 0
    full_rung: bool = False
    cache_entries: int = 0
    cache_evictions: int = 0
    queue_ms: float | None = None  # service path only
    service_ms: float | None = None
    scale: float = 1.0  # host-speed factor (perfbench.hostspeed)

    @property
    def scaled_ms(self) -> float:
        return self.latency_ms * self.scale


@dataclass
class Setup:
    """One set-up repetition, timed piece by piece (seconds)."""

    total_s: float
    gen_s: float
    stats_s: float
    start_s: float
    ready_s: float
    scale: float = 1.0  # host-speed factor (perfbench.hostspeed)


@dataclass
class Run:
    """Everything a workload run measured."""

    samples: list[Sample]
    window_s: float
    setups: list[Setup]
    stamp: dict
    setup_wrong: int
    hygiene: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    unknown: set[str] = field(default_factory=set)  # spans with no layer
    distinct: bool = False  # every request sent a different text
    clients: int = 1
    probes: list[float] = field(default_factory=list)  # host probes, ms


class Client:
    """Turns SQL text into a checked answer, one request at a time."""

    def __init__(self, catalog, want, call, tracer: Tracer | None) -> None:
        self.catalog = catalog
        self.want = want
        self.call = call  # translation -> SessionResult | ServiceResult
        self.tracer = tracer
        self.unknown: set[str] = set()  # span names with no layer

    def request(self, name: str, text: str, traced: bool) -> Sample:
        t0 = time.perf_counter()
        try:
            with trace_scope(self.tracer if traced else None):
                with span("request") as root:
                    with span("sql.parse"):
                        (statement,) = parse_statements(text)
                    with span("sql.translate"):
                        translation = translate(statement, self.catalog)
                    result = self.call(translation)
                    with span("bench.check"):
                        bag = answer_bag(result.relation, translation.columns)
                        ok = bag == self.want[name]
        except Exception as exc:  # a failed request is counted, not fatal
            latency = (time.perf_counter() - t0) * 1000.0
            return Sample(name, latency, False, f"{type(exc).__name__}: {exc}")
        latency = (time.perf_counter() - t0) * 1000.0
        session = getattr(result, "session", result)
        sample = Sample(
            name, latency, ok, None if ok else "wrong answer", traced,
            hit=bool(session.plan_cache.get("hit")),
            plans=session.plans_considered,
            full_rung=session.degradation_level is DegradationLevel.FULL,
            cache_entries=session.plan_cache.get("entries", 0),
            cache_evictions=session.plan_cache.get("evictions", 0),
            queue_ms=getattr(result, "queue_ms", None),
            service_ms=getattr(result, "service_ms", None),
        )
        if root is not None:
            sample.split = split_request(root, self.unknown)
        return sample


def closed_loop(clients: int, seconds: float, issue):
    """Run ``clients`` closed loops for ``seconds``; ``issue(c, i)`` sends.

    ``issue`` returns a :class:`Sample`, or ``None`` when client ``c``
    has nothing left to send.  Each client probes the host before its
    first request and after every request, and each sample gets its
    host-speed scale from those probes.  Returns the samples, the
    window length, which ends when the last in-flight request
    completes, and the probes.
    """
    samples: list[list[Sample]] = [[] for _ in range(clients)]
    probes: list[list[float]] = [[] for _ in range(clients)]
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def loop(c: int) -> None:
        probes[c].append(probe_ms())
        i = 0
        while time.perf_counter() < deadline:
            sample = issue(c, i)
            if sample is None:
                return
            samples[c].append(sample)
            probes[c].append(probe_ms())
            i += 1

    threads = [threading.Thread(target=loop, args=(c,)) for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = time.perf_counter() - t0
    for per, probed in zip(samples, probes):
        for sample, factor in zip(per, scales(probed, len(per))):
            sample.scale = factor
    return ([s for per in samples for s in per], window,
            [p for probed in probes for p in probed])


def rss_mb() -> float:
    """High-water RSS of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up, shared by every workload ---------------------------------------


def _oracle(inputs: Requests) -> tuple[dict, dict]:
    """The expected bags and the input stamp, from one throwaway build."""
    db, _ = inputs.build()
    return expected_bags(inputs, db), inputs.stamp(db)


def _first_answers(client: Client, texts: dict[str, str]) -> list[Sample]:
    """Send each text from its own thread at once; wait for every answer."""
    samples: list[Sample] = []

    def send(name: str) -> None:
        samples.append(client.request(name, texts[name], traced=False))

    threads = [threading.Thread(target=send, args=(name,)) for name in texts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def _set_up_once(inputs, want, tracer, start, firsts):
    """Build the inputs and the program; stop at the first checked answers.

    Returns the timing, the wrong first answers, the client, the
    server, and the digest of the tables the program was given.  Bursts
    of host probes just before and just after it give its scale.
    """
    probes = burst()
    with trace_scope(tracer):
        t0 = time.perf_counter()
        with span("setup.gen"):
            db, catalog = inputs.build()
        t1 = time.perf_counter()
        with span("setup.stats"):
            stats = Statistics.from_database(db)
        t2 = time.perf_counter()
        with span("setup.start"):
            server, call = start(db, catalog, stats)
        t3 = time.perf_counter()
        client = Client(catalog, want, call, tracer)
        with span("setup.ready"):
            samples = _first_answers(client, {n: inputs.texts[n] for n in firsts})
        t4 = time.perf_counter()
    probes += burst()
    failed = [s.error for s in samples if s.error not in (None, "wrong answer")]
    if failed:
        raise RuntimeError(f"set-up could not answer: {failed}")
    wrong = sum(not s.ok for s in samples)
    setup = Setup(t4 - t0, t1 - t0, t2 - t1, t3 - t2, t4 - t3, scale(probes))
    return setup, wrong, client, server, inputs.tables_digest(db)


def _set_up(inputs: Requests, want, stamp, reps: int, tracer, start, firsts,
            close):
    """Set up ``reps`` times from scratch and keep the last one.

    ``start(db, catalog, stats)`` constructs the program and returns
    ``(server, call)``; the clock stops when every text in ``firsts``
    is answered and checked (one thread each, as the measuring clients
    will send).  ``close(server)`` tears each repetition down before
    the next is built, so no two are alive at once.  Returns the timed
    repetitions, the wrong first answers, the client and the server.
    """
    setups: list[Setup] = []
    wrong = 0
    client = server = None
    for _ in range(reps):
        if server is not None:
            close(server)
            client = server = None
        gc.collect()  # the previous repetition's garbage is not set-up work
        setup, bad, client, server, digest = _set_up_once(
            inputs, want, tracer, start, firsts
        )
        setups.append(setup)
        wrong += bad
        if digest != stamp["tables_sha256"]:
            close(server)
            raise RuntimeError("the same seed generated different tables")
    return setups, wrong, client, server


# -- the session workloads -------------------------------------------------


def _start_session(db, catalog, stats):
    session = QuerySession(db, catalog=catalog, stats=stats, executor="vector")

    def call(translation):
        return session.run(translation.expr, required_order=translation.order_by)

    return session, call


def _session_run(inputs: Requests, seconds: float, trace: bool,
                 warmup: bool, distinct: bool) -> Run:
    want, stamp = _oracle(inputs)
    rss = {"oracle": rss_mb()}
    tracer = Tracer() if trace else None
    names = list(inputs.texts)
    setups, setup_wrong, client, session = _set_up(
        inputs, want, stamp, SESSION_SETUPS, tracer, _start_session, names[:1],
        close=lambda session: None,
    )
    if distinct:
        names = names[1:]  # the first text was answered during set-up
    if warmup:
        for name in names:
            setup_wrong += not client.request(name, inputs.texts[name], False).ok
    rss["setup"] = rss_mb()

    def issue(c: int, i: int) -> Sample | None:
        if distinct and i >= len(names):
            return None  # the distinct-statement pool ran dry
        name = names[i % len(names)]
        return client.request(name, inputs.texts[name], trace and i % 2 == 1)

    before = session.plan_cache.counters()
    gc.collect()
    samples, window, probes = closed_loop(1, seconds, issue)
    rss["run"] = rss_mb()
    return Run(samples, window, setups, stamp, setup_wrong,
               tracer=tracer, unknown=client.unknown, distinct=distinct,
               probes=probes,
               extra={"plan_cache_before": before,
                      "plan_cache_after": session.plan_cache.counters(),
                      "pool_exhausted": distinct and len(samples) >= len(names),
                      "rss_self_mb_after": rss})


def tpch_warm(seed: int, seconds: float, trace: bool) -> Run:
    inputs = tpch_requests(seed, customers=3000)
    return _session_run(inputs, seconds, trace, warmup=True, distinct=False)


def reorder_cold(seed: int, seconds: float, trace: bool) -> Run:
    inputs = reorder_requests(seed, 1 + int(seconds * REORDER_POOL_PER_SECOND))
    return _session_run(inputs, seconds, trace, warmup=False, distinct=True)


# -- the process-pool service ----------------------------------------------


def _leftovers() -> list[str]:
    """Shared-memory pages and child processes a closed service left."""
    left = [f"shm segment {os.path.basename(p)}" for p in
            glob.glob(f"/dev/shm/repro_pg_{os.getpid()}_*")]
    left += [f"live child pid {p.pid}" for p in multiprocessing.active_children()]
    return left


def _start_service(db, catalog, stats):
    service = QueryService(
        db, catalog=catalog, stats=stats,
        isolation="process", workers=2, engine="vector",
    )

    def call(translation):
        with span("service.call"):
            return service.submit(translation.expr, translation.order_by).result()

    return service, call


def service_proc(seed: int, seconds: float, trace: bool) -> Run:
    clients = 2
    inputs = tpch_requests(seed, customers=1000)
    want, stamp = _oracle(inputs)
    rss = {"oracle": rss_mb()}
    tracer = Tracer() if trace else None
    names = list(inputs.texts)
    hygiene: list[str] = []

    def close(service) -> None:
        service.close()
        hygiene.extend(_leftovers())

    # one first request per client, so set-up covers both worker spawns
    setups, setup_wrong, client, service = _set_up(
        inputs, want, stamp, SERVICE_SETUPS, tracer, _start_service,
        names[:clients], close,
    )
    rss["setup"] = rss_mb()

    def issue(c: int, i: int) -> Sample:
        name = names[(i + c * 2) % len(names)]
        return client.request(name, inputs.texts[name], trace and i % 2 == 1)

    try:
        before = service.snapshot()["procpool"]
        gc.collect()
        samples, window, probes = closed_loop(clients, seconds, issue)
        after = service.snapshot()["procpool"]
    finally:
        close(service)
    rss["run"] = rss_mb()
    return Run(samples, window, setups, stamp, setup_wrong, hygiene,
               tracer=tracer, unknown=client.unknown, clients=clients,
               probes=probes,
               extra={"procpool_before": before, "procpool_after": after,
                      "rss_self_mb_after": rss})


WORKLOADS = {
    "tpch_warm": tpch_warm,
    "reorder_cold": reorder_cold,
    "service_proc": service_proc,
}


# -- turning a run into metrics --------------------------------------------


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(run: Run, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, every time scaled to the reference host.

    Throughput is correct answers per second of scaled client busy
    time, so the probes between requests do not count against it.
    """
    done = [s for s in run.samples if s.error is None or s.error == "wrong answer"]
    latencies = [s.scaled_ms for s in done]
    correct = sum(s.ok for s in run.samples)
    busy_s = sum(s.scaled_ms for s in run.samples) / 1000.0 / run.clients
    return {
        "setup_s": (statistics.median(s.total_s * s.scale for s in run.setups),
                    "s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (_p90(latencies), "ms"),
        "throughput_qps": (correct / busy_s, "req/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_frac": (
            sum(not s.ok for s in run.samples) / len(run.samples), "ratio"
        ),
        "wrong_answers": (
            sum(s.error == "wrong answer" for s in run.samples), "count"
        ),
    }


def unscaled(run: Run) -> dict[str, float]:
    """Set-up, latency and throughput as the wall clock read them."""
    latencies = [s.latency_ms for s in run.samples if s.error in (None, "wrong answer")]
    return {
        "setup_s": statistics.median(s.total_s for s in run.setups),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": _p90(latencies),
        "throughput_qps": sum(s.ok for s in run.samples) / run.window_s,
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """The per-layer metrics; times are scaled like :func:`end_to_end`."""
    traced = [s for s in run.samples if s.traced and s.split is not None]
    plain = [s for s in run.samples if not s.traced and s.ok]
    for sample in traced:
        if sample.queue_ms is not None:  # service path: spans stop at the pipe
            split = sample.split
            split["service.queue"] = sample.queue_ms
            split["service.busy"] = sample.service_ms
            split["procpool.transport"] = (
                split["service.call"] - sample.queue_ms - sample.service_ms
            )
    metrics = summarize([
        {k: v if k == "exec.rows_out" else v * s.scale for k, v in s.split.items()}
        for s in traced
    ])
    metrics["trace.overhead_ms"] = (
        statistics.median(s.scaled_ms for s in traced)
        - statistics.median(s.scaled_ms for s in plain),
        "ms",
    )
    done = [s for s in run.samples if s.ok]
    metrics["core.plans"] = (statistics.median(s.plans for s in done), "plans")
    metrics["session.full_rung_frac"] = (
        sum(s.full_rung for s in done) / len(done), "ratio"
    )
    metrics["plan_cache.hit_ratio"] = (sum(s.hit for s in done) / len(done), "ratio")
    metrics["plan_cache.entries"] = (max(s.cache_entries for s in done), "count")
    before = run.extra.get("plan_cache_before", {}).get("evictions", 0)
    metrics["plan_cache.evictions"] = (
        max(s.cache_evictions for s in done) - before, "count"
    )
    pool_before = run.extra.get("procpool_before") or {}
    pool_after = run.extra.get("procpool_after") or {}
    for key in ("restarts", "retries"):
        metrics[f"procpool.{key}"] = (
            pool_after.get(key, 0) - pool_before.get(key, 0), "count"
        )
    for key, attr in (("stats", "stats_s"), ("start", "start_s"),
                      ("ready", "ready_s")):
        metrics[f"setup.{key}_ms"] = (
            statistics.median(getattr(s, attr) * s.scale for s in run.setups)
            * 1000.0, "ms"
        )
    # page.build spans carry no repetition, so the median set-up scale
    builds = [sp.dur_ms for sp in run.tracer.iter_spans() if sp.name == "page.build"]
    metrics["pages.build_ms"] = (
        statistics.median(builds) * statistics.median(s.scale for s in run.setups)
        if builds else 0.0,
        "ms",
    )
    return metrics
