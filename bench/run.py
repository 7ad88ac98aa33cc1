#!/usr/bin/env python3
"""The standing benchmark of the live plane: one command, every metric.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1|both]] [--repeat K] [--smoke]

Starts the system under test (one LiveDispatcher + N LiveExecutors,
wire v4, pipeline depth 32) in a child process (``bench/sut.py``), drives
it over loopback TCP from a single-threaded LiveClient (bundle 500) in
this process, checks every output, prints every metric by name with its
unit, and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` (default) measures the end-to-end metrics
with nothing extra switched on; ``--trace 1`` repeats the workload with
the benchmark's own spans, per-thread CPU sampling and the isolated
layer timings, and reports the per-layer metrics; a bare ``--trace``
does both.  See ``bench/README.md`` for what each name means.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Iterator, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # A directory holding only the benchmark has nothing to measure.
    sys.exit(f"bench: no system under test at {SRC}/repro")
sys.path.insert(0, SRC)

from repro.live.client import LiveClient
from repro.live.journal import TAIL_NAME, recover
from repro.scenarios.oracles import (
    OracleReport,
    check_conservation,
    check_journal_consistency,
    check_no_stuck,
)

import layers
from stats import halves_ratio, median, percentile
from sut import STAGES, SutProcess
from workloads import (
    BUNDLE_SIZE,
    DRAIN_DEADLINE_S,
    DURABLE_CONFIG,
    PACED_RATE_PER_S,
    PIPELINE_DEPTH,
    SCRAPE_PERIOD_S,
    TICK_S,
    WARMUP_TASKS,
    WAVE_SIZE,
    WORKLOADS,
    Inputs,
    Workload,
)

OUT_DIR = os.path.join(HERE, "out")

#: Set-ups timed and thrown away before and after the one that serves
#: the workload; ``setup_s`` is the median of all five.  Splitting them
#: around the window puts ~20 s between the two groups, so one of this
#: host's seconds-long slow spells cannot sit on every sample.
SPARE_SETUPS_BEFORE = 2
SPARE_SETUPS_AFTER = 2
#: Equal-time bins the settle stream of a wave-less workload is cut into
#: for ``sustain_ratio`` (waves are their own units).
SUSTAIN_BINS = 12
#: Dispatcher span chains read back per traced run (seeded sample).
CHAIN_SAMPLE = 2_000
#: The bounded SpanCollector keeps the newest 100 000 traces; sample
#: chains only from ids young enough to still be there.
CHAIN_SAMPLE_WINDOW = 50_000
#: An open-loop run whose generator ran later than this many ticks at
#: p99 did not offer the load it claims; it is reported but not compared.
LAG_LIMIT_TICKS = 5
#: Nor is a run during which the hypervisor withheld more than this many
#: CPU-seconds per second of window from the guest (``steal`` in
#: /proc/stat).  On this class of VM quiet spells read 0.00-0.06 and the
#: spells that cost ``burst_sleep0`` a fifth of its rate 0.18-0.28.
STEAL_LIMIT = 0.10

#: Every end-to-end metric (``--trace 0``), with its unit.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "tasks_per_s": "tasks/s",
    "sustain_ratio": "ratio",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric (``--trace 1``), with its unit.
PER_LAYER: dict[str, str] = {
    "net.wire.encode_submit500_us_per_task": "us",
    "net.wire.decode_submit500_us_per_task": "us",
    "net.wire.encode_work32_us_per_task": "us",
    "net.wire.decode_result32_us_per_task": "us",
    "net.wire.encode_small_us": "us",
    "net.wire.submit_bytes_per_task": "bytes",
    "live.protocol.task_codec_us_per_task": "us",
    "live.protocol.result_codec_us_per_task": "us",
    "live.ioloop.echo_frames_per_s": "frames/s",
    "live.ioloop.max_lag_ms": "ms",
    "live.dispatcher.loop_cpu_us_per_task": "us",
    "live.dispatcher.monitor_cpu_us_per_task": "us",
    "live.dispatcher.lock_wait_ms_max": "ms",
    "live.dispatcher.retries": "count",
    "live.dispatcher.stale_results": "count",
    "live.dispatcher.submit_rejects": "count",
    **{f"live.dispatcher.stage_{stage}_ms_{q}": "ms"
       for stage, _a, _b in STAGES for q in ("p50", "p99")},
    "live.dispatcher.dispatch_latency_ms_p50": "ms",
    "live.dispatcher.dispatch_latency_ms_p99": "ms",
    "live.executor.cpu_us_per_task": "us",
    "live.executor.balance_min_over_max": "ratio",
    "live.executor.efficiency": "ratio",
    "live.client.submit_call_ms_p50": "ms",
    "live.client.submit_call_ms_p99": "ms",
    "live.client.cpu_us_per_task": "us",
    "live.client.wait_settle_ms_per_wave": "ms",
    "live.journal.append_commit_us_per_record": "us",
    "live.journal.commit_ms_p50": "ms",
    "live.journal.compact_s_per_20k": "s",
    "live.journal.recover_us_per_record": "us",
    "live.journal.bytes_per_task": "bytes",
    "live.journal.flusher_cpu_us_per_task": "us",
    "live.journal.compactions": "count",
    "live.journal.last_flush_ms": "ms",
    "obs.trace.record_us_per_span": "us",
    "obs.flight.record_us_per_event": "us",
    "obs.registry.observe_us": "us",
    "obs.httpd.scrape_ms_p50": "ms",
    "obs.httpd.cpu_us_per_task": "us",
    "obs.trace.chain_complete_fraction": "ratio",
    "ledger.attributed_us_per_task": "us",
    "ledger.unattributed_us_per_task": "us",
    "loadgen.latency_p99_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.lag_max_ms": "ms",
    "loadgen.offered_per_s": "tasks/s",
    "sut.cpu_us_per_task": "us",
    "sut.busy_fraction": "ratio",
    "trace.tasks_per_s": "tasks/s",
    "trace.overhead_fraction": "ratio",
}


# ---------------------------------------------------------------------------
# the benchmark's own spans
# ---------------------------------------------------------------------------
class Tracer:
    """``(id, name, start, end, parent)`` rows around calls into a layer.

    Kept in memory, written out once at the end.  A disabled tracer
    costs one attribute test per span, so traced and untraced runs share
    every line of the driving code.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rows: list[tuple] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[Optional[int]]:
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        started = time.monotonic()
        try:
            yield span_id
        finally:
            self.rows.append((span_id, name, started, time.monotonic(), parent))

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) * 1e3
                for _id, row_name, start, end, _parent in self.rows
                if row_name == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in sorted(self.rows):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


OFF = Tracer(enabled=False)


class Scraper(threading.Thread):
    """The one extra thread: ``/status`` + ``/metrics`` at 1 Hz.

    Part of the durable workloads in both modes — an operator's
    dashboard polling a dispatcher under load.  It also keeps the worst
    value seen of the two watchdog gauges that reset between sweeps.
    """

    GAUGES = {
        "ioloop_lag_s": re.compile(
            r"^falkon_dispatcher_ioloop_lag_seconds (\S+)$", re.M),
        "lock_wait_s": re.compile(
            r"^falkon_dispatcher_lock_wait_seconds (\S+)$", re.M),
    }

    def __init__(self, port: int, tracer: Tracer, parent: Optional[int]) -> None:
        super().__init__(name="bench-scraper", daemon=True)
        self._base = f"http://127.0.0.1:{port}"
        self._tracer = tracer
        self._parent = parent
        self._halt = threading.Event()
        self.scrapes = 0
        self.errors: list[str] = []
        self.worst = {name: 0.0 for name in self.GAUGES}

    def run(self) -> None:
        while not self._halt.wait(SCRAPE_PERIOD_S):
            for path in ("/status", "/metrics"):
                try:
                    with self._tracer.span("obs.httpd.scrape", self._parent):
                        with urllib.request.urlopen(self._base + path, timeout=10.0) as rsp:
                            body = rsp.read().decode("utf-8", "replace")
                except OSError as exc:
                    self.errors.append(f"scrape {path}: {exc}")
                    continue
                self.scrapes += 1
                if path == "/metrics":
                    for name, pattern in self.GAUGES.items():
                        found = pattern.search(body)
                        if found:
                            self.worst[name] = max(self.worst[name], float(found[1]))

    def halt(self) -> None:
        self._halt.set()
        self.join(timeout=15.0)


# ---------------------------------------------------------------------------
# driving one workload
# ---------------------------------------------------------------------------
class Driver:
    """Submits batches, stamps their settles and checks their outputs."""

    def __init__(self, client: LiveClient, inputs: Inputs, workload: Workload,
                 corrupt: bool = False) -> None:
        self.client = client
        self.inputs = inputs
        self.workload = workload
        self.attempted = 0
        self.settled_ok = 0
        self.stuck: list[str] = []
        self.problems: list[str] = []
        #: Due time → settled, one entry per settled task.
        self.latencies_ms: list[float] = []
        #: Monotonic settle instants, one per settled task.
        self.settle_times: list[float] = []
        self._corrupt = corrupt  # test hook: falsify one observed result

    def submit(self, n: int, tracer: Tracer, parent: Optional[int]):
        """One ``LiveClient.submit`` of the next *n* specs."""
        specs = self.inputs.specs(n, self.workload.task_seconds)
        stamps: list[float] = []
        self.attempted += n
        with tracer.span("live.client.submit", parent):
            futures = self.client.submit(specs)

        def stamp(_future, add=stamps.append, now=time.monotonic) -> None:
            add(now())

        for future in futures:
            future.add_done_callback(stamp)
        return specs, futures, stamps

    def reap(self, batch, due: float, deadline: float) -> list[float]:
        """Wait for *batch* to settle and check each output; returns the
        batch's latencies, in ms from *due*."""
        specs, futures, stamps = batch
        for spec, future in zip(specs, futures):
            try:
                result = future.result(max(0.0, deadline - time.monotonic()))
            except TimeoutError:
                self.stuck.append(spec.task_id)
                continue
            except Exception as exc:
                self.problems.append(f"{spec.task_id}: {type(exc).__name__}: {exc}")
                continue
            if self._corrupt:
                result = dataclasses.replace(result, task_id="corrupted-by-test-hook")
                self._corrupt = False
            if result.task_id != spec.task_id:
                self.problems.append(
                    f"{spec.task_id}: settled with the result of {result.task_id!r}")
            elif not result.ok:
                self.problems.append(
                    f"{spec.task_id}: rc={result.return_code} {result.error}")
            else:
                self.settled_ok += 1
        # A future reads done a moment before the client's I/O thread has
        # run its callbacks; give the last few that moment.
        settled = sum(1 for f in futures if f.done())
        patience = time.monotonic() + 1.0
        while len(stamps) < settled and time.monotonic() < patience:
            time.sleep(0.0005)
        if len(stamps) != settled:
            self.problems.append(
                f"{settled} futures settled but {len(stamps)} settle callbacks fired")
        latencies = [(t - due) * 1e3 for t in stamps]
        self.latencies_ms.extend(latencies)
        self.settle_times.extend(stamps)
        return latencies


@dataclasses.dataclass
class Window:
    """What one timed window measured, before any metric is derived."""

    started: float
    ended: float
    #: Wall seconds the throughput is taken over (Σ wave times for a
    #: wave workload — the gaps between waves are the generator's).
    rate_wall: float
    #: ``(tasks, seconds)`` of every wave (or time bin), in order.
    units: list[tuple[float, float]]
    #: Rates of traced / untraced waves (wave workloads, traced runs).
    traced_rates: list[float] = dataclasses.field(default_factory=list)
    untraced_rates: list[float] = dataclasses.field(default_factory=list)
    lags_ms: list[float] = dataclasses.field(default_factory=list)
    offered_per_s: float = 0.0
    #: Open loop: the latencies in ms of each second of the schedule.
    latency_by_second: list[list[float]] = dataclasses.field(default_factory=list)


def _time_bins(times: list[float], started: float, ended: float):
    """Settles per equal-time bin, as ``(tasks, seconds)`` units."""
    width = (ended - started) / SUSTAIN_BINS
    if width <= 0:
        return []
    counts = [0] * SUSTAIN_BINS
    for t in times:
        counts[min(int((t - started) / width), SUSTAIN_BINS - 1)] += 1
    return [(count, width) for count in counts]


def drive_waves(driver: Driver, seconds: float, tracer: Tracer,
                root: Optional[int], wave_size: int) -> Window:
    """Closed loop: submit a wave, wait for all of it, repeat.

    One wave per second of window asked for — about *seconds* of
    measuring at the ~5 k tasks/s this class of host sustains, and the
    same work on every commit, so memory and wave decay compare.

    On a traced run half the waves run with the spans off, interleaved
    on-off-off-on so that neither a drift nor an every-other-wave rhythm
    (the SUT's full garbage collections have one) favours a side: the
    two halves see the same SUT state, and their rate ratio is a paired
    estimate of what tracing costs.
    """
    units: list[tuple[float, float]] = []
    by_mode: dict[bool, list[float]] = {True: [], False: []}
    started = time.monotonic()
    for index in range(max(2, round(seconds))):
        traced = tracer.enabled and index % 4 in (0, 3)
        wave_tracer = tracer if traced else OFF
        with wave_tracer.span("wave", root) as wave:
            t0 = time.monotonic()
            batch = driver.submit(wave_size, wave_tracer, wave)
            with wave_tracer.span("live.client.wait_settle", wave):
                driver.reap(batch, due=t0, deadline=t0 + DRAIN_DEADLINE_S)
            elapsed = time.monotonic() - t0
        units.append((wave_size, elapsed))
        by_mode[traced].append(wave_size / elapsed)
        driver.client.release_settled()
        if driver.stuck:
            break  # a stuck wave means every later one would hang too
    return Window(started, time.monotonic(), sum(s for _n, s in units), units,
                  traced_rates=by_mode[True], untraced_rates=by_mode[False])


def drive_single(driver: Driver, seconds: float, tracer: Tracer,
                 root: Optional[int]) -> Window:
    """Closed loop: one submit sized so its ideal makespan is *seconds*."""
    workload = driver.workload
    n = max(1, round(seconds * workload.executors / workload.task_seconds))
    started = time.monotonic()
    batch = driver.submit(n, tracer, root)
    with tracer.span("live.client.wait_settle", root):
        driver.reap(batch, due=started,
                    deadline=started + 3 * seconds + DRAIN_DEADLINE_S)
    ended = max(driver.settle_times, default=time.monotonic())
    return Window(started, ended, ended - started,
                  _time_bins(driver.settle_times, started, ended))


def drive_paced(driver: Driver, seconds: float, tracer: Tracer,
                root: Optional[int]) -> Window:
    """Open loop: every 10 ms tick submits whatever the schedule says is
    due, whether or not earlier work has settled; latency runs from the
    tick's due time, so a late generator or a slow submit is charged to
    the tasks behind it.  Latencies are kept second by second of the
    schedule (see :func:`quiet_latency`)."""
    ticks = driver.inputs.poisson_ticks(PACED_RATE_PER_S, seconds)
    ticks_per_second = round(1 / TICK_S)
    batches = []
    lags_ms = []
    started = time.monotonic() + TICK_S
    for index, due_count in enumerate(ticks):
        due = started + index * TICK_S
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        lags_ms.append((time.monotonic() - due) * 1e3)
        if due_count:
            batches.append((driver.submit(due_count, tracer, root), due,
                            index // ticks_per_second))
    deadline = time.monotonic() + DRAIN_DEADLINE_S
    by_second: dict[int, list[float]] = {}
    with tracer.span("live.client.wait_settle", root):
        for batch, due, second in batches:
            by_second.setdefault(second, []).extend(
                driver.reap(batch, due=due, deadline=deadline))
    ended = max(driver.settle_times, default=time.monotonic())
    return Window(started, ended, ended - started,
                  _time_bins(driver.settle_times, started, ended),
                  lags_ms=lags_ms, offered_per_s=sum(ticks) / (len(ticks) * TICK_S),
                  latency_by_second=list(by_second.values()))


# ---------------------------------------------------------------------------
# one run: set up, warm up, measure, check, derive
# ---------------------------------------------------------------------------
def _filesystem_type(path: str) -> str:
    """Filesystem the journal's fsyncs land on (longest mount prefix)."""
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fs_type = mount, kind
    except OSError:
        pass
    return fs_type


def _stolen_cpu_seconds() -> float:
    """CPU time the hypervisor has withheld from this guest since boot."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0  # no steal accounting here: nothing to flag


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10.0, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository


def stamp() -> dict:
    """Where a record was measured; attached to every one."""
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "journal_fs": _filesystem_type(os.path.realpath(OUT_DIR)),
        "transport": "loopback TCP",
    }


def _set_up(workload: Workload, scratch: str, label: str):
    """Spawn the SUT, wait for its executors, connect the client."""
    config = {"executors": workload.executors, "pipeline_depth": PIPELINE_DEPTH}
    journal_dir = None
    if workload.durable:
        journal_dir = os.path.join(scratch, f"journal-{label}")
        config.update(DURABLE_CONFIG, journal_dir=journal_dir, http=True)
    started = time.perf_counter()
    sut = SutProcess(**config)
    try:
        client = LiveClient.connect(*sut.address, bundle_size=BUNDLE_SIZE)
    except BaseException:
        sut.kill()
        raise
    return sut, client, journal_dir, time.perf_counter() - started


def _spare_set_up(workload: Workload, scratch: str, label: str) -> float:
    """One set-up that is only timed, then torn down."""
    sut, client, _journal_dir, took = _set_up(workload, scratch, label)
    client.close()
    sut.stop()
    return took


@dataclasses.dataclass
class Measured:
    """Everything one run observed, before any check or metric."""

    workload: Workload
    inputs: Inputs
    tracer: Tracer
    setups: list[float]
    warmup: int
    driver: Driver
    window: Window
    #: SUT samples around the timed window, and its shutdown sample.
    before: dict
    after: dict
    final: dict
    client_cpu: float
    #: CPU-seconds the hypervisor withheld from the guest in the window.
    stolen_s: float
    #: ``sut.collect``: stats, metrics, journal stats, span stages.
    surfaces: dict
    scraper: Optional[Scraper]
    journal_dir: Optional[str]

    @functools.cached_property
    def recovered(self):
        """``recover()`` of the closed journal (durable workloads)."""
        return recover(self.journal_dir) if self.journal_dir is not None else None

    @property
    def timed(self) -> int:
        return self.driver.attempted - self.warmup

    @property
    def sut_cpu(self) -> float:
        return self.after["cpu_s"] - self.before["cpu_s"]

    @property
    def rate(self) -> float:
        return max(self.driver.settled_ok - self.warmup, 0) / self.window.rate_wall


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            smoke: bool, corrupt: bool, scratch: str) -> Measured:
    """Set up, warm up, run the timed window, read the SUT, stop it."""
    inputs = Inputs(seed, workload.name)
    tracer = Tracer(enabled=trace)
    wave_size = WAVE_SIZE // 10 if smoke else WAVE_SIZE
    spares = (0, 0) if smoke else (SPARE_SETUPS_BEFORE, SPARE_SETUPS_AFTER)
    setups = [_spare_set_up(workload, scratch, f"before-{i}") for i in range(spares[0])]
    sut, client, journal_dir, took = _set_up(workload, scratch, "run")
    setups.append(took)
    with sut, client:
        driver = Driver(client, inputs, workload, corrupt=corrupt)
        warm = driver.submit(wave_size // 5 if smoke else WARMUP_TASKS, OFF, None)
        driver.reap(warm, due=time.monotonic(),
                    deadline=time.monotonic() + DRAIN_DEADLINE_S)
        client.release_settled()
        warmup = driver.attempted
        driver.latencies_ms.clear()
        driver.settle_times.clear()

        with tracer.span("window") as root:
            scraper = None
            if workload.durable:
                scraper = Scraper(sut.info["http_port"], tracer, root)
                scraper.start()
            before = sut.call("sample", threads=trace)
            stolen = _stolen_cpu_seconds()
            client_cpu = time.process_time()
            if workload.shape == "waves":
                window = drive_waves(driver, seconds, tracer, root, wave_size)
            elif workload.shape == "single":
                window = drive_single(driver, seconds, tracer, root)
            else:
                window = drive_paced(driver, seconds, tracer, root)
            client_cpu = time.process_time() - client_cpu
            stolen = _stolen_cpu_seconds() - stolen
            after = sut.call("sample", threads=trace)
            if scraper is not None:
                scraper.halt()

        sample: list[str] = []
        if trace:
            recent = range(max(warmup, driver.attempted - CHAIN_SAMPLE_WINDOW),
                           driver.attempted)
            picks = random.Random(seed).sample(recent, min(CHAIN_SAMPLE, len(recent)))
            sample = [inputs.task_id(i) for i in picks]
        surfaces = sut.call("collect", sample_ids=sample)
        client.close()
        final = sut.stop()
    setups += [_spare_set_up(workload, scratch, f"after-{i}") for i in range(spares[1])]
    return Measured(
        workload=workload, inputs=inputs, tracer=tracer, setups=setups,
        warmup=warmup, driver=driver, window=window, before=before, after=after,
        final=final, client_cpu=client_cpu, stolen_s=stolen, surfaces=surfaces,
        scraper=scraper, journal_dir=journal_dir)


def check(m: Measured) -> tuple[list[str], int]:
    """Every output and invariant; returns (problems, failed tasks)."""
    driver = m.driver
    report = OracleReport()
    stats = SimpleNamespace(**m.surfaces["stats"])
    check_conservation(report, submitted=driver.attempted, stats=stats,
                       expected_poison=0)
    check_no_stuck(report, driver.stuck)
    executed = sum(m.surfaces["executed"].values())
    if executed != driver.attempted:
        report.fail("conservation", f"executors ran {executed} tasks for "
                                    f"{driver.attempted} submitted")
    if m.surfaces["dlq"]:
        report.fail("conservation", f"{m.surfaces['dlq']} tasks in the DLQ")
    if m.recovered is not None:
        check_journal_consistency(report, m.recovered, dlq_ids=[],
                                  accepted=stats.accepted, pruned=True)
    problems = driver.problems + [str(v) for v in report.violations]
    if m.scraper is not None:
        problems += m.scraper.errors
    # Every task that did not settle ok exactly once is a failure; a
    # violated invariant fails the run even if every task did.
    failed = driver.attempted - driver.settled_ok
    if problems and not failed:
        failed = len(problems)
    return problems, failed


def quiet_latency(by_second: list[list[float]], q: float) -> float:
    """Lowest decile (nearest rank), over the seconds of an open-loop
    window, of each second's *q*-th percentile: the latency the SUT
    gives while the host leaves it alone.

    This class of VM slows for seconds at a time, and a whole-window
    percentile reads however many of those seconds a run happened to
    catch: in the driver's check of this benchmark the whole-window p50
    spread 0.24-0.25 run to run.  A change to the SUT moves every second
    alike, so it still shows here; what a stall adds to a few seconds
    does not, and is left to ``loadgen.latency_p99_ms``, which is taken
    over the whole window.
    """
    return percentile([percentile(second, q) for second in by_second if second], 10)


def end_to_end(m: Measured) -> dict:
    # A closed-loop window is one unit: its latency is queueing behind
    # its own burst, as steady or unsteady as its throughput.
    by_second = m.window.latency_by_second or [m.driver.latencies_ms]
    return {
        "setup_s": median(m.setups),
        "tasks_per_s": m.rate,
        "sustain_ratio": halves_ratio(m.window.units),
        "latency_p50_ms": quiet_latency(by_second, 50),
        "latency_p90_ms": quiet_latency(by_second, 90),
        "peak_rss_mb": m.final["peak_rss_mb"],
    }


def _journal_bytes_per_task(m: Measured) -> float:
    """Bytes per record of the closed tail x records appended per task."""
    if m.recovered is None or not m.recovered.replayed:
        return 0.0  # bare dispatcher, or the run ended on a compaction
    replayed = m.recovered.replayed
    tail_bytes = os.path.getsize(os.path.join(m.journal_dir, TAIL_NAME))
    return tail_bytes / replayed * m.surfaces["journal"]["records"] / m.driver.attempted


def per_layer(m: Measured, derived: dict, scratch: str, smoke: bool) -> dict:
    """The per-layer metrics of one traced run."""
    per_task = 1e6 / m.timed
    threads_before, threads_after = m.before["threads"], m.after["threads"]

    def cpu(*prefixes: str) -> float:
        """µs per task spent by threads whose name starts with a prefix."""
        return per_task * sum(
            threads_after[name] - threads_before.get(name, 0.0)
            for name in threads_after if name.startswith(prefixes))

    # CPU of threads that lived through the window; the rest of the
    # process's bill was run up by threads that came and went inside it
    # — ThreadingHTTPServer's one-per-request handlers.
    long_lived = sum(threads_after[name] - threads_before[name]
                     for name in threads_after if name in threads_before)
    short_lived = max(0.0, m.sut_cpu - long_lived)

    workload, tracer, window = m.workload, m.tracer, m.window
    isolated = layers.measure(m.inputs.specs(BUNDLE_SIZE, workload.task_seconds),
                              scratch, scale=0.05 if smoke else 1.0)
    attributed = layers.ledger(isolated.unit_us, workload.durable)
    sut_us = m.sut_cpu * per_task

    gauges = m.surfaces["metrics"]
    worst = m.scraper.worst if m.scraper is not None else {}
    stats = m.surfaces["stats"]
    journal = m.surfaces["journal"] or {}
    executed = list(m.surfaces["executed"].values())
    submits = tracer.durations_ms("live.client.submit")
    overhead = 0.0
    if window.traced_rates and window.untraced_rates:
        overhead = 1.0 - median(window.traced_rates) / median(window.untraced_rates)

    values = dict(isolated.metrics)
    values.update({
        "live.ioloop.max_lag_ms": 1e3 * max(
            gauges["dispatcher_ioloop_lag_seconds"], worst.get("ioloop_lag_s", 0.0)),
        "live.dispatcher.loop_cpu_us_per_task": cpu("ioloop-dispatcher-"),
        "live.dispatcher.monitor_cpu_us_per_task": cpu("dispatcher-monitor"),
        "live.dispatcher.lock_wait_ms_max": 1e3 * max(
            gauges["dispatcher_lock_wait_seconds"], worst.get("lock_wait_s", 0.0)),
        "live.dispatcher.retries": stats["retries"],
        "live.dispatcher.stale_results": stats["stale_results"],
        "live.dispatcher.submit_rejects": stats["submit_rejects"],
        "live.dispatcher.dispatch_latency_ms_p50": 1e3 * stats["dispatch_latency_p50"],
        "live.dispatcher.dispatch_latency_ms_p99": 1e3 * stats["dispatch_latency_p99"],
        # Executor threads, their heartbeat threads, and the outbound
        # loop they share for socket I/O.
        "live.executor.cpu_us_per_task": cpu("live-exec-", "hb-live-exec-", "ioloop-shared"),
        "live.executor.balance_min_over_max": min(executed) / max(max(executed), 1),
        "live.executor.efficiency": derived.get("efficiency", 0.0),
        "live.client.submit_call_ms_p50": percentile(submits, 50),
        "live.client.submit_call_ms_p99": percentile(submits, 99),
        "live.client.cpu_us_per_task": m.client_cpu * per_task,
        "live.client.wait_settle_ms_per_wave": median(
            tracer.durations_ms("live.client.wait_settle")),
        "live.journal.bytes_per_task": _journal_bytes_per_task(m),
        "live.journal.flusher_cpu_us_per_task": cpu("journal-flusher"),
        "live.journal.compactions": journal.get("compactions", 0),
        "live.journal.last_flush_ms": 1e3 * journal.get("last_flush_s", 0.0),
        "obs.httpd.scrape_ms_p50": median(tracer.durations_ms("obs.httpd.scrape")),
        "obs.httpd.cpu_us_per_task": cpu("obs-http-") + short_lived * per_task,
        "obs.trace.chain_complete_fraction":
            m.surfaces["chains_complete"] / max(m.surfaces["chains_sampled"], 1),
        "ledger.attributed_us_per_task": attributed,
        "ledger.unattributed_us_per_task": sut_us - attributed,
        "loadgen.latency_p99_ms": derived["latency_p99_ms"],
        "loadgen.lag_p99_ms": derived.get("lag_p99_ms", 0.0),
        "loadgen.lag_max_ms": max(window.lags_ms, default=0.0),
        "loadgen.offered_per_s": window.offered_per_s,
        "sut.cpu_us_per_task": sut_us,
        "sut.busy_fraction": derived["sut_busy_fraction"],
        "trace.tasks_per_s": m.rate,
        "trace.overhead_fraction": overhead,
    })
    for stage, quantiles in m.surfaces["stages_ms"].items():
        for q, value in quantiles.items():
            values[f"live.dispatcher.stage_{stage}_ms_{q}"] = value
    return values


def run_once(workload: Workload, seed: int, seconds: float, trace: bool,
             smoke: bool = False, corrupt: bool = False) -> dict:
    """One run of one workload; returns its result record (unstamped)."""
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}-{workload.name}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        m = measure(workload, seed, seconds, trace, smoke, corrupt, scratch)
        problems, failed = check(m)
        window, driver = m.window, m.driver
        window_wall = window.ended - window.started
        # Printed with every run, whichever metric set it reports.
        derived = {
            "failed_fraction": failed / driver.attempted,
            "cpu_us_per_task": (m.sut_cpu + m.client_cpu) / m.timed * 1e6,
            "sut_busy_fraction": m.sut_cpu / window_wall,
            "client_busy_fraction": m.client_cpu / window_wall,
            "host_steal_fraction": m.stolen_s / window_wall,
            "window_s": window_wall,
            "timed_tasks": m.timed,
            "unit_rates": [round(n / s, 1) for n, s in window.units],
            "second_latency_p50_ms": [round(percentile(second, 50), 3)
                                      for second in window.latency_by_second],
            "second_latency_p90_ms": [round(percentile(second, 90), 3)
                                      for second in window.latency_by_second],
            "latency_p99_ms": percentile(driver.latencies_ms, 99),
        }
        if workload.task_seconds:
            derived["efficiency"] = (m.timed * workload.task_seconds
                                     / (workload.executors * window.rate_wall))
        unresolved = []
        if derived["host_steal_fraction"] > STEAL_LIMIT:
            unresolved.append("the host withheld CPU from the guest")
        if window.lags_ms:
            derived["lag_p99_ms"] = percentile(window.lags_ms, 99)
            if derived["lag_p99_ms"] > LAG_LIMIT_TICKS * TICK_S * 1e3:
                unresolved.append("the load generator ran late")
        if trace:
            values, units = per_layer(m, derived, scratch, smoke), PER_LAYER
            m.tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"))
        else:
            values, units = end_to_end(m), END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": workload.name,
        "loop": workload.loop,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems and failed == 0,
        "valid": not unresolved,
        "unresolved": unresolved,
        "attempted": driver.attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "derived": derived,
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------
def _print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']} ({record['loop']} loop, seed {record['seed']}, "
          f"{record['seconds']:g} s, {mode}) ==")
    for name, metric in record["metrics"].items():
        print(f"{name:<52} {metric['value']:>14.4f} {metric['unit']}")
    for name, value in record["derived"].items():
        if isinstance(value, float):
            print(f"  {name:<50} {value:>14.4f}")
    for reason in record["unresolved"]:
        print(f"  UNRESOLVED: {reason}; do not compare this run")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")


def _contract_line(records: list[dict]) -> str:
    """The last line of stdout: the driver's result object.

    One workload reports its metrics under their own names; several are
    told apart by a ``<workload>.`` prefix.  A repeated run reports its
    last repetition.
    """
    several = len({r["workload"] for r in records}) > 1
    metrics = {}
    for record in records:
        prefix = record["workload"] + "." if several else ""
        for name, metric in record["metrics"].items():
            metrics[prefix + name] = metric
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def main(argv: Optional[list[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        default_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds task ids and the Poisson arrival schedule")
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="length of each timed window")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end metrics; 1: per-layer metrics; "
                             "bare or 'both': one pass of each")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload and mode (a result set)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny waves and windows: exercises every metric "
                             "in seconds, measures nothing")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"),
                        help="where the result set is written")
    parser.add_argument("--inject-corruption", action="store_true",
                        help="test hook: falsify one observed result; the run "
                             "must then fail")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    seconds = min(args.seconds, 0.5) if args.smoke else args.seconds
    where = stamp()
    records = []
    for _ in range(args.repeat):
        for trace in modes:
            for name in names:
                record = run_once(WORKLOADS[name], args.seed, seconds, trace,
                                  smoke=args.smoke, corrupt=args.inject_corruption)
                record["stamp"] = where
                _print_record(record)
                records.append(record)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"runs": records}, fh, indent=1)
    print(_contract_line(records))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
