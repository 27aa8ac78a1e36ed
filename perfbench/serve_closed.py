"""The ``serve-closed`` workload: closed-loop HTTP load on ``repro-serve``.

The server runs as its own process (``workers=1``, a fresh cache
directory, the default queue depth).  This process runs :data:`CLIENTS`
client threads; each submits one single-spec job, waits for its result,
checks it, and only then submits the next.
"""

from __future__ import annotations

import contextlib
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

from corpus import (
    ROOT, expected_counts, load_reference, result_counts,
    serve_corpus,
)
from grid import GRID_CELLS, SETUP_REPEATS, child_env
from outcome import Outcome
from stats import tail_percentile
from timing import calibration_seconds, rescaled

#: Closed-loop clients; one per core of the 2-core reference machine.
CLIENTS = 2
#: The exact-count guard sums simulated counts over this many leading
#: jobs of the sequence (a run completes far more).
SIM_PREFIX = 250
#: Server stages read from the span log, as ``serve.<stage>_ms``.
STAGES = ("http", "admit", "queue-wait", "execute", "serialize", "journal")
#: Scratch space inside the checkout; removed at the end of every run.
WORK_ROOT = ROOT / ".perfbench_tmp"


class Server:
    """One ``repro-serve serve`` process on a free local port."""

    def __init__(self, cache_dir: Path, spans: Optional[Path] = None):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        command = [
            sys.executable, "-m", "repro.serve.cli", "serve",
            "--host", "127.0.0.1", "--port", str(self.port), "--workers", "1",
            "--cache-dir", str(cache_dir), "--quiet",
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.log = open(cache_dir.parent / f"server-{self.port}.log", "wb")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=self.log, cwd=str(ROOT),
        )
        self.ready = self._wait_ready()

    def _wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``/healthz`` answers."""
        deadline = self.spawned + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}")
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5):
                    return time.perf_counter() - self.spawned
            except (urllib.error.URLError, ConnectionError):
                time.sleep(0.01)
        raise RuntimeError("server did not come up within 60 s")

    def stop(self) -> None:
        """Ask for a graceful drain; kill if it does not exit in time."""
        if self.process.poll() is None:
            try:
                urllib.request.urlopen(urllib.request.Request(
                    self.url + "/v1/shutdown", method="POST"), timeout=5).read()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=30)
        self.log.close()


def serve_closed(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK_ROOT))
    servers: List[Server] = []
    try:
        return _serve_closed(seed, seconds, trace, outcome, workdir, servers)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK_ROOT.rmdir()


def _serve_closed(seed, seconds, trace, outcome, workdir, servers) -> Outcome:
    calibration = calibration_seconds()
    setup_started = time.perf_counter()
    import repro  # noqa: F401 - the import is part of the set-up
    from repro.engine.cache import ResultCache
    from repro.engine.executor import execute_spec
    from repro.engine.spec import RunSpec
    from repro.serve.client import Client

    reference = load_reference()
    precached, jobs = serve_corpus(seed)
    store = ResultCache(workdir / "cache")
    for index, spec in enumerate(precached):
        if index % 64 == 0:
            paused = time.perf_counter()
            calibration += calibration_seconds(1)
            setup_started += time.perf_counter() - paused
        run_spec = RunSpec.create(**spec)
        payload = execute_spec(run_spec)
        if "error" in payload:
            raise RuntimeError(f"pre-population failed: {payload['error']}")
        store.put(run_spec.key(), payload)
    populate_s = time.perf_counter() - setup_started
    calibration += calibration_seconds()
    # Server cold starts: throwaway ones first, each on its own cache
    # directory, then the one that takes the load.
    starts = []
    for index in range(SETUP_REPEATS - 1):
        probe_dir = workdir / f"probe{index}"
        probe_dir.mkdir()
        probe = Server(probe_dir)
        servers.append(probe)
        starts.append(probe.ready)
        probe.stop()
        servers.remove(probe)
    spans_path = workdir / "spans.jsonl" if trace else None
    server = Server(workdir / "cache", spans=spans_path)
    servers.append(server)
    starts.append(server.ready)
    calibration += calibration_seconds()
    # Set-up is CPU-bound and rescaled like the grid times; the load
    # phase is mostly waiting on the poll interval and is reported raw.
    setup_s = rescaled(populate_s + statistics.median(starts), calibration)

    lock = threading.Lock()
    cursor = [0]
    done: Dict[int, Dict] = {}
    failures: List[str] = []
    started = time.perf_counter()

    def client_loop() -> None:
        client = Client(server.url, timeout=60.0)
        status = client.status
        polls = [0]

        def counted_status(job):
            polls[0] += 1
            return status(job)

        client.status = counted_status
        while True:
            with lock:
                index = cursor[0]
                if index >= len(jobs) or time.perf_counter() - started >= seconds:
                    return
                cursor[0] += 1
            kind, spec = jobs[index]
            polls[0] = 0
            submitted = time.perf_counter()
            try:
                accepted = client.submit(spec)
                accepted_at = time.perf_counter()
                result = client.result(accepted, timeout=60.0)[0]
                finished = time.perf_counter()
            except Exception as error:  # noqa: BLE001 - every failure is counted
                with lock:
                    failures.append(f"{kind} {spec['app']}/{spec['model']}: "
                                    f"{type(error).__name__}: {error}")
                continue
            with lock:
                ok = outcome.check(reference, spec, result)
                done[index] = {
                    "kind": kind, "submitted": submitted,
                    "accepted": accepted_at, "finished": finished,
                    "polls": polls[0], "result": result if ok else None,
                }

    threads = [threading.Thread(target=client_loop, name=f"client-{n}")
               for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 170)
    health = Client(server.url).health()

    for failure in failures:
        outcome.fail(failure)
    if not done:
        outcome.fail("no job completed")
        return outcome
    # Dispensing is in sequence order, so the jobs the guard sums are a
    # prefix that every run of the same seed completes.
    prefix = [index for index in range(min(SIM_PREFIX, cursor[0]))
              if index in done and done[index]["result"] is not None]
    totals = {"sim.cycles": 0, "sim.instructions": 0, "sim.switches": 0}
    for index in prefix:
        for name, value in zip(totals, result_counts(done[index]["result"])):
            totals[name] += value
    expected = expected_counts(reference, (jobs[index][1] for index in prefix))
    outcome.exact(totals, expected)

    records = sorted(done.values(), key=lambda record: record["finished"])
    finishes = [started] + [record["finished"] for record in records]
    windows = [finishes[end] - finishes[end - GRID_CELLS]
               for end in range(GRID_CELLS, len(finishes), GRID_CELLS)]
    if not windows:  # a run too short for one full window
        windows = [(finishes[-1] - started) * GRID_CELLS / len(records)]
    load_wall = finishes[-1] - started
    engine = health["engine"]
    outcome.end_to_end = {
        "setup_s": setup_s,
        "wall_s": statistics.median(windows),
        "peak_rss_mb": engine["peak_rss_kb"] / 1024,
    }
    if trace:
        server.stop()
        servers.remove(server)
        outcome.per_layer = _layer_metrics(
            records, windows, load_wall, engine, spans_path, jobs, expected)
        outcome.per_layer["host.calibration_ms"] = 1e3 * statistics.mean(calibration)
    return outcome


def _layer_metrics(records, windows, load_wall, engine, spans_path, jobs,
                   expected) -> Dict[str, float]:
    from repro.lint import predict_spec_cached
    from repro.engine.spec import RunSpec
    from repro.obs.spans import read_spans_jsonl

    latencies = [1e3 * (r["finished"] - r["submitted"]) for r in records]
    by_stage: Dict[str, List[float]] = {}
    for span in read_spans_jsonl(spans_path):
        by_stage.setdefault(span.name, []).append(span.duration)
    units = len(records) / GRID_CELLS

    def p50_ms(stage: str) -> float:
        values = by_stage.get(stage)
        return 1e3 * statistics.median(values) if values else 0.0

    def per_unit(stage: str) -> float:
        return sum(by_stage.get(stage, ())) / units

    predict_ms = []
    for _kind, spec in jobs[:GRID_CELLS]:
        run_spec = RunSpec.create(**spec)
        begin = time.perf_counter()
        predict_spec_cached(
            run_spec.app, run_spec.model, run_spec.processors, run_spec.level,
            run_spec.scale, run_spec.effective_latency,
            run_spec.machine_config().forced_switch_interval,
            run_spec.effective_code_model.value,
        )
        predict_ms.append(1e3 * (time.perf_counter() - begin))

    out = {f"serve.{stage.replace('-', '_')}_ms": p50_ms(stage) for stage in STAGES}
    completed = engine["completed"]
    out.update({
        "build_s": per_unit("build"),
        "machine.run_s": per_unit("run"),
        "jit.codegen_s": per_unit("jit-compile"),
        "engine.cache_lookup_ms": p50_ms("cache-lookup"),
        "engine.cache_hit_ratio": engine["cached"] / completed,
        "engine.jobs_completed": completed,
        "lint.predict_ms": statistics.median(predict_ms),
        "client.submit_ms": statistics.median(
            1e3 * (r["accepted"] - r["submitted"]) for r in records),
        "client.result_ms": statistics.median(
            1e3 * (r["finished"] - r["accepted"]) for r in records),
        "client.polls_per_job": statistics.mean(r["polls"] for r in records),
        "client.latency_p50_ms": statistics.median(latencies),
        "client.latency_p90_ms": tail_percentile(latencies, 0.90),
        "client.latency_samples": len(latencies),
        "trace.wall_s": statistics.median(windows),
        # Share of client-thread time spent inside job calls; the rest
        # is the load generator's own bookkeeping.
        "trace.accounted_share": sum(latencies) / 1e3 / (CLIENTS * load_wall),
        **expected,
    })
    return out
