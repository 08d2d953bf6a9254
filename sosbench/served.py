"""The ``served_mix`` workload: closed-loop traffic to ``sos serve``.

Two keep-alive connections each send their next request only when the
previous one has returned.  The stream is fixed by the seed: mostly
``/v1/synthesize`` on Example 1 at distinct cost caps, about a third
exact repeats that the result cache answers, and a few ``/v1/sweep``
requests.  Hits stay well under half and sweeps well under a tenth of
the stream, so neither the median nor the 90th percentile sits on the
boundary between request classes.  Every answer is checked against the
Table II oracle.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from reference import TABLE_II, design_row, front_mismatch, row_matches, table2_for_cap
from spans import SELF_TIME_METRICS, cpu_seconds, layer_metrics, percentile, resolve
from speed import SpeedClock

#: Requests per second of ``--seconds``: the stream has a fixed length,
#: about as many requests as the stack answered in that time when the
#: benchmark was written.
REQUESTS_PER_SECOND = 20
CONNECTIONS = 2
#: Cores for the server: one per solve process of the default pool.
CORES = 2
REPEAT_SHARE = 1 / 3
SWEEP_SHARE = 0.03
#: A repeat copies a request at least this many places earlier, so the
#: original has normally finished and the cache, not dedup, answers it.
REPEAT_GAP = 8
#: Caps of the timed synthesize requests, in thousandths.
CAP_RANGE = (4000, 20000)
#: One warm-up request per solve process, at caps the stream never uses.
WARMUP_CAPS = (30.5, 40.5)
SETUP_REPEATS = 7
WAIT_SECONDS = 55
CLIENT_TIMEOUT = 60.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

HERE = Path(__file__).resolve().parent

Request = Tuple[str, Dict]
Interval = Tuple[float, float]


def make_stream(seed: int, count: int) -> List[Request]:
    """The seeded request list: ``(path, body)`` pairs."""
    rng = random.Random(seed)
    sweeps = max(1, round(count * SWEEP_SHARE))
    repeats = round(count * REPEAT_SHARE)
    fresh = count - sweeps - repeats
    tail = ["fresh"] * (fresh - REPEAT_GAP) + ["repeat"] * repeats + ["sweep"] * sweeps
    rng.shuffle(tail)
    caps = iter(c / 1000.0 for c in rng.sample(range(*CAP_RANGE), fresh))
    stream: List[Request] = []
    fresh_at: List[int] = []
    for kind in ["fresh"] * REPEAT_GAP + tail:
        if kind == "fresh":
            fresh_at.append(len(stream))
            stream.append(("/v1/synthesize", _synthesize_body(next(caps))))
        elif kind == "repeat":
            limit = len(stream) - REPEAT_GAP
            source = rng.choice([i for i in fresh_at if i <= limit])
            stream.append(stream[source])
        else:
            stream.append(("/v1/sweep", {
                "problem": "example1", "max_designs": rng.randint(2, 5),
                "wait": WAIT_SECONDS,
            }))
    return stream


def _synthesize_body(cap: float) -> Dict:
    return {"problem": "example1", "cost_cap": cap, "wait": WAIT_SECONDS}


def check_answer(request: Request, status: int, document) -> Optional[str]:
    """``None`` when the answer equals the Table II oracle, else a reason."""
    if status != 200 or not isinstance(document, dict):
        return f"HTTP {status}"
    if document.get("status") != "done":
        return f"job {document.get('status')}: {document.get('error')}"
    path, body = request
    result = document["result"]
    if path == "/v1/sweep":
        return front_mismatch(result["designs"], TABLE_II[: body["max_designs"]])
    want = table2_for_cap(body["cost_cap"])
    got = design_row(result)
    if not row_matches(got, want):
        return f"cap {body['cost_cap']}: got {got}, expected {want}"
    return None


class Server:
    """One ``sos serve`` child process, from launch to exit."""

    def __init__(self, root: Path, trace_dir: str = "") -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        # A session of its own, so the pool workers can be stopped with it.
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py"), trace_dir],
            cwd=str(root), env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.imported = self._next_event("imported")
            deadline = time.monotonic() + START_TIMEOUT
            line = self._line(deadline)
            while not line.startswith("serving on "):
                line = self._line(deadline)
        except BaseException:
            self.kill()
            raise
        self.ready_at = time.perf_counter()
        self.host, port = line.split()[2].split("//", 1)[1].rsplit(":", 1)
        self.port = int(port)

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _line(self, deadline: float) -> str:
        try:
            line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise RuntimeError("sos serve did not answer in time") from None
        if line is None:
            raise RuntimeError(f"sos serve exited with {self.proc.wait()}")
        return line

    def _next_event(self, name: str) -> Dict:
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            line = self._line(deadline)
            if line.startswith("{"):
                document = json.loads(line)
                if document.get("event") == name:
                    return document

    def get(self, path: str) -> Dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=CLIENT_TIMEOUT)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> Dict:
        """SIGINT the server and wait until it and its pool have exited."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("sos serve did not stop on SIGINT") from None
        self._wait_session()
        self._reader.join()
        return self._next_event("exit")

    def kill(self) -> None:
        """Kill the server with everything it started; wait for them."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._wait_session()

    def _wait_session(self) -> None:
        """Wait until no process of the server's session is left."""
        deadline = time.monotonic() + STOP_TIMEOUT
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def drive(server: Server, stream: List[Request], connections: int):
    """Send ``stream`` over ``connections`` closed-loop keep-alive clients.

    Returns ``(results, start, end)``; ``results[i]`` is ``(status,
    latency seconds, document, send time)`` for ``stream[i]``.  Every
    connection is closed before this returns.
    """
    results: List = [None] * len(stream)
    position = iter(range(len(stream)))
    lock = threading.Lock()

    def client() -> None:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=CLIENT_TIMEOUT)
        try:
            while True:
                with lock:
                    index = next(position, None)
                if index is None:
                    return
                path, body = stream[index]
                start = time.perf_counter()
                try:
                    conn.request("POST", path, json.dumps(body),
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    document = json.loads(response.read())
                    status = response.status
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    status, document = -1, {"error": repr(exc)}
                    conn.close()
                    conn = http.client.HTTPConnection(
                        server.host, server.port, timeout=CLIENT_TIMEOUT)
                results[index] = (status, time.perf_counter() - start, document, start)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(connections)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, start, time.perf_counter()


def _set_up(root: Path,
            trace_dir: str = "") -> Tuple[Server, List[Interval], List[str]]:
    """Start a server and warm each solve process.

    Returns the server, the set-up's two ``(start, end)`` intervals
    (from the end of the server's imports until it serves, and the
    warm-up), and any wrong warm-up answers.
    """
    server = Server(root, trace_dir)
    try:
        warmup = [("/v1/synthesize", _synthesize_body(cap)) for cap in WARMUP_CAPS]
        results, start, end = drive(server, warmup, len(warmup))
        intervals = [(server.imported["at"], server.ready_at), (start, end)]
        print(f"served_mix: server ready in {server.ready_at - server.imported['at']:.4f} s,"
              f" warm-up {end - start:.4f} s", file=sys.stderr)
    except BaseException:
        server.kill()
        raise
    problems = [
        f"warm-up: {reason}" for request, (status, _, document, _) in zip(warmup, results)
        if (reason := check_answer(request, status, document)) is not None
    ]
    return server, intervals, problems


def service_metrics(results, stats: Optional[Dict]) -> Dict[str, float]:
    """The service layer's per-layer metrics (zeros when nothing was served)."""
    solved, hits, transport = [], [], []
    for status, latency, document, _ in results:
        if status != 200 or document.get("status") != "done":
            continue
        in_job = document["finished_at"] - document["submitted_at"]
        transport.append(latency - in_job)
        if document["cached"]:
            hits.append(latency)
        else:
            solved.append(document)
    waits = [d["started_at"] - d["submitted_at"] for d in solved]
    runs = [d["finished_at"] - d["started_at"] for d in solved]
    stats = stats or {}
    cache = stats.get("cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "service.queue_wait_p50_s": percentile(waits, 50),
        "service.queue_wait_p90_s": percentile(waits, 90),
        "service.run_p50_s": percentile(runs, 50),
        "service.transport_p50_s": percentile(transport, 50),
        "service.hit_p50_s": percentile(hits, 50),
        "service.cache_hit_rate": cache.get("hits", 0) / lookups if lookups else 0.0,
        "service.solves": stats.get("solves", 0),
        "service.dedup_hits": stats.get("dedup_hits", 0),
        "service.inline_fallbacks": stats.get("inline_fallbacks", 0),
        "service.pool_restarts": (stats.get("pool") or {}).get("restarts", 0),
        "service.http_429": sum(1 for status, _, _, _ in results if status == 429),
    }


def run(root: Path, seed: int, seconds: float, trace: bool) -> Dict:
    count = int(REQUESTS_PER_SECOND * seconds)
    stream = make_stream(seed, count)
    if trace:
        # Half the stream plain, then the same half on a traced server.
        stream = stream[: count // 2]
    setups: List[List[Interval]] = []
    mismatches: List[str] = []
    server = None
    # Untraced runs time against the machine's speed, measured on each of
    # the cores the server and its pool are pinned to (see speed.py).
    clock = None if trace else SpeedClock.pinned(CORES)
    try:
        for repeat in range(SETUP_REPEATS):
            server, intervals, problems = _set_up(root)
            setups.append(intervals)
            mismatches += problems
            if repeat < SETUP_REPEATS - 1:
                server.stop()
                server = None
        cpu = cpu_seconds()
        results, start, end = drive(server, stream, CONNECTIONS)
        wall = end - start
        client_cpu = cpu_seconds() - cpu
        stats = server.get("/v1/stats")
        import_cpu = server.imported["cpu_s"]
        exit_info = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
        if clock is not None:
            clock.stop()
    failed = 0
    for request, (status, _, document, _) in zip(stream, results):
        reason = check_answer(request, status, document)
        if reason is not None:
            failed += 1
            mismatches.append(reason)
    result = {"attempted": len(stream), "failed": failed, "mismatches": mismatches}
    if not trace:
        latencies = [clock.seconds(sent, sent + latency)
                     for _, latency, _, sent in results]
        processes = (stats.get("pool") or {}).get("processes", 0)
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + exit_info["maxrss_kb"] + processes * exit_info["children_maxrss_kb"]
        )
        result["metrics"] = {
            "setup_s": statistics.median(
                sum(clock.seconds(*interval) for interval in intervals)
                for intervals in setups
            ),
            "sweep_s": clock.seconds(start, end),
            "latency_p50_s": percentile(latencies, 50),
            "latency_p90_s": percentile(latencies, 90),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        result["report"] = {
            "served_rps": len(stream) / result["metrics"]["sweep_s"],
            "sweep_wall_s": wall,
            "slowdown": clock.slowdown(start, end),
        }
        return result

    layers = service_metrics(results, stats)
    layers["process.cpu_s"] = (
        client_cpu + exit_info["cpu_s"] - import_cpu
    ) / len(stream)
    traced, traced_wall, started, raw = _traced_run(root, stream, mismatches)
    for request, (status, _, document, _) in zip(stream, traced):
        reason = check_answer(request, status, document)
        if reason is not None:
            result["failed"] += 1
            mismatches.append(f"traced: {reason}")
    result["attempted"] += len(stream)
    spans = [span for worker in raw.values() for span in resolve(worker, since=started)]
    layers.update(layer_metrics(spans, 1))
    layers["trace.sweep_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - wall
    layers["trace.unattributed_s"] = sum(latency for _, latency, _, _ in traced) - sum(
        layers[name] for name in SELF_TIME_METRICS
    )
    result["metrics"] = layers
    result["spans"] = raw
    return result


def _traced_run(root: Path, stream: List[Request], mismatches: List[str]):
    """Serve ``stream`` again on a server whose pool workers record spans.

    Returns ``(results, wall seconds, stream start, spans by worker)``.
    """
    trace_dir = root / ".sosbench" / f"spans-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        server, _, problems = _set_up(root, str(trace_dir))
        mismatches += problems
        try:
            results, started, end = drive(server, stream, CONNECTIONS)
        finally:
            server.stop()
        raw = {}
        for path in sorted(trace_dir.glob("spans-*.json")):
            raw[path.stem] = json.loads(path.read_text())
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return results, end - started, started, raw
