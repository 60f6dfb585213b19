"""Collector phase: recorded producer frames replayed into the ingest server.

POST bodies recorded from one traced run of the workload's program, cut
as the shipped ``HTTPFrameSink`` cuts them, are replayed by K producers
(distinct run ids, each starting at a different body; a producer that
runs out of bodies starts again from the first under a fresh run id)
into an ``IngestServer`` on 127.0.0.1 that persists to a scratch
``data_dir``.  One client thread sends every request on a connection of
its own, as ``HTTPFrameSink`` does.  The phase has two parts:

* an open loop of POSTs at a fixed rate; each POST is timed from the
  moment it was due, so a stall is charged to every POST queued behind
  it;
* a closed-loop drain of back-to-back POSTs with one ``GET /cct`` after
  every M of them, so reads run against a tree that writes keep
  growing; it measures capacity in samples per second and the read's
  latency.

Reads are kept out of the open loop: with one client, a read that
outlasts the gap to the next POST would delay that POST, and whether it
does depends on the host's speed at that moment.

Timings on a shared host drift with its speed, so each end-to-end figure
is a ratio to the same request sent right after it to ``ReferenceServer``,
a minimal collector.  Both sides grow with the data, so the ratios also
vary little with the seed.  The
absolute figures go to standard error.  The final ``GET /cct`` must equal
a fold the benchmark computes itself from the frames it posted, and no
frame may be rejected or duplicated.
"""

import http.client
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from statistics import median

from repro.ingest.server import IngestServer
from repro.ingest.sinks import HTTPFrameSink
from repro.ingest.service import IngestService
from repro.obs.spans import NULL_SPANS
from repro.prof.cct import PARTIAL_FUNCTION

from perfbench.harness import percentile
from perfbench.layers import COLLECTOR_TARGETS, layer_times

#: The drain sends one ``GET /cct`` after every this many POSTs.
CCT_EVERY = 2


class _ReferenceHandler(BaseHTTPRequestHandler):
    """The least a collector can do: fold a POST, serialise for a GET."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        fold_lines(body.decode("utf-8").splitlines())
        self._send(b"{}")

    def do_GET(self):
        self._send(json.dumps(self.server.document, indent=2).encode("utf-8"))

    def _send(self, payload):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass


class ReferenceServer:
    """A minimal collector on 127.0.0.1: the baseline for every request.

    A POST is parsed and folded with ``fold_lines`` and nothing else; a
    GET returns ``document`` (the last tree the real server returned)
    serialised as ``/cct`` does.  It is built on the same ``http.server``
    classes as ``IngestServer`` and runs in the same process, so HTTP,
    thread hand-offs and the host's speed cost the same on both; what a
    request costs beyond this server's is the collector's own overhead.
    """

    def __init__(self):
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ReferenceHandler)
        self._httpd.daemon_threads = True
        self._httpd.document = {}
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)
        self._thread.start()

    def set_document(self, document):
        self._httpd.document = document

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join()


class RecordingSink(HTTPFrameSink):
    """``HTTPFrameSink`` whose POSTs are recorded instead of sent.

    The bodies are cut by the shipped sink's own rule: one per emitter
    flush (every ``sample_batch`` samples, and at completion), or sooner
    once ``batch_bytes`` are buffered.
    """

    def __init__(self):
        super().__init__("http://127.0.0.1", run="perfbench")
        self.bodies = []

    def _post(self, lines):
        self.bodies.append(list(lines))


class FrameSet:
    """Recorded POST bodies (lists of frame lines), with their fold."""

    def __init__(self, chunks):
        self.bodies = [
            ("\n".join(chunk) + "\n").encode("utf-8") for chunk in chunks
        ]
        #: Per body: {path: (weight, samples)} it adds to the CCT.
        self.folds = [fold_lines(chunk) for chunk in chunks]
        self.samples = [
            sum(count for _, count in fold.values()) for fold in self.folds
        ]
        self.line_counts = [len(chunk) for chunk in chunks]

    def expected(self, posted):
        """The CCT leaves after body ``i`` was folded ``posted[i]`` times."""
        leaves = {}
        for times, fold in zip(posted, self.folds):
            if not times:
                continue
            for path, (weight, count) in fold.items():
                total_weight, total_count = leaves.get(path, (0.0, 0))
                leaves[path] = (total_weight + times * weight,
                                total_count + times * count)
        return leaves


def fold_lines(lines):
    """``{path: (weight, samples)}`` of the samples in frame ``lines``."""
    fold = {}
    for line in lines:
        frame = json.loads(line)
        if frame["type"] != "profile.samples":
            continue
        for entry in frame["payload"]["samples"]:
            path = tuple(entry["path"])
            if entry.get("partial"):
                path = (PARTIAL_FUNCTION,) + path
            weight, count = fold.get(path, (0.0, 0))
            fold[path] = (weight + float(entry["weight"]), count + 1)
    return fold


def cct_leaves(document):
    """``{path: (self_weight, self_samples)}`` from a ``/cct`` document."""
    leaves = {}
    stack = [((), document["root"])]
    while stack:
        path, node = stack.pop()
        for child in node["children"]:
            child_path = path + (child["function"],)
            if child["self_samples"]:
                leaves[child_path] = (child["self_weight"], child["self_samples"])
            stack.append((child_path, child))
    return leaves


class CollectorPhase:
    def __init__(self, workload, frames, data_dir, checks, spans=None):
        self.workload = workload
        self.frames = frames
        self.checks = checks
        self.spans = spans
        self.recorder = spans.recorder if spans is not None else None
        self.service = IngestService(data_dir=data_dir, spans=self.recorder)
        self.server = IngestServer(self.service).start()
        self.reference = ReferenceServer()
        self.posted = [0] * len(frames.bodies)
        # Producers start spread over the bodies, so every body has been
        # posted (and the tree has its final shape) within one cycle.
        self._cursor = [
            p * len(frames.bodies) // workload.producers
            for p in range(workload.producers)
        ]
        self._cycle = [0] * workload.producers
        self._turn = 0
        # Per traced POST: (client seconds, samples).
        self._traced_posts = []

    def close(self):
        self.server.shutdown()
        self.reference.close()

    # -- requests ------------------------------------------------------
    def _request(self, method, path, body=None, port=None):
        """One request on its own connection, as ``HTTPFrameSink`` sends it.

        A keep-alive connection is not used: the server writes a
        response's headers and body in two sends, so on a reused
        connection each response waits for the client's delayed ACK
        (about 40 ms on Linux) and the timings would measure that timer.
        """
        conn = http.client.HTTPConnection(
            "127.0.0.1", port or self.server.port, timeout=60
        )
        headers = {"Connection": "close"}
        if body:
            headers["Content-Type"] = "application/x-ndjson"
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post(self):
        """POST the next body of the next producer; returns its index."""
        producer = self._turn
        self._turn = (producer + 1) % self.workload.producers
        index = self._cursor[producer]
        run = "p%d-%d" % (producer, self._cycle[producer])
        self._cursor[producer] = index + 1
        if index + 1 == len(self.frames.bodies):
            self._cursor[producer] = 0
            self._cycle[producer] += 1
        started = time.perf_counter()
        status, data = self._request(
            "POST", "/ingest?run=" + run, self.frames.bodies[index]
        )
        elapsed = time.perf_counter() - started
        ok = status == 200
        if ok:
            summary = json.loads(data)
            self.posted[index] += 1
            ok = (
                summary["accepted"] == self.frames.line_counts[index]
                and summary["rejected"] == 0
                and summary["duplicates"] == 0
            )
        self.checks.check(ok, "post")
        if self.service.spans is not NULL_SPANS:
            self._traced_posts.append((elapsed, self.frames.samples[index]))
        return index

    def reference_seconds(self, method, path, body=None):
        """Seconds for the same request to the reference server."""
        started = time.perf_counter()
        status, _ = self._request(method, path, body, port=self.reference.port)
        elapsed = time.perf_counter() - started
        self.checks.check(status == 200, "reference")
        return elapsed

    def get_cct(self):
        status, data = self._request("GET", "/cct")
        self.checks.check(status == 200, "get-cct")
        return data

    # -- phases --------------------------------------------------------
    def open_loop(self, seconds):
        """POSTs at ``post_rate``; returns the number of POSTs, the
        generator's lateness per POST and, per POST that carries samples,
        its latency and that latency over the reference server's for the
        same body (POSTed in the gap that follows).

        A run's last POST carries only its ``run.complete`` frame; it is
        sent and checked like any other, but kept out of the latency
        figures, which would otherwise mix two sizes half and half.
        """
        rate = self.workload.post_rate
        latency = []
        ratio = []
        late = []
        start = time.perf_counter()
        for n in range(int(seconds * rate)):
            due = start + n / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            late.append(time.perf_counter() - due)
            index = self.post()
            if not self.frames.samples[index]:
                continue
            latency.append(time.perf_counter() - due)
            ratio.append(latency[-1] / self.reference_seconds(
                "POST", "/", self.frames.bodies[index]))
        return len(late), latency, ratio, late

    def drain(self, seconds):
        """Back-to-back POSTs with a ``GET /cct`` after every M of them.

        Returns the POSTs' times, the samples posted, and per GET its
        time and its ratio to the reference server's GET of the same
        document, which follows it.
        """
        drained = {"post_s": [], "samples": 0, "get_s": [], "get_ratio": []}
        deadline = time.perf_counter() + seconds
        while not drained["get_s"] or time.perf_counter() < deadline:
            for _ in range(CCT_EVERY):
                started = time.perf_counter()
                index = self.post()
                elapsed = time.perf_counter() - started
                drained["post_s"].append(elapsed)
                drained["samples"] += self.frames.samples[index]
            started = time.perf_counter()
            data = self.get_cct()
            elapsed = time.perf_counter() - started
            self.reference.set_document(json.loads(data))
            drained["get_s"].append(elapsed)
            drained["get_ratio"].append(
                elapsed / self.reference_seconds("GET", "/"))
        return drained

    def verify(self):
        """Final ``GET /cct`` against the benchmark's own fold."""
        document = json.loads(self.get_cct())
        expected = self.frames.expected(self.posted)
        self.checks.check(cct_leaves(document) == expected, "cct-fold")
        self.checks.check(
            document["samples"] == sum(c for _, c in expected.values()),
            "cct-samples",
        )
        return document

    def _set_tracing(self, on):
        if on:
            self.service.spans = self.recorder
            self.spans.install(COLLECTOR_TARGETS)
        else:
            self.spans.uninstall()
            self.service.spans = NULL_SPANS

    def run(self, seconds):
        """Open loop then drain; end-to-end or (traced) per-layer metrics.

        Returns (metrics, facts for the run's summary line).
        """
        open_seconds = self.workload.open_loop_share * seconds
        if self.spans is None:
            posts, latency, ratio, late = self.open_loop(open_seconds)
            drained = self.drain(seconds - open_seconds)
            document = self.verify()
            return {
                "post_p50_x_ref": (median(ratio), "x"),
                "cct_get_p50_x_ref": (median(drained["get_ratio"]), "x"),
            }, {
                "posts": posts,
                "sample_posts": len(latency),
                "post_ms_p50": median(latency) * 1e3,
                "post_ms_p90": percentile(latency, 90) * 1e3,
                "post_p90_x_ref": percentile(ratio, 90),
                "late_ms_p90": percentile(late, 90) * 1e3,
                "drain_posts": len(drained["post_s"]),
                "samples_per_s": drained["samples"] / sum(drained["post_s"]),
                "gets": len(drained["get_s"]),
                "cct_get_ms_p50": median(drained["get_s"]) * 1e3,
                "nodes": count_nodes(document),
            }
        self.spans.take()
        self._set_tracing(True)
        _, _, _, late = self.open_loop(open_seconds)
        self.drain((seconds - open_seconds) / 2)
        self._set_tracing(False)
        # Back-to-back POSTs in alternating plain and traced bursts; their
        # throughput ratio is the tracing overhead on the collector.
        plain = []
        traced = []
        deadline = time.perf_counter() + (seconds - open_seconds) / 2
        while len(traced) < 2 or time.perf_counter() < deadline:
            plain.append(self.burst())
            self._set_tracing(True)
            traced.append(self.burst())
            self._set_tracing(False)
        document = self.verify()
        return self._layer_metrics(document, self.spans.take(), late,
                                   median(plain) / median(traced) - 1.0), None

    def burst(self, seconds=0.2):
        """Samples per second of back-to-back POSTs for ``seconds``."""
        samples = 0
        start = time.perf_counter()
        while True:
            samples += self.frames.samples[self.post()]
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return samples / elapsed

    def _layer_metrics(self, document, spans, late, overhead):
        layers = layer_times(spans)
        _, ingest_s, _ = layers.get("ingest", (0, 0.0, 0.0))
        posts = len(self._traced_posts)
        client_s = sum(elapsed for elapsed, _ in self._traced_posts)
        samples = sum(count for _, count in self._traced_posts)
        stages = self.service.timing.get("ingest_stage_seconds")

        def stage_us(stage):
            data = stages.data(stage)
            return data.sum / samples * 1e6 if data is not None else 0.0

        renders = [s["dur"] for s in spans if s["stage"] == "cct"]
        lines = sum(self.frames.line_counts) / len(self.frames.line_counts)
        return {
            "http.self_ms_per_post": ((client_s - ingest_s) / posts * 1e3, "ms"),
            "ingest.us_per_sample": (ingest_s / samples * 1e6, "us"),
            "ingest.validate_us_per_sample": (stage_us("validate"), "us"),
            "ingest.fold_us_per_sample": (stage_us("fold"), "us"),
            "ingest.publish_us_per_sample": (stage_us("publish"), "us"),
            "ingest.lines_per_post": (lines, "count"),
            "cct.nodes": (count_nodes(document), "count"),
            "cct.render_ms": (median(renders) * 1e3 if renders else 0.0, "ms"),
            "loadgen.late_ms_p90": (percentile(late, 90) * 1e3, "ms"),
            "trace.ingest_overhead_frac": (overhead, "ratio"),
        }


def count_nodes(document):
    count = 0
    stack = [document["root"]]
    while stack:
        node = stack.pop()
        count += len(node["children"])
        stack.extend(node["children"])
    return count
