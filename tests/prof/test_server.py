"""The live profile view: ``dacce profile serve``'s wiring on IngestServer.

An in-process engine's samples reach an :class:`IngestService` as
frames and :class:`IngestServer` serves the CCT; these tests pin the
profile-facing routes of that one server.
"""

import json
import logging
import urllib.error
import urllib.request

import pytest

from repro.core.engine import DacceEngine
from repro.ingest import (
    IngestServer,
    IngestService,
    frame_line,
    make_frame,
    sample_entry,
    samples_payload,
)
from repro.obs import Telemetry
from tests.ingest.conftest import run_simple_workload


def sample_line(path, weight, seq):
    payload = samples_payload([sample_entry(path, weight, 1)])
    return frame_line(make_frame("profile.samples", payload, 1.0, seq))


@pytest.fixture
def service():
    service = IngestService()
    service.ingest_lines(
        "profile", [sample_line([0, 1], 5.0, 0), sample_line([0, 2], 3.0, 1)]
    )
    return service


@pytest.fixture
def server(service):
    server = IngestServer(service).start()
    yield server
    server.shutdown()


def fetch(server, path):
    with urllib.request.urlopen(server.url + path, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


def test_index_lists_routes(server):
    status, _, body = fetch(server, "/")
    assert status == 200
    endpoints = json.loads(body)["endpoints"]
    for route in ("/cct", "/flame", "/top", "/metrics", "/healthz"):
        assert route in endpoints
    assert "/overhead" not in endpoints


def test_cct_route_returns_tree_json(server):
    status, headers, body = fetch(server, "/cct")
    assert status == 200 and headers["Content-Type"] == "application/json"
    doc = json.loads(body)
    assert doc["samples"] == 2
    assert doc["root"]["total_weight"] == 8.0


def test_flame_route_returns_folded(server):
    status, _, body = fetch(server, "/flame")
    assert status == 200
    assert body == "fn0;fn1 5\nfn0;fn2 3\n"


def test_top_route_with_query(server):
    status, _, body = fetch(server, "/top?n=1")
    assert status == 200
    rows = json.loads(body)
    assert len(rows) == 1
    assert rows[0]["stack"] == ["fn0", "fn1"]
    for query in ("by=bogus", "n=nope"):
        with pytest.raises(urllib.error.HTTPError) as caught:
            fetch(server, "/top?" + query)
        assert caught.value.code == 400
        assert json.loads(caught.value.read())["error"] == "bad-request"


def test_metrics_route_requires_telemetry(service):
    """prof_* families are always on /metrics; the engine's families
    appear once the engine's Telemetry shares the service registry."""
    assert 'dacce_prof_samples_total{result="complete"} 2' in (
        service.metrics_text()
    )
    assert 'dacce_prof_cct{property="nodes"} 3' in service.metrics_text()
    assert "dacce_ccstack_depth" not in service.metrics_text()
    engine = DacceEngine(telemetry=Telemetry(registry=service.registry))
    run_simple_workload(engine, 20)
    server = IngestServer(service).start()
    try:
        status, _, body = fetch(server, "/metrics")
    finally:
        server.shutdown()
    assert status == 200
    assert "dacce_ccstack_depth_bucket{le=" in body
    assert 'dacce_prof_samples_total{result="complete"} 2' in body


def test_healthz_and_unknown_route(server):
    status, _, body = fetch(server, "/healthz")
    assert status == 200
    assert json.loads(body)["samples"] == 2
    with pytest.raises(urllib.error.HTTPError) as caught:
        fetch(server, "/nope")
    assert caught.value.code == 404


def test_http_server_end_to_end(service, server):
    status, _, body = fetch(server, "/healthz")
    assert status == 200 and json.loads(body)["samples"] == 2
    assert "fn0;fn1 5" in fetch(server, "/flame")[2]
    # Live updates: newly folded samples are visible on the next request.
    service.ingest_lines("profile", [sample_line([0, 1], 1.0, 2)])
    assert "fn0;fn1 6" in fetch(server, "/flame")[2]


def test_server_start_twice_rejected(service):
    server = IngestServer(service).start()
    try:
        with pytest.raises(RuntimeError):
            server.start()
    finally:
        server.shutdown()


def test_handler_error_returns_500(service, caplog):
    def broken():
        raise RuntimeError("boom")

    service.cct_json = broken
    server = IngestServer(service).start()
    try:
        with caplog.at_level(logging.ERROR, logger="repro.ingest.server"):
            with pytest.raises(urllib.error.HTTPError) as caught:
                fetch(server, "/cct")
        assert caught.value.code == 500
        assert caught.value.headers["Content-Type"] == "application/json"
        assert json.loads(caught.value.read())["path"] == "/cct"
        # Logged, and the server keeps answering.
        assert any("/cct" in r.getMessage() for r in caplog.records)
        assert fetch(server, "/healthz")[0] == 200
    finally:
        server.shutdown()


def test_unknown_route_is_structured_json(server):
    with pytest.raises(urllib.error.HTTPError) as caught:
        fetch(server, "/nope")
    assert caught.value.code == 404
    assert caught.value.headers["Content-Type"] == "application/json"
    document = json.loads(caught.value.read())
    assert document["error"] == "not-found"
    assert document["path"] == "/nope"
    assert "/cct" in document["routes"]


def test_responses_carry_no_store_and_content_type(server):
    for path in ("/", "/cct", "/flame", "/top", "/healthz"):
        _, headers, _ = fetch(server, path)
        assert headers["Cache-Control"] == "no-store", path
        assert headers["Content-Type"], path
    with pytest.raises(urllib.error.HTTPError) as caught:
        fetch(server, "/missing")
    assert caught.value.headers["Cache-Control"] == "no-store"
    assert caught.value.headers["Content-Type"] == "application/json"
