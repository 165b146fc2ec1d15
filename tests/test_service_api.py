"""The query API end-to-end: a real daemon on an ephemeral port.

One module-scoped service ingests a full smoke study through the HTTP
surface itself; every test then exercises a route through the stdlib
client — JSON schemas, the 404 contract, rule-feed content type, a
parseable ``/metrics`` scrape, and digest equality against a batch
``run_study`` of the same world.
"""

import contextlib
import gc
import json
import re
import socket
import statistics
import threading
import time
import urllib.request
import weakref

import pytest

from repro.core.cache import dataset_diff, dataset_digest
from repro.core.monitor import alerts
from repro.core.pipeline import PipelineConfig
from repro.obs import create_telemetry
from repro.service import (ServiceError, StudyClient, StudyService,
                           build_server, serve_forever)
from repro.service.handlers import ServiceApi

from .conftest import SMOKE

SEED = 20220322


@pytest.fixture(scope="module")
def daemon():
    service = StudyService(seed=SEED, scale=SMOKE,
                           telemetry=create_telemetry())
    server = build_server(service)  # port 0: ephemeral
    thread = threading.Thread(target=serve_forever, args=(server, service),
                              daemon=True)
    thread.start()
    port = server.server_address[1]
    client = StudyClient(f"http://127.0.0.1:{port}")
    client.ingest("all")  # the whole study arrives over the API
    yield service, client
    client.close()
    server.shutdown()
    thread.join(timeout=10)


@pytest.fixture
def batch_datasets(serial_reference):
    return serial_reference(SEED, SMOKE)[2]


# -- the service == batch oracle ---------------------------------------------


def test_digest_matches_batch_run_study(daemon, batch_datasets):
    service, client = daemon
    document = client.digest()
    assert document["finalized"] is True
    assert document["dataset_digest"] == dataset_digest(batch_datasets), \
        dataset_diff(batch_datasets, service.runner.datasets)


def test_status_document(daemon):
    _service, client = daemon
    status = client.status()
    assert status["seed"] == SEED
    assert status["pipeline_done"] and status["finalized"]
    assert status["next_day"] == status["total_days"]
    assert re.fullmatch(r"[0-9a-f]{64}", status["fingerprint"])
    assert set(status["datasets"]) == {
        "D-Samples", "D-C2s", "D-PC2", "D-Exploits", "D-DDOS"}


def test_healthz(daemon):
    _service, client = daemon
    assert client.healthz() == {"ok": True}


# -- profiles -----------------------------------------------------------------


def test_profile_lookup_by_sha256(daemon, batch_datasets):
    _service, client = daemon
    profile = batch_datasets.profiles[0]
    document = client.profile(profile.sha256)
    assert document["sha256"] == profile.sha256
    assert document["day"] == profile.day
    assert document["family_label"] == profile.family_label
    assert len(document["exploits"]) == len(profile.exploits)
    for observation, doc in zip(profile.exploits, document["exploits"]):
        assert doc["payload_hex"] == observation.payload.hex()
    for doc in document["attacks"]:
        assert re.fullmatch(r"\d+\.\d+\.\d+\.\d+", doc["target_ip"])


def test_unknown_sha256_is_404(daemon):
    _service, client = daemon
    with pytest.raises(ServiceError) as excinfo:
        client.profile("f" * 64)
    assert excinfo.value.status == 404


def test_profiles_listing_filters(daemon, batch_datasets):
    _service, client = daemon
    listing = client.profiles()
    assert listing["total"] == len(batch_datasets.profiles)
    day = batch_datasets.profiles[0].day
    per_day = client.profiles(day=day)
    assert per_day["total"] == sum(
        1 for p in batch_datasets.profiles if p.day == day)
    limited = client.profiles(limit=2)
    assert limited["returned"] == min(2, limited["total"])


# -- analysis routes ----------------------------------------------------------


def test_c2_listing(daemon, batch_datasets):
    _service, client = daemon
    listing = client.c2s()
    assert listing["total"] == len(batch_datasets.d_c2s)
    endpoints = {doc["endpoint"] for doc in listing["c2s"]}
    assert endpoints == set(batch_datasets.d_c2s)


def test_lifespan_cdfs(daemon):
    _service, client = daemon
    cdfs = client.lifespans()
    assert set(cdfs) == {"ip", "dns"}
    assert cdfs["ip"], "smoke study should observe IP C2 lifespans"
    fractions = [point["fraction"] for point in cdfs["ip"]]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)


def test_ddos_summary(daemon, batch_datasets):
    _service, client = daemon
    summary = client.ddos_summary()
    assert summary["total_commands"] == len(batch_datasets.d_ddos)
    distribution = summary["protocol_distribution"]
    assert sum(distribution.values()) == pytest.approx(1.0)
    for doc in summary["commands"]:
        assert doc["target_protocol"] in {"UDP", "TCP", "DNS", "ICMP"}


def test_exploits_summary(daemon, batch_datasets):
    _service, client = daemon
    summary = client.exploits_summary()
    assert summary["exploited_samples"] == \
        batch_datasets.exploit_sample_count()
    for row in summary["vulnerabilities"]:
        assert row["sample_count"] >= 1
        assert row["vuln_key"]


# -- text routes --------------------------------------------------------------


def test_rule_feed_is_plain_text(daemon):
    service, client = daemon
    _status, headers, body = client._request("GET", "/rules",
                                             {"technology": "iptables"})
    assert headers["Content-Type"].startswith("text/plain")
    for line in body.decode().strip().splitlines():
        assert line.startswith("-A "), line


def test_rule_feed_rejects_unknown_technology(daemon):
    _service, client = daemon
    with pytest.raises(ServiceError) as excinfo:
        client.rules("pf")
    assert excinfo.value.status == 400


def test_rule_feed_since_keeps_later_first_days(daemon):
    service, client = daemon
    last = max(service.rule_days.values())
    later = client.rules("iptables", since=last).splitlines()
    assert later == [
        rule.render() for rule in service.rules.by_technology("iptables")
        if service.rule_days[rule.technology, rule.text] >= last]
    assert client.rules(since=0) == client.rules()


# -- the alert feed -----------------------------------------------------------


def test_alert_feed_matches_the_batch_profiles(daemon, batch_datasets):
    _service, client = daemon
    expected = alerts(batch_datasets.profiles)
    document = client.alerts()
    assert document["total"] == len(expected) > 0
    assert [(d["day"], d["kind"], d["subject"], d["detail"])
            for d in document["alerts"]] == [
        (a.day, a.kind.value, a.subject, a.detail) for a in expected]
    since = expected[-1].day
    assert client.alerts(since=since)["total"] == sum(
        1 for a in expected if a.day >= since)


def test_metrics_scrape_parses(daemon):
    _service, client = daemon
    text = client.metrics()
    assert text, "enabled telemetry must expose metrics"
    sample = re.compile(
        r"[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.e+-]+(\s|$)")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert sample.match(line), f"unparseable sample line: {line!r}"
    assert "service_days_ingested_total" in text
    assert 'service_requests_total{' in text


# -- protocol edges -----------------------------------------------------------


def test_ingest_when_done_is_409(daemon):
    _service, client = daemon
    with pytest.raises(ServiceError) as excinfo:
        client.ingest(1)
    assert excinfo.value.status == 409


def test_finalize_is_idempotent(daemon):
    _service, client = daemon
    result = client.finalize()
    assert result["finalized"] and result["already_finalized"]


def test_unknown_route_is_404_and_wrong_method_405(daemon):
    _service, client = daemon
    with pytest.raises(ServiceError) as excinfo:
        client._json("GET", "/no/such/route")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._json("POST", "/status")
    assert excinfo.value.status == 405


def test_index_lists_routes(daemon):
    _service, client = daemon
    index = client._json("GET", "/")
    assert any("profiles" in route for route in index["routes"])


def test_bad_ingest_body_is_400(daemon):
    service, client = daemon
    port = client.base_url.rsplit(":", 1)[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/ingest/day", data=b"{not json",
        method="POST")
    try:
        urllib.request.urlopen(request, timeout=10)
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as exc:
        assert exc.code == 400
        assert "JSON" in json.load(exc)["error"]


# -- ETag revalidation --------------------------------------------------------


@pytest.mark.parametrize("path", ["/digest", "/profiles", "/c2",
                                  "/summary/ddos", "/summary/exploits",
                                  "/alerts", "/rules"])
def test_cacheable_routes_revalidate_to_304(daemon, path):
    _service, client = daemon
    status, etag, body = client.conditional_get(path)
    assert status == 200 and body
    assert re.fullmatch(r'"[0-9a-f]{16}-\d+-[01]"', etag), etag
    status, again, body = client.conditional_get(path, etag)
    assert status == 304
    assert again == etag
    assert body == b""


def test_stale_etag_gets_a_full_response(daemon):
    _service, client = daemon
    status, etag, body = client.conditional_get(
        "/profiles", '"0000000000000000-0-0"')
    assert status == 200 and body
    assert etag is not None


def test_live_routes_are_not_etagged(daemon):
    _service, client = daemon
    for path in ("/status", "/metrics", "/healthz"):
        status, etag, body = client.conditional_get(path, '"whatever"')
        assert status == 200 and body
        assert etag is None


def test_etag_moves_with_ingest_and_finalize():
    """The validator must change whenever the served bytes can: per
    ingested day and again at finalization."""
    from repro.service.handlers import ServiceApi

    service = StudyService(seed=SEED, scale=SMOKE,
                           telemetry=create_telemetry())
    api = ServiceApi(service)

    def get(headers=None):
        status, _ctype, _body, out = api.handle(
            "GET", "/digest", {}, headers=headers or {})
        return status, out.get("ETag")

    _status, before = get()
    assert get(({"If-None-Match": before}))[0] == 304
    service.ingest_days(1)
    status, after_day = get({"If-None-Match": before})
    assert status == 200 and after_day != before
    service.ingest_days(None)           # drain the study; auto-finalizes
    assert service.finalized
    status, final = get({"If-None-Match": after_day})
    assert status == 200 and final not in (before, after_day)
    assert get({"If-None-Match": final})[0] == 304


def test_cache_counter_tracks_hits_and_misses(daemon):
    _service, client = daemon
    status, etag, _body = client.conditional_get("/c2")
    assert status == 200
    assert client.conditional_get("/c2", etag)[0] == 304
    text = client.metrics()
    hits = re.search(
        r'service_cache_total\{result="hit"\} (\d+)', text)
    misses = re.search(
        r'service_cache_total\{result="miss"\} (\d+)', text)
    assert hits and int(hits.group(1)) >= 1
    assert misses and int(misses.group(1)) >= 1


def test_conditional_get_carries_the_error_text(daemon):
    _service, client = daemon
    with pytest.raises(ServiceError) as excinfo:
        client.conditional_get("/profiles/" + "f" * 64)
    assert excinfo.value.status == 404
    assert "no profile for sha256" in excinfo.value.message


def test_read_racing_an_ingest_waits_for_it(monkeypatch):
    """An ingest that starts while /c2 is being built waits for the
    read: the read answers 200, with the bytes its etag names."""
    import repro.service.handlers as handlers
    from repro.service.handlers import ServiceApi

    service = StudyService(seed=SEED, scale=SMOKE,
                           config=PipelineConfig(study_days=60))
    service.ingest_days(30)
    c2s = len(service.runner.datasets.d_c2s)
    ingest = threading.Thread(target=service.ingest_days, args=(None,))
    waited = []
    build = handlers.c2_doc

    def racing_c2_doc(record):
        if not waited:
            ingest.start()
            ingest.join(timeout=0.5)
            waited.append(ingest.is_alive())
        return build(record)

    monkeypatch.setattr(handlers, "c2_doc", racing_c2_doc)
    status, _ctype, body, headers = ServiceApi(service).handle(
        "GET", "/c2", {})
    ingest.join(timeout=60)
    assert not ingest.is_alive()
    assert waited == [True]
    assert status == 200
    assert json.loads(body)["total"] == c2s
    assert headers["ETag"] == f'"{service.fingerprint[:16]}-30-0"'
    assert service.finalized


def test_reads_under_concurrent_ingest_stay_consistent():
    """More reader threads than cores, on a short switch interval, while
    the study ingests day by day: every read answers 200, and one etag
    never names two different bodies."""
    import sys
    import time

    from repro.service.handlers import ServiceApi

    service = StudyService(seed=SEED, scale=SMOKE,
                           config=PipelineConfig(study_days=40))
    api = ServiceApi(service)
    done = threading.Event()
    bodies: dict = {}
    problems: list = []

    def read():
        while not done.is_set():
            for path in ("/rules", "/c2", "/alerts", "/profiles"):
                status, _ctype, body, headers = api.handle("GET", path, {})
                if status != 200:
                    problems.append((path, status, body[:120]))
                elif bodies.setdefault((path, headers["ETag"]), body) \
                        != body:
                    problems.append((path, headers["ETag"]))

    readers = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for reader in readers:
            reader.start()
        while not service.finalized:
            service.ingest_days(1)
            time.sleep(0.001)   # let the readers in between days
    finally:
        done.set()
        sys.setswitchinterval(interval)
        for reader in readers:
            reader.join(timeout=60)
    assert not any(reader.is_alive() for reader in readers)
    assert problems == []
    assert len({etag for _path, etag in bodies}) > 2


def _raw_request(port: int, head: str, body: bytes = b"",
                 half_close: bool = True) -> bytes:
    """Send bytes as they are, half-close unless told not to, and return
    the reply up to the server's EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head.replace("\n", "\r\n").encode() + body)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


def test_untrusted_request_bodies_are_refused_undispatched():
    service = StudyService(seed=SEED, scale=SMOKE,
                           config=PipelineConfig(study_days=5))
    server = build_server(service)
    thread = threading.Thread(target=serve_forever, args=(server, service),
                              daemon=True)
    thread.start()
    port = server.server_address[1]

    def ingest(length: str, body: bytes = b"") -> int:
        return int(_raw_request(port, (
            "POST /ingest/day HTTP/1.1\nHost: test\nConnection: close\n"
            f"Content-Length: {length}\n\n"), body).split(b" ", 2)[1])

    try:
        assert ingest("abc") == 400
        assert ingest("-1", b"{}") == 400
        assert ingest("100", b"{}") == 400      # the body ended early
        assert ingest(str(10**9)) == 413
        for days in (b"true", b"1.9", b'"1.9"', b"[1]"):
            body = b'{"days": ' + days + b"}"
            assert ingest(str(len(body)), body) == 400, days
        assert service.runner.next_day == 0
        # on a kept-alive connection a refusal also hangs up, so a valid
        # request pipelined behind the unread body is never parsed
        valid = b'{"days": 1}'
        for length, status in (("abc", b"400"), (str(10**9), b"413")):
            reply = _raw_request(port, (
                "POST /ingest/day HTTP/1.1\nHost: test\n"
                f"Content-Length: {length}\n\n"
                "POST /ingest/day HTTP/1.1\nHost: test\n"
                f"Content-Length: {len(valid)}\n\n"), valid,
                half_close=False)
            assert reply.split(b" ", 2)[1] == status
            assert reply.count(b"HTTP/1.1 ") == 1, reply
        assert service.runner.next_day == 0
        body = b'{"days": 2}'
        assert ingest(str(len(body)), body) == 200
        assert service.runner.next_day == 2
    finally:
        server.shutdown()
        thread.join(timeout=10)


def test_connection_refused_raises_service_error():
    client = StudyClient("http://127.0.0.1:9", timeout=2)
    with pytest.raises(ServiceError) as excinfo:
        client.healthz()
    assert excinfo.value.status == 0


def test_a_non_http_base_url_is_refused_at_construction():
    for url in ("https://127.0.0.1:8321", "127.0.0.1:8321", "http://"):
        with pytest.raises(ValueError):
            StudyClient(url)


# -- keep-alive ---------------------------------------------------------------


@contextlib.contextmanager
def _serving(service: StudyService, port: int = 0):
    """The daemon lifecycle on a thread; stopped (bounded) on exit."""
    server = build_server(service, port=port)
    thread = threading.Thread(target=serve_forever, args=(server, service),
                              daemon=True)
    thread.start()
    try:
        yield server, thread
    finally:
        server.shutdown()
        thread.join(timeout=10)


def _short_study() -> StudyService:
    return StudyService(seed=SEED, scale=SMOKE,
                        config=PipelineConfig(study_days=5))


def _url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}"


def _local_port(client: StudyClient) -> int:
    return client._conn.sock.getsockname()[1]


def _handler_threads(before: set) -> list:
    """Request-handler threads started since ``before``, each given a
    bounded join first."""
    threads = [thread for thread in threading.enumerate()
               if thread not in before
               and "process_request_thread" in thread.name]
    for thread in threads:
        thread.join(timeout=10)
    return threads


def test_one_connection_carries_every_request(daemon):
    """Keep-alive plus TCP_NODELAY: 21 requests, one local port, and a
    median far below the ~40 ms a delayed ACK costs with Nagle on."""
    _service, shared = daemon
    ports, seconds = set(), []
    with StudyClient(shared.base_url) as client:
        for _ in range(21):
            start = time.perf_counter()
            client.status()
            seconds.append(time.perf_counter() - start)
            ports.add(_local_port(client))
    assert len(ports) == 1
    assert statistics.median(seconds) < 0.020, seconds


def test_a_restarted_daemon_is_reached_through_one_reconnect():
    first = _short_study()
    with _serving(first) as (server, _thread):
        port = server.server_address[1]
        client = StudyClient(_url(server))
        assert client.ingest(1)["next_day"] == 1
        before = _local_port(client)
    second = _short_study()         # no checkpoints: it starts at day 0
    with _serving(second, port=port), client:
        assert client.status()["next_day"] == 0
        assert _local_port(client) != before


def _patch_send(monkeypatch, server, drop) -> list:
    """Make the server's handler hang up without a reply whenever
    ``drop(handler)`` says so; returns the log of (command, path)
    dispatched."""
    handler = server.RequestHandlerClass
    send = handler._send
    dispatched = []

    def maybe_drop(self, *response):
        dispatched.append((self.command, self.path))
        if drop(self):
            self.close_connection = True
        else:
            send(self, *response)

    monkeypatch.setattr(handler, "_send", maybe_drop)
    return dispatched


def test_a_dropped_post_is_never_resent(monkeypatch):
    service = _short_study()
    with _serving(service) as (server, _thread), \
            StudyClient(_url(server)) as client:
        client.status()             # the POST goes on a reused connection
        _patch_send(monkeypatch, server, lambda h: h.command == "POST")
        with pytest.raises(ServiceError) as excinfo:
            client.ingest(1)
        assert excinfo.value.status == 0
        assert "not resent" in excinfo.value.message
        assert service.runner.next_day == 1    # applied once, not twice


def test_a_dropped_get_is_retried_once(monkeypatch):
    with _serving(_short_study()) as (server, _thread), \
            StudyClient(_url(server)) as client:
        client.healthz()
        drops = []
        dispatched = _patch_send(monkeypatch, server,
                                 lambda h: bool(drops and drops.pop()))
        drops[:] = [True]
        assert client.status()["next_day"] == 0
        assert dispatched == [("GET", "/status")] * 2
        drops[:] = [True, True]
        with pytest.raises(ServiceError) as excinfo:
            client.status()
        assert excinfo.value.status == 0
        assert dispatched == [("GET", "/status")] * 4


def test_no_request_is_dispatched_after_serve_forever_returns():
    service = _short_study()
    before = set(threading.enumerate())
    with _serving(service) as (server, thread), \
            StudyClient(_url(server)) as client:
        client.status()             # a kept-alive connection, now idle
        server.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        with pytest.raises(ServiceError) as excinfo:
            client.ingest(1)
        assert excinfo.value.status == 0
    assert service.runner.next_day == 0
    assert not any(t.is_alive() for t in _handler_threads(before))


def test_a_request_in_flight_at_shutdown_gets_its_whole_reply(
        monkeypatch):
    before = set(threading.enumerate())
    with _serving(_short_study()) as (server, thread):
        api = server.RequestHandlerClass.api
        with StudyClient(_url(server)) as client:
            expected = client._request("GET", "/c2")[2]
        handle = api.handle
        entered = threading.Event()

        def slow_handle(*args, **kwargs):
            entered.set()
            time.sleep(0.5)
            return handle(*args, **kwargs)

        monkeypatch.setattr(api, "handle", slow_handle)
        replies = []

        def read():
            with StudyClient(_url(server)) as client:
                replies.append(client._request("GET", "/c2"))

        reader = threading.Thread(target=read)
        reader.start()
        assert entered.wait(timeout=10)
        server.shutdown()
        thread.join(timeout=10)
        reader.join(timeout=10)
        assert not thread.is_alive() and not reader.is_alive()
    status, _headers, body = replies[0]
    assert status == 200
    assert body == expected
    assert not any(t.is_alive() for t in _handler_threads(before))


def test_a_shut_down_server_frees_its_study():
    """The server owns its ServiceApi and the handler class reaches it
    through a weak proxy, so once a server is shut down, closed and
    dropped, reference counting alone frees the study it served."""
    gc.collect()
    gc.disable()
    try:
        before = set(threading.enumerate())
        service = _short_study()
        server = build_server(service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05})
        thread.start()
        try:
            api = server.RequestHandlerClass.api.handle.__self__
            assert isinstance(api, ServiceApi) and api.service is service
            del api
            with StudyClient(_url(server)) as client:
                assert client.status()["next_day"] == 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not any(t.is_alive() for t in _handler_threads(before))
        refs = [weakref.ref(service), weakref.ref(service.runner),
                weakref.ref(service.runner.world)]
        del service, server, thread
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
