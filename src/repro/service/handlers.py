"""Route table of the query API.

:class:`ServiceApi` maps ``(method, path, query, body)`` to a
``(status, content_type, body_bytes)`` triple; it knows nothing about
sockets, so tests can exercise every route without binding a port.  The
HTTP plumbing in :mod:`repro.service.server` is a thin adapter around
:meth:`ServiceApi.handle`.

Routes::

    GET  /                  route index
    GET  /healthz           liveness probe
    GET  /status            study progress + manifest document
    GET  /digest            canonical dataset digest (byte-identity oracle)
    GET  /profiles          profile summaries (?day=N, ?limit=N)
    GET  /profiles/<sha256> one full binary profile (404 on unknown hash)
    GET  /c2                D-C2s records
    GET  /c2/lifespans      C2 lifespan CDFs (ip + dns, Figure 6)
    GET  /summary/ddos      D-DDOS rollup (Figure 10/11 inputs)
    GET  /summary/exploits  measured Table 4 rows
    GET  /alerts            the monitoring alert feed (?since=DAY)
    GET  /rules             firewall rule feed, text/plain
                            (?technology=..., ?since=DAY)
    GET  /metrics           Prometheus exposition of the live registry
    POST /ingest/day        ingest N more feed days (?days=N | "all")
    POST /finalize          TI re-query + probing (idempotent)

Every JSON error body is ``{"error": ...}``; the request counter
``service_requests_total{route,code}`` uses the route *patterns* above,
so cardinality stays bounded no matter how many hashes are queried.

The read-mostly artifact routes (:data:`CACHEABLE_ROUTES`) are
ETag-validated: responses carry an ``ETag`` derived from (study
fingerprint, days ingested, finalized) — see
:meth:`StudyService.etag <repro.service.server.StudyService.etag>` —
and a request presenting it back via ``If-None-Match`` is answered
``304 Not Modified`` with an empty body *before* the handler runs, so
a revalidation costs neither serialization nor dataset traversal.
``service_cache_total{result=hit|miss}`` counts both outcomes.

``?since=DAY`` keeps the alerts and the rules first shipped on day
``DAY`` or later (finalize's rules carry ``total_days``).  No route
compiles rules: the service compiles them once per ingested day.
"""

from __future__ import annotations

import json

from ..core.c2_analysis import lifetime_cdf
from ..core.ddos_analysis import (attacks_per_family, protocol_distribution,
                                  type_by_family)
from ..core.exploit_analysis import table4
from ..core.firewall import RuleBundle
from ..core.monitor import alerts
from ..obs.exporters import to_prometheus
from .serialization import (alert_doc, c2_doc, cdf_doc, ddos_doc, encode,
                            exploit_usage_doc, profile_doc)

__all__ = ["CACHEABLE_ROUTES", "ServiceApi", "RULE_TECHNOLOGIES"]

RULE_TECHNOLOGIES = ("iptables", "dnsmasq", "snort")

#: route patterns whose responses are pure functions of the service
#: etag — everything derived from the datasets, nothing live like
#: /status (progress) or /metrics (counters move on every request)
CACHEABLE_ROUTES = frozenset({
    "/digest", "/profiles", "/profiles/:sha256", "/c2", "/c2/lifespans",
    "/summary/ddos", "/summary/exploits", "/alerts", "/rules",
})

_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"


def _error(status: int, message: str) -> tuple[int, str, bytes]:
    return status, _JSON, encode({"error": message})


def _since(query) -> int | None:
    """``?since=DAY`` (0 when absent), or None when it is no integer."""
    try:
        return int(query.get("since", 0))
    except ValueError:
        return None


class ServiceApi:
    """Socket-free request dispatch over one :class:`StudyService`."""

    def __init__(self, service):
        self.service = service
        self._requests = service.telemetry.metrics.counter(
            "service_requests_total",
            "query API requests by route pattern and status code",
            labelnames=("route", "code"))
        self._cache = service.telemetry.metrics.counter(
            "service_cache_total",
            "ETag revalidations on cacheable routes: hit = 304 served "
            "without running the handler, miss = full response built",
            labelnames=("result",))

    # -- dispatch ----------------------------------------------------------

    @staticmethod
    def _route_pattern(path: str) -> str:
        """The bounded-cardinality route pattern for a concrete path."""
        parts = [p for p in path.split("/") if p]
        if len(parts) == 2 and parts[0] == "profiles":
            return "/profiles/:sha256"
        return "/" + "/".join(parts) if parts else "/"

    def handle(self, method: str, path: str, query: dict,
               body: bytes = b"", headers: dict | None = None,
               ) -> tuple[int, str, bytes, dict]:
        """One request in, ``(status, content_type, body, headers)`` out.

        ``query`` maps parameter names to their *last* value (plain
        strings, not lists); ``headers`` are the request headers (only
        ``If-None-Match`` is consulted).  Never raises: unexpected
        handler failures become a 500 with the exception text.

        A cacheable GET samples the etag and builds its body inside one
        ``service.lock`` section: an ingest racing the read waits for
        it, so the tag always names the bytes served.
        """
        path = "/" + path.strip("/")
        pattern = self._route_pattern(path)
        if method != "GET" or pattern not in CACHEABLE_ROUTES:
            return self._respond(method, path, query, body, None)
        with self.service.lock:
            etag = self.service.etag()
            if headers and headers.get("If-None-Match") == etag:
                self._cache.labels(result="hit").inc()
                self._requests.labels(route=pattern, code="304").inc()
                return 304, _JSON, b"", {"ETag": etag}
            self._cache.labels(result="miss").inc()
            return self._respond(method, path, query, body, etag)

    def _respond(self, method, path, query, body, etag):
        route, (status, content_type, payload) = self._dispatch(
            method, path, query, body)
        self._requests.labels(route=route, code=str(status)).inc()
        tagged = etag is not None and status == 200
        return status, content_type, payload, {"ETag": etag} if tagged else {}

    def _dispatch(self, method, path, query, body):
        path = "/" + path.strip("/")
        parts = [p for p in path.split("/") if p]
        try:
            if path == "/":
                return "/", self._get_only(method, self._index)
            if path == "/healthz":
                return path, self._get_only(method, self._healthz)
            if path == "/status":
                return path, self._get_only(method, self._status)
            if path == "/digest":
                return path, self._get_only(method, self._digest)
            if path == "/profiles":
                return path, self._get_only(
                    method, lambda: self._profiles(query))
            if len(parts) == 2 and parts[0] == "profiles":
                return "/profiles/:sha256", self._get_only(
                    method, lambda: self._profile(parts[1]))
            if path == "/c2":
                return path, self._get_only(method, self._c2)
            if path == "/c2/lifespans":
                return path, self._get_only(method, self._lifespans)
            if path == "/summary/ddos":
                return path, self._get_only(method, self._ddos_summary)
            if path == "/summary/exploits":
                return path, self._get_only(method, self._exploit_summary)
            if path == "/alerts":
                return path, self._get_only(
                    method, lambda: self._alerts(query))
            if path == "/rules":
                return path, self._get_only(
                    method, lambda: self._rules(query))
            if path == "/metrics":
                return path, self._get_only(method, self._metrics)
            if path == "/ingest/day":
                if method != "POST":
                    return path, _error(405, "POST required")
                return path, self._ingest(query, body)
            if path == "/finalize":
                if method != "POST":
                    return path, _error(405, "POST required")
                return path, self._finalize()
            return "<unknown>", _error(404, f"no such route: {path}")
        except Exception as exc:  # handler bug -> 500, server stays up
            return path or "/", _error(
                500, f"{type(exc).__name__}: {exc}")

    @staticmethod
    def _get_only(method, handler):
        if method != "GET":
            return _error(405, "GET required")
        return handler()

    # -- GET routes --------------------------------------------------------

    def _index(self):
        return 200, _JSON, encode({
            "service": "repro study service",
            "routes": [
                "GET /healthz", "GET /status", "GET /digest",
                "GET /profiles?day=N&limit=N", "GET /profiles/<sha256>",
                "GET /c2", "GET /c2/lifespans",
                "GET /summary/ddos", "GET /summary/exploits",
                "GET /alerts?since=DAY",
                "GET /rules?technology=" + "|".join(RULE_TECHNOLOGIES)
                + "&since=DAY",
                "GET /metrics",
                "POST /ingest/day?days=N|all", "POST /finalize",
            ],
        })

    def _healthz(self):
        return 200, _JSON, encode({"ok": True})

    def _status(self):
        return 200, _JSON, encode(self.service.status())

    def _digest(self):
        return 200, _JSON, encode({
            "dataset_digest": self.service.digest(),
            "finalized": self.service.finalized,
        })

    def _profiles(self, query):
        day = query.get("day")
        limit = query.get("limit")
        try:
            day = None if day is None else int(day)
            limit = None if limit is None else int(limit)
        except ValueError:
            return _error(400, "day and limit must be integers")
        profiles = self.service.datasets().profiles
        if day is not None:
            profiles = [p for p in profiles if p.day == day]
        total = len(profiles)
        if limit is not None:
            profiles = profiles[:max(0, limit)]
        return 200, _JSON, encode({
            "total": total,
            "returned": len(profiles),
            "profiles": [
                {
                    "sha256": p.sha256, "day": p.day,
                    "family_label": p.family_label,
                    "c2_endpoint": p.c2_endpoint,
                    "exploits": len(p.exploits),
                    "attacks": len(p.attacks),
                    "quarantined": p.quarantined,
                }
                for p in profiles
            ],
        })

    def _profile(self, sha256):
        profile = self.service.datasets().profile_by_sha256(sha256)
        if profile is None:
            return _error(404, f"no profile for sha256 {sha256}")
        return 200, _JSON, encode(profile_doc(profile))

    def _c2(self):
        datasets = self.service.datasets()
        return 200, _JSON, encode({
            "total": len(datasets.d_c2s),
            "c2s": [c2_doc(r) for r in datasets.d_c2s.values()],
        })

    def _lifespans(self):
        datasets = self.service.datasets()
        return 200, _JSON, encode({
            "ip": cdf_doc(lifetime_cdf(datasets, dns=False)),
            "dns": cdf_doc(lifetime_cdf(datasets, dns=True)),
        })

    def _ddos_summary(self):
        datasets = self.service.datasets()
        return 200, _JSON, encode({
            "total_commands": len(datasets.d_ddos),
            "protocol_distribution": protocol_distribution(datasets),
            "attacks_per_family": attacks_per_family(datasets),
            "type_by_family": [
                {"family": family, "attack_type": kind, "count": count}
                for (family, kind), count
                in sorted(type_by_family(datasets).items())
            ],
            "commands": [ddos_doc(r) for r in datasets.d_ddos],
        })

    def _exploit_summary(self):
        datasets = self.service.datasets()
        return 200, _JSON, encode({
            "exploited_samples": datasets.exploit_sample_count(),
            "vulnerabilities": [exploit_usage_doc(u)
                                for u in table4(datasets)],
        })

    def _alerts(self, query):
        if (since := _since(query)) is None:
            return _error(400, "since must be an integer")
        found = alerts(self.service.datasets().profiles, since)
        return 200, _JSON, encode({
            "total": len(found),
            "alerts": [alert_doc(alert) for alert in found],
        })

    def _rules(self, query):
        technology = query.get("technology")
        if technology in (None, "", "all"):
            technology = None
        elif technology not in RULE_TECHNOLOGIES:
            return _error(
                400, f"technology must be one of "
                     f"{', '.join(RULE_TECHNOLOGIES)} or all")
        if (since := _since(query)) is None:
            return _error(400, "since must be an integer")
        bundle = self.service.rules
        if since:
            days = self.service.rule_days
            bundle = RuleBundle([rule for rule in bundle.rules
                                 if days[rule.technology, rule.text] >= since])
        text = bundle.render(technology)
        return 200, _TEXT, (text + "\n" if text else "").encode()

    def _metrics(self):
        text = to_prometheus(self.service.telemetry.metrics)
        return 200, _TEXT, text.encode()

    # -- POST routes -------------------------------------------------------

    def _ingest(self, query, body):
        days = query.get("days")
        if days is None and body:
            try:
                days = json.loads(body.decode() or "null")
            except ValueError:
                return _error(400, "body must be JSON")
            if isinstance(days, dict):
                days = days.get("days")
        if days in (None, ""):
            days = 1
        if days != "all":
            if isinstance(days, str) and days.isascii() and days.isdigit():
                days = int(days)
            if type(days) is not int:   # rejects true and 1.9 as well
                return _error(400, 'days must be an integer or "all"')
            if days < 1:
                return _error(400, "days must be >= 1")
        if self.service.pipeline_done:
            return _error(
                409, "all study days already ingested; POST /finalize")
        result = self.service.ingest_days(
            None if days == "all" else days)
        return 200, _JSON, encode(result)

    def _finalize(self):
        if not self.service.pipeline_done:
            return _error(
                409, f"{self.service.remaining_days} study days still "
                     "pending; ingest them first")
        return 200, _JSON, encode(self.service.finalize())
