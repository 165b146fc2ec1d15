"""Stdlib client for the query API, used by ``repro query`` and tests.

A thin, dependency-free wrapper over :mod:`urllib.request`: every
method maps to exactly one route, JSON bodies are decoded, text routes
(``/rules``, ``/metrics``) come back as strings, and any non-2xx
response raises :class:`ServiceError` carrying the status code and the
server's decoded error body.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request

__all__ = ["ServiceError", "StudyClient"]


class ServiceError(RuntimeError):
    """A non-2xx API response (or a transport failure)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}" if status
                         else message)
        self.status = status
        self.message = message


class StudyClient:
    """Client bound to one service base URL (e.g. ``http://127.0.0.1:8321``)."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str, params: dict | None = None,
                 headers: dict | None = None):
        """The one request path: ``(status, response headers, body)``.

        A ``304`` (only a conditional GET can earn one) comes back with
        an empty body; any other non-2xx raises :class:`ServiceError`
        with the server's ``{"error": ...}`` text.
        """
        url = self.base_url + path
        if params:
            clean = {k: v for k, v in params.items() if v is not None}
            if clean:
                url += "?" + urllib.parse.urlencode(clean)
        request = urllib.request.Request(
            url, method=method, headers=headers or {},
            data=b"" if method == "POST" else None)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return response.status, response.headers, response.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 304:
                return 304, exc.headers, b""
            body = exc.read()
            try:
                message = json.loads(body.decode()).get("error", "")
            except (ValueError, AttributeError):
                message = body.decode(errors="replace")
            raise ServiceError(exc.code, message or exc.reason) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {url}: {exc.reason}") \
                from None

    def conditional_get(self, path: str, etag: str | None = None,
                        ) -> tuple[int, str | None, bytes]:
        """GET with ETag revalidation: ``(status, etag, body)``.

        Pass the etag from a previous call; a ``304`` comes back with an
        empty body, meaning the cached copy is still byte-fresh.
        """
        status, headers, body = self._request(
            "GET", path, headers={"If-None-Match": etag} if etag else None)
        return status, headers.get("ETag"), body

    def _json(self, method: str, path: str, params: dict | None = None):
        return json.loads(self._request(method, path, params)[2].decode())

    def _text(self, path: str, params: dict | None = None) -> str:
        return self._request("GET", path, params)[2].decode()

    # -- routes ------------------------------------------------------------

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def status(self) -> dict:
        return self._json("GET", "/status")

    def digest(self) -> dict:
        return self._json("GET", "/digest")

    def profiles(self, day: int | None = None,
                 limit: int | None = None) -> dict:
        return self._json("GET", "/profiles", {"day": day, "limit": limit})

    def profile(self, sha256: str) -> dict:
        return self._json("GET", f"/profiles/{sha256}")

    def c2s(self) -> dict:
        return self._json("GET", "/c2")

    def lifespans(self) -> dict:
        return self._json("GET", "/c2/lifespans")

    def ddos_summary(self) -> dict:
        return self._json("GET", "/summary/ddos")

    def exploits_summary(self) -> dict:
        return self._json("GET", "/summary/exploits")

    def alerts(self, since: int | None = None) -> dict:
        return self._json("GET", "/alerts", {"since": since})

    def rules(self, technology: str | None = None,
              since: int | None = None) -> str:
        return self._text("/rules", {"technology": technology,
                                     "since": since})

    def metrics(self) -> str:
        return self._text("/metrics")

    def ingest(self, days: int | str = 1) -> dict:
        return self._json("POST", "/ingest/day", {"days": days})

    def finalize(self) -> dict:
        return self._json("POST", "/finalize")
