"""Stdlib client for the query API, used by ``repro query`` and tests.

A thin, dependency-free wrapper over one kept-alive
:class:`http.client.HTTPConnection`: every method maps to exactly one
route, JSON bodies are decoded, text routes (``/rules``, ``/metrics``)
come back as strings, and any non-2xx response raises
:class:`ServiceError` carrying the status code and the server's decoded
error body.

The connection opens on the first request and serves every later one
until the server answers ``Connection: close`` (the next request then
opens a fresh one) or :meth:`StudyClient.close` is called; use the
client as a context manager to close it.  A server may drop an idle
kept-alive connection (a restart, say), which the next request sees as
a reset or an EOF before any response.  A GET is then resent once on a
fresh connection.  A POST is never resent, because ``/ingest/day`` may
already have been applied: it raises ``ServiceError(0, ...)`` and the
caller reads ``/status`` to see what landed.  One client holds one
connection, so use one client per thread.  The ``http_proxy``
environment variable is not consulted: the client always connects to
the host in its base URL.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse

__all__ = ["ServiceError", "StudyClient"]

#: how a request fails on a kept-alive connection that the server
#: dropped while it sat idle: an EOF or a reset where the response was due
_DROPPED = (http.client.RemoteDisconnected, ConnectionResetError,
            BrokenPipeError)


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
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"not an http:// service URL: {base_url!r}")
        self._path = split.path
        self._conn = http.client.HTTPConnection(
            split.hostname, split.port, timeout=timeout)

    def close(self) -> None:
        """Close the kept-alive connection (a later request reopens one)."""
        self._conn.close()

    def __enter__(self) -> StudyClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _exchange(self, method: str, target: str, headers: dict):
        self._conn.request(method, target, headers=headers,
                           body=b"" if method == "POST" else None)
        response = self._conn.getresponse()
        return response, response.read()

    def _request(self, method: str, path: str, params: dict | None = None,
                 headers: dict | None = None):
        """The one request path: ``(status, response headers, body)``.

        A ``304`` (only a conditional GET can earn one) comes back with
        an empty body; any other non-2xx raises :class:`ServiceError`
        with the server's ``{"error": ...}`` text.
        """
        if params:
            clean = {k: v for k, v in params.items() if v is not None}
            if clean:
                path += "?" + urllib.parse.urlencode(clean)
        url = self.base_url + path
        target = self._path + path
        headers = headers or {}
        reused = self._conn.sock is not None
        try:
            try:
                response, body = self._exchange(method, target, headers)
            except _DROPPED:
                self._conn.close()
                if not reused:
                    raise
                if method != "GET":
                    raise ServiceError(
                        0, f"{method} {url}: the connection dropped before "
                           "a response; not resent, as it may have been "
                           "applied") from None
                response, body = self._exchange(method, target, headers)
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            raise ServiceError(0, f"cannot reach {url}: {exc}") from None
        if 200 <= response.status < 300 or response.status == 304:
            return response.status, response.headers, body
        try:
            message = json.loads(body.decode()).get("error", "")
        except (ValueError, AttributeError):
            message = body.decode(errors="replace")
        raise ServiceError(response.status, message or response.reason)

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
