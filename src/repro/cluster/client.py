"""Thin stdlib HTTP client for peer ``repro serve`` workers.

Every call returns ``(status, payload)`` for HTTP-level responses (4xx
and 5xx included — the coordinator's retry policy wants the status, not
an exception).  ``payload`` is the decoded JSON object, except for a
result served as result-file lines (``Content-Type:
text/tab-separated-values``), which comes back as the raw bytes.  A call
raises :class:`WorkerUnreachable` only for
transport-level failures: connection refused, timeouts, DNS errors.
``refused`` distinguishes an actively-dead peer (connection refused —
the process is gone, no point waiting out a heartbeat timeout) from a
silent one.
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.error
import urllib.request
from typing import Any

from repro.chaos import net as chaos_net

__all__ = ["WorkerClient", "WorkerUnreachable"]

_TSV = "text/tab-separated-values"


class WorkerUnreachable(ConnectionError):
    """Transport-level failure talking to a worker."""

    def __init__(self, worker: str, why: str, refused: bool = False):
        super().__init__(f"worker {worker}: {why}")
        self.worker = worker
        self.why = why
        #: connection actively refused — the process is down *now*
        self.refused = refused


class WorkerClient:
    """HTTP access to one worker's job/slice API."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict[str, Any] | bytes]:
        data = json.dumps(body).encode() if body is not None else None

        def _send() -> tuple[int, dict[str, Any] | bytes]:
            req = urllib.request.Request(
                self.base_url + path, data=data, method=method,
                headers={"Content-Type": "application/json"} if data else {},
            )
            try:
                with urllib.request.urlopen(
                    req, timeout=self.timeout
                ) as resp:
                    raw = resp.read()
                    if resp.headers.get_content_type() == _TSV:
                        return resp.status, raw
                    return resp.status, json.loads(raw or b"{}")
            except urllib.error.HTTPError as exc:
                try:
                    payload = json.loads(exc.read() or b"{}")
                except json.JSONDecodeError:
                    payload = {"error": "unparseable error body"}
                return exc.code, payload
            except urllib.error.URLError as exc:
                refused = isinstance(exc.reason, ConnectionRefusedError)
                raise WorkerUnreachable(
                    self.base_url, repr(exc.reason), refused=refused
                ) from exc
            except (TimeoutError, socket.timeout, ConnectionError,
                    http.client.HTTPException) as exc:
                refused = isinstance(exc, ConnectionRefusedError)
                raise WorkerUnreachable(
                    self.base_url, repr(exc), refused=refused
                ) from exc

        if not chaos_net.is_active():
            return _send()
        # fault-injection seam: injected resets/timeouts surface exactly
        # like their transport-level counterparts would
        try:
            return chaos_net.apply(self.base_url, method, path, _send)
        except WorkerUnreachable:
            raise
        except (TimeoutError, ConnectionError) as exc:
            raise WorkerUnreachable(
                self.base_url, repr(exc),
                refused=isinstance(exc, ConnectionRefusedError),
            ) from exc

    # -- convenience wrappers ---------------------------------------------

    def healthy(self) -> bool:
        status, _ = self.request("GET", "/healthz")
        return status == 200

    def submit_slice(
        self, slice_payload: dict, coordinator_id: str
    ) -> tuple[int, dict]:
        return self.request(
            "POST", "/slices",
            {"slice": slice_payload, "coordinator": coordinator_id},
        )

    def job_status(
        self, job_id: str, wait: float = 0.0
    ) -> tuple[int, dict]:
        """The job's status; ``wait`` > 0 lets the worker hold the reply
        up to that many seconds for the job to reach a terminal state."""
        return self.request(
            "GET", f"/jobs/{job_id}", {"wait": wait} if wait > 0 else None
        )

    def job_result_tsv(self, job_id: str) -> tuple[int, dict | bytes]:
        """A finished job's bicliques as result-file bytes (a JSON error
        object instead on any non-200 reply)."""
        return self.request(
            "GET", f"/jobs/{job_id}/result", {"format": "tsv"}
        )

    def cancel_job(self, job_id: str) -> tuple[int, dict]:
        return self.request("POST", f"/jobs/{job_id}/cancel")
