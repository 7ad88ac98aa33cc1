"""The dispatcher's HTTP status surface (stdlib ``http.server``).

A tiny scrape/status endpoint so a running Falkon deployment can be
observed *while tasks flow* — no dependencies, no framework:

==========================  ================================================
``GET /metrics``            Prometheus text exposition (``render_prometheus``)
``GET /status``             JSON snapshot: typed dispatcher stats, derived
                            cluster gauges, per-executor telemetry table
``GET /tasks/<id>``         the task's span chain from the SpanCollector
``GET /dlq``                the dead-letter queue (quarantined tasks)
``GET /dlq/<id>``           one quarantined task's entry
``POST /dlq/<id>/retry``    re-queue a quarantined task (``repro dlq retry``)
``GET /healthz``            liveness + health: JSON ``status`` and
                            ``degraded`` reasons, plus shard identity when
                            a health callable is wired
``GET /fleet``              merged multi-shard status (federation router)
``POST /debug/dump``        flush the flight recorder to a dump file
==========================  ================================================

The server is deliberately decoupled from the dispatcher: it is built
from three callables (metrics text, status dict, task chain), so tests
and other components can stand one up against fakes.  Requests are
served by a :class:`ThreadingHTTPServer` on daemon threads; a slow
scraper never touches the dispatch path.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional

from repro.net.wire import dumps

__all__ = ["StatusServer"]

#: Prometheus text exposition content type.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class StatusServer:
    """Serve ``/metrics``, ``/status`` and ``/tasks/<id>`` over HTTP."""

    def __init__(
        self,
        metrics_text: Callable[[], str],
        status: Callable[[], dict],
        task: Callable[[str], Optional[list[dict]]],
        host: str = "127.0.0.1",
        port: int = 0,
        dlq: Optional[Callable[[], list[dict]]] = None,
        dlq_entry: Optional[Callable[[str], Optional[dict]]] = None,
        dlq_retry: Optional[Callable[[str], bool]] = None,
        healthz: Optional[Callable[[], dict]] = None,
        fleet: Optional[Callable[[], dict]] = None,
        debug_dump: Optional[Callable[[str], str]] = None,
    ) -> None:
        self._metrics_text = metrics_text
        self._status = status
        self._task = task
        self._dlq = dlq
        self._dlq_entry = dlq_entry
        self._dlq_retry = dlq_retry
        self._healthz = healthz
        self._fleet = fleet
        self._debug_dump = debug_dump
        server = self

        class _Handler(BaseHTTPRequestHandler):
            # One status line per request in a test log is pure noise.
            def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A002
                pass

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                try:
                    server._route(self)
                except BrokenPipeError:
                    pass  # scraper went away mid-response
                except Exception as exc:  # a handler bug must answer, not hang
                    try:
                        server._reply_json(self, 500, {"error": f"{type(exc).__name__}: {exc}"})
                    except Exception:
                        pass

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                try:
                    server._route_post(self)
                except BrokenPipeError:
                    pass
                except Exception as exc:
                    try:
                        server._reply_json(self, 500, {"error": f"{type(exc).__name__}: {exc}"})
                    except Exception:
                        pass

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"obs-http-{self.port}",
            daemon=True,
        )
        self._thread.start()
        self._closed = False

    # -- routing -------------------------------------------------------------
    def _route(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            body = self._metrics_text().encode("utf-8")
            handler.send_response(200)
            handler.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
            return
        if path == "/status":
            self._reply_json(handler, 200, self._status())
            return
        if path.startswith("/tasks/"):
            task_id = path[len("/tasks/"):]
            chain = self._task(task_id) if task_id else None
            if not chain:
                self._reply_json(
                    handler, 404, {"error": f"no trace recorded for task {task_id!r}"}
                )
                return
            self._reply_json(
                handler, 200,
                {"task_id": task_id, "spans": chain},
            )
            return
        if path == "/dlq" and self._dlq is not None:
            self._reply_json(handler, 200, {"dlq": self._dlq()})
            return
        if path.startswith("/dlq/") and self._dlq_entry is not None:
            task_id = path[len("/dlq/"):]
            entry = self._dlq_entry(task_id) if task_id else None
            if entry is None:
                self._reply_json(
                    handler, 404, {"error": f"task {task_id!r} is not in the DLQ"}
                )
                return
            self._reply_json(handler, 200, entry)
            return
        if path == "/healthz":
            health = (self._healthz() if self._healthz is not None
                      else {"status": "ok", "degraded": []})
            self._reply_json(handler, 200, health)
            return
        if path == "/fleet" and self._fleet is not None:
            self._reply_json(handler, 200, self._fleet())
            return
        endpoints = ["/metrics", "/status", "/tasks/<id>", "/dlq",
                     "/dlq/<id>", "/healthz"]
        if self._fleet is not None:
            endpoints.append("/fleet")
        self._reply_json(
            handler, 404,
            {"error": f"unknown path {path!r}", "endpoints": endpoints},
        )

    def _route_post(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0].rstrip("/") or "/"
        if (path.startswith("/dlq/") and path.endswith("/retry")
                and self._dlq_retry is not None):
            task_id = path[len("/dlq/"):-len("/retry")]
            if task_id and self._dlq_retry(task_id):
                self._reply_json(handler, 200, {"task_id": task_id, "requeued": True})
            else:
                self._reply_json(
                    handler, 404, {"error": f"task {task_id!r} is not in the DLQ"}
                )
            return
        if path == "/debug/dump" and self._debug_dump is not None:
            # Query string may carry a reason tag: POST /debug/dump?reason=x
            query = handler.path.split("?", 1)
            reason = "debug"
            if len(query) == 2:
                for part in query[1].split("&"):
                    if part.startswith("reason="):
                        reason = part[len("reason="):] or "debug"
            dump_path = self._debug_dump(reason)
            self._reply_json(handler, 200, {"dumped": dump_path, "reason": reason})
            return
        endpoints = ["/dlq/<id>/retry"]
        if self._debug_dump is not None:
            endpoints.append("/debug/dump")
        self._reply_json(
            handler, 404,
            {"error": f"unknown POST path {path!r}", "endpoints": endpoints},
        )

    @staticmethod
    def _reply_json(handler: BaseHTTPRequestHandler, code: int, payload: dict) -> None:
        # Strict JSON for any consumer (curl | jq, browsers): the codec
        # writes NaN and ±Inf as null, never as bare NaN tokens.
        body = dumps(payload, sort_keys=True)
        handler.send_response(code)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    # -- lifecycle -----------------------------------------------------------
    def url(self, path: str = "/status") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "StatusServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "serving"
        return f"<StatusServer {self.host}:{self.port} {state}>"
