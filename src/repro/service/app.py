"""The WSGI application and its in-process client.

:class:`ServiceApp` is a plain WSGI callable — pure stdlib, no
framework — so the same object serves three ways:

* in-process through :class:`ServiceClient` (tests, benches, CI smoke);
* under ``wsgiref`` via :func:`serve` (``python -m repro serve``);
* under any production WSGI container, unchanged.

The app owns cross-cutting concerns only: tenant authentication,
error-to-envelope rendering, and the ``repro_service_*`` request
metrics.  Everything endpoint-shaped lives in
:mod:`repro.service.routes`; everything POSIX-shaped happens further
down, at the mechanism and store layers the handlers call into.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Iterable
from urllib.parse import parse_qs, urlencode

from repro.chaos.faults import FaultPlan
from repro.errors import AccessDeniedError, ConfigError
from repro.obs.instruments import (
    SERVICE_DENIALS,
    SERVICE_REQUEST_SECONDS,
    SERVICE_REQUESTS,
)
from repro.service.auth import TENANT_HEADER, Tenant, TenantRegistry
from repro.service.errors import BadRequest, Forbidden, ServiceError
from repro.service.routes import JsonText, Request, resolve
from repro.store.engine import ShardedStore

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4; charset=utf-8"  # Prometheus exposition
_NDJSON = "application/x-ndjson"

_REASONS = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
            403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
            500: "Internal Server Error", 503: "Service Unavailable"}


class ServiceApp:
    """The live monitoring query service over one sharded store.

    Parameters
    ----------
    store:
        The :class:`~repro.store.ShardedStore` queries execute against.
    tenants:
        A :class:`~repro.service.auth.TenantRegistry` (defaults to the
        root + hpcuser pair).
    backends:
        mechanism name -> live backend, for the credentialed
        ``/v2/mech/<name>/read`` endpoint.
    clock:
        Optional virtual clock; ``now()`` feeds fault-plan windows and
        default read times.
    pump:
        Optional callable run between streaming-tail polls — rigs wired
        to a simulated machine advance its event queue here so streams
        observe sweeps landing.
    fleet:
        Optional :class:`~repro.store.FederatedStore`.  When present,
        ``/v2/query/aggregate`` scatter-gathers across the fleet's
        sites (prefixes follow the ``site/location`` convention and
        ``rollup=1`` folds partials into one fleet-wide series); every
        other endpoint keeps serving ``store``.

    Attributes
    ----------
    fault_plan:
        The :class:`~repro.chaos.faults.FaultPlan` this service's
        crossings suffer, ``None`` (the default) for none: its
        ``mechanism="store"`` rules take shards dark (``/health``
        degrades, aggregates over a dark shard 503, streams emit gap
        markers), and ``/v2/mech/<name>/read`` reads under it.  It may
        be swapped between requests and between stream polls.
    """

    def __init__(self, store: ShardedStore,
                 tenants: TenantRegistry | None = None,
                 backends: dict | None = None,
                 clock=None,
                 pump: Callable[[int], None] | None = None,
                 fleet=None):
        self.store = store
        self.tenants = tenants if tenants is not None else TenantRegistry()
        self.backends = dict(backends) if backends else {}
        self.clock = clock
        self.pump = pump
        self.fleet = fleet
        self.fault_plan: FaultPlan | None = None

    def now(self) -> float:
        return float(self.clock.now) if self.clock is not None else 0.0

    # -- WSGI -----------------------------------------------------------------

    def __call__(self, environ: dict, start_response) -> Iterable[bytes]:
        started = time.perf_counter()
        request = Request(
            method=environ.get("REQUEST_METHOD", "GET"),
            path=environ.get("PATH_INFO") or "/",
            params=parse_qs(environ.get("QUERY_STRING", "")),
        )
        endpoint = request.path
        try:
            request.tenant = self.tenants.authenticate(environ)
            endpoint, handler = resolve(request)
            result = handler(self)
            status, payload, content_type = self._render(result)
        except ServiceError as exc:
            status, payload, content_type = exc.status, exc.envelope(), _JSON
        except AccessDeniedError as exc:
            # The POSIX layer denied the tenant — render it, origin and
            # all, and count the denial against the tenant.
            tenant = request.tenant.name if request.tenant else "unknown"
            SERVICE_DENIALS.labels(tenant).inc()
            forbidden = Forbidden(str(exc))
            status, payload, content_type = 403, forbidden.envelope(), _JSON
        except ConfigError as exc:
            status, payload, content_type = 400, BadRequest(
                str(exc)).envelope(), _JSON

        SERVICE_REQUESTS.labels(endpoint, str(status)).inc()
        SERVICE_REQUEST_SECONDS.labels(endpoint).observe(
            time.perf_counter() - started)
        reason = _REASONS.get(status, "Unknown")
        start_response(f"{status} {reason}",
                       [("Content-Type", content_type)])
        if isinstance(payload, (dict, list)):
            return [json.dumps(payload, sort_keys=True).encode()]
        if isinstance(payload, str):
            return [payload.encode()]
        return (line.encode() for line in payload)  # streaming iterator

    @staticmethod
    def _render(result):
        """Normalize a handler's return into (status, payload, type)."""
        status = 200
        if isinstance(result, tuple):
            result, status = result
        if isinstance(result, (dict, list, JsonText)):
            return status, result, _JSON
        if isinstance(result, str):
            return status, result, _TEXT
        return status, result, _NDJSON


class ClientResponse:
    """One in-process response: status, headers, body accessors."""

    def __init__(self, status: int, headers: dict, chunks: Iterable[bytes]):
        self.status = status
        self.headers = headers
        self._chunks = chunks
        self._body: bytes | None = None

    @property
    def body(self) -> bytes:
        if self._body is None:
            self._body = b"".join(self._chunks)
        return self._body

    def json(self):
        return json.loads(self.body.decode())

    def lines(self):
        """Parsed NDJSON objects, consumed lazily from the stream."""
        buffer = b""
        for chunk in self._chunks:
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line.strip():
                    yield json.loads(line.decode())
        if buffer.strip():
            yield json.loads(buffer.decode())


class ServiceClient:
    """Drive a :class:`ServiceApp` without sockets — the client the
    tests, the CI smoke and the load generator share."""

    def __init__(self, app: ServiceApp):
        self.app = app

    def get(self, path: str, params: dict | None = None,
            tenant: str | None = None) -> ClientResponse:
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": path,
            "QUERY_STRING": urlencode(params or {}),
        }
        if tenant is not None:
            environ[TENANT_HEADER] = tenant
        captured: dict = {}

        def start_response(status_line: str, headers: list) -> None:
            captured["status"] = int(status_line.split(" ", 1)[0])
            captured["headers"] = dict(headers)

        chunks = self.app(environ, start_response)
        return ClientResponse(captured["status"], captured["headers"], chunks)


def service_for_machine(machine, tenants: TenantRegistry | None = None,
                        backends: dict | None = None,
                        pump_step_s: float | None = None) -> ServiceApp:
    """A :class:`ServiceApp` fronting one simulated BG/Q machine's
    envdb: store, clock and (optionally) a stream pump advancing the
    machine ``pump_step_s`` of virtual time per streaming poll."""
    pump = None
    if pump_step_s is not None:
        def pump(_poll: int, _machine=machine, _dt=float(pump_step_s)) -> None:
            _machine.advance_to(_machine.clock.now + _dt)
    return ServiceApp(machine.envdb.store, tenants=tenants,
                      backends=backends, clock=machine.clock, pump=pump)


def service_for_fleet(fleet, tenants: TenantRegistry | None = None,
                      backends: dict | None = None) -> ServiceApp:
    """A :class:`ServiceApp` fronting a :class:`~repro.fleet.Fleet`:
    aggregates scatter-gather across every site's store while the
    single-store endpoints serve the first site (sorted order) — the
    fleet shares one schema, so table listings and plans agree."""
    first = fleet.site(fleet.site_names[0])
    return ServiceApp(first.store, tenants=tenants, backends=backends,
                      clock=first.machine.clock, fleet=fleet.federation)


def serve(app: ServiceApp, host: str = "127.0.0.1",
          port: int = 8340) -> None:  # pragma: no cover - needs a socket
    """Serve under wsgiref (the ``python -m repro serve`` entry)."""
    from wsgiref.simple_server import make_server

    with make_server(host, port, app) as httpd:
        print(f"repro.service listening on http://{host}:{port} "
              f"(tenants: {', '.join(app.tenants.names())})")
        httpd.serve_forever()


__all__ = [
    "ClientResponse",
    "ServiceApp",
    "ServiceClient",
    "Tenant",
    "serve",
    "service_for_fleet",
    "service_for_machine",
]
