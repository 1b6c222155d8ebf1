"""The service's structured error envelope.

Every failure a client can see is a :class:`ServiceError` rendered as
one JSON object (the nistoar ``jsonerr`` idiom): an HTTP status, a
short title, a human-readable detail, and the *origin* — the layer the
denial or failure actually came from.  A permission denial surfaces
with ``origin="repro.host.permissions"`` because that is literally the
module that raised it: the service never re-implements the POSIX
check, it propagates the chardev gate's own error.
"""

from __future__ import annotations

from repro.errors import ReproError


class ServiceError(ReproError):
    """A request that could not be served, with its HTTP rendering."""

    status = 500
    title = "Internal Server Error"
    #: The layer the failure originated in (module path); subclasses
    #: with a fixed origin set it as a class attribute.
    origin = "repro.service"

    def __init__(self, detail: str = "", origin: str | None = None):
        super().__init__(detail or self.title)
        self.detail = detail or self.title
        if origin is not None:
            self.origin = origin

    def envelope(self) -> dict:
        """The one JSON shape every error response carries."""
        return {
            "error": {
                "status": self.status,
                "title": self.title,
                "detail": self.detail,
                "origin": self.origin,
            }
        }


class BadRequest(ServiceError):
    """Malformed query: unknown table, bad parameter, inverted window."""

    status = 400
    title = "Bad Request"


class Unauthorized(ServiceError):
    """The request named a tenant the registry does not know."""

    status = 401
    title = "Unauthorized"
    origin = "repro.service.auth"


class Forbidden(ServiceError):
    """The tenant's credentials failed a POSIX permission gate.

    Raised by the app when :class:`~repro.errors.AccessDeniedError`
    propagates out of a mechanism read — the origin is the host
    permission layer, not the service.
    """

    status = 403
    title = "Forbidden"
    origin = "repro.host.permissions"


class NotFound(ServiceError):
    """No such endpoint, mechanism, or resource."""

    status = 404
    title = "Not Found"


class MethodNotAllowed(ServiceError):
    """The endpoint exists but not for this HTTP method (GET only)."""

    status = 405
    title = "Method Not Allowed"


class Unavailable(ServiceError):
    """A dependency is dark: shards under the service's fault plan, or a
    service booted without the resource the endpoint needs."""

    status = 503
    title = "Service Unavailable"
