"""Test-only oracle: the linear route scan ``match_route`` used to be.

This is the text of ``repro.web.routes._Route.match`` and
``repro.web.routes.match_route`` as they stood before routing became a
lookup in a dict built once from ``API_ROUTES``, kept verbatim (the
method as a function of the route) so that the tests can require the
same route, the same bound sid and the same 404 / 405 for every method
and path.
"""

from __future__ import annotations

from repro.web.routes import API_ROUTES, _HttpError


def route_match(route, segments: list) -> tuple[bool, str | None]:
    """(path matched, bound sid); the method is the caller's to compare
    (a path that exists under another method is a 405, not a 404)."""
    if len(segments) != len(route.pattern):
        return False, None
    sid = None
    for want, got in zip(route.pattern, segments):
        if want == "{sid}":
            sid = got
        elif want != got:
            return False, None
    return True, sid


def linear_match_route(method: str, path: str):
    """Match ``method`` + ``path`` against :data:`API_ROUTES`, route by route."""
    segments = [s for s in path.split("/") if s]
    if segments[:2] != ["api", "v1"]:
        raise _HttpError(404, "not_found", f"no route {path}")
    rest = segments[2:]
    path_matched = False
    for route in API_ROUTES:
        matched, sid = route_match(route, rest)
        if matched and route.method == method:
            return sid, route
        path_matched = path_matched or matched
    if path_matched:
        raise _HttpError(405, "method_not_allowed",
                         f"method {method} not allowed for {path}")
    raise _HttpError(404, "not_found", f"no route {path}")
