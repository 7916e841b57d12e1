"""The serving layer's wire protocol: JSON-serializable requests/responses.

Every exchange between a :class:`~repro.server.service.Client` and a
:class:`~repro.server.service.Server` is a plain dict that survives
``json.dumps``/``json.loads`` unchanged — the in-process client is the
degenerate transport, but nothing in the protocol assumes shared
memory, so a socket front end can reuse it verbatim.  The shape:

Request::

    {"v": 1, "op": "query", "tenant": "analytics",
     "session": "s3", "params": {"query": "conf[P](T)"}}

Response::

    {"ok": true, "result": {...}, "elapsed": 0.0021}
    {"ok": false, "error": {"code": "quota-exceeded", "message": "..."}}

Operations: ``open_session`` / ``close_session`` (control — never
queued), ``query``, ``confidence_all``, ``evaluate_with_guarantee``,
``explain`` (compute — admitted through the fair-share scheduler), and
``stats`` (control).

**Value encoding.**  Engine results carry exact rationals and tuples;
JSON has neither.  :func:`encode_value` tags them —
``{"$frac": [num, den]}`` and ``{"$tuple": [...]}`` — and
:func:`decode_value` restores them exactly, so a client sees the same
``Fraction(1, 3)`` and row tuples a direct :class:`ProbDB` call
returns.  Floats ride JSON's own round-trippable repr.  This exactness
is what lets the soak tests assert *bit-identical* answers through the
whole protocol stack.

**Errors are typed.**  Server-side failures come back as an ``error``
object whose ``code`` maps to a :class:`ServerError` subclass;
:func:`result_or_raise` re-raises the same type client-side, so
callers handle ``QuotaExceededError`` / ``AdmissionTimeoutError``
structurally instead of string-matching messages.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "PROTOCOL_VERSION",
    "CONTROL_OPS",
    "COMPUTE_OPS",
    "OPS",
    "ServerError",
    "ProtocolError",
    "QuotaExceededError",
    "AdmissionTimeoutError",
    "UnknownSessionError",
    "SessionClosedError",
    "ServerClosedError",
    "QueryError",
    "request",
    "validate_request",
    "ok_response",
    "error_response",
    "result_or_raise",
    "encode_value",
    "decode_value",
    "encode_rows",
    "decode_rows",
    "encode_report",
    "encode_driver_report",
    "encode_topk_report",
]

PROTOCOL_VERSION = 1

CONTROL_OPS = frozenset({"open_session", "close_session", "stats"})
COMPUTE_OPS = frozenset(
    {"query", "confidence_all", "evaluate_with_guarantee", "explain", "topk"}
)
OPS = CONTROL_OPS | COMPUTE_OPS


# --------------------------------------------------------------------- errors
class ServerError(Exception):
    """Base of the typed error taxonomy; ``code`` is the wire identity."""

    code = "server-error"


class ProtocolError(ServerError):
    """Malformed request: unknown op, missing field, wrong loop."""

    code = "protocol-error"


class QuotaExceededError(ServerError):
    """Admission control rejected the request: the tenant's queue is full."""

    code = "quota-exceeded"


class AdmissionTimeoutError(ServerError):
    """The request waited in the tenant queue past the admission timeout."""

    code = "admission-timeout"


class UnknownSessionError(ServerError):
    """The request names a session this server has never opened."""

    code = "unknown-session"


class SessionClosedError(ServerError):
    """The session was closed while the request was still queued."""

    code = "session-closed"


class ServerClosedError(ServerError):
    """The server is shut down and takes no further requests."""

    code = "server-closed"


class QueryError(ServerError):
    """The engine rejected or failed the query itself (parse/schema/...)."""

    code = "query-error"


_ERRORS_BY_CODE = {
    cls.code: cls
    for cls in (
        ServerError,
        ProtocolError,
        QuotaExceededError,
        AdmissionTimeoutError,
        UnknownSessionError,
        SessionClosedError,
        ServerClosedError,
        QueryError,
    )
}


# ----------------------------------------------------------- value encoding
_FRAC = "$frac"
_TUPLE = "$tuple"


def encode_value(value):
    """Lower an engine value into JSON-safe primitives (lossless)."""
    if isinstance(value, Fraction):
        return {_FRAC: [int(value.numerator), int(value.denominator)]}
    if isinstance(value, tuple):
        return {_TUPLE: [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ProtocolError(f"value of type {type(value).__name__} is not protocol-encodable")


def decode_value(value):
    """Invert :func:`encode_value` exactly."""
    if isinstance(value, dict):
        if set(value) == {_FRAC}:
            num, den = value[_FRAC]
            return Fraction(num, den)
        if set(value) == {_TUPLE}:
            return tuple(decode_value(v) for v in value[_TUPLE])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def encode_rows(rows) -> list:
    """Encode a deterministically-ordered sequence of data tuples."""
    return [encode_value(row) for row in rows]


def decode_rows(rows) -> list[tuple]:
    return [decode_value(row) for row in rows]


def encode_report(report) -> dict:
    """A :class:`~repro.confidence.strategies.ConfidenceReport`, losslessly.

    ``lower``/``upper`` carry the guaranteed dissociation bound interval
    (exact Fractions, encoded like the value) when the method produced
    one, ``None`` otherwise.
    """
    return {
        "value": encode_value(report.value),
        "strategy": report.strategy,
        "method": report.method,
        "exact": report.exact,
        "samples": report.samples,
        "eps": report.eps,
        "delta": report.delta,
        "lower": encode_value(report.lower),
        "upper": encode_value(report.upper),
    }


def encode_topk_report(report) -> dict:
    """A :class:`~repro.core.topk.TopKReport`, losslessly.

    Entry values and bounds keep their exactness across the wire (exact
    Fractions ride the ``$frac`` tag, sampled floats ride JSON's repr),
    so a client-side decode compares bit-identical to a direct
    ``ProbDB.topk`` call — the property the cross-worker determinism
    tests assert through the whole stack.
    """
    return {
        "k": report.k,
        "eps": report.eps,
        "delta": report.delta,
        "entries": [
            {
                "row": encode_value(entry.row),
                "value": encode_value(entry.value),
                "lower": encode_value(entry.lower),
                "upper": encode_value(entry.upper),
                "exact": entry.exact,
                "trials": entry.trials,
                "source": entry.source,
            }
            for entry in report.entries
        ],
        "candidates": report.candidates,
        "bounds_decided": report.bounds_decided,
        "sampled": report.sampled,
        "rounds": report.rounds,
        "total_trials": report.total_trials,
        "full_trials": report.full_trials,
    }


def encode_driver_report(report) -> dict:
    """The JSON-safe core of a :class:`~repro.core.driver.DriverReport`.

    Rows, per-row membership bounds, and the driver's audit counters —
    everything the soak tests compare bit-for-bit.  Bounds are keyed by
    U-rows ``(condition, data tuple)``; the condition crosses the wire
    as its (deterministic) repr — enough to audit and compare, while
    the condition *objects* stay server-side.
    """
    return {
        "rows": encode_rows(sorted(report.relation.possible_tuples().rows, key=repr)),
        "tuple_bounds": [
            [repr(cond), encode_value(values), bound]
            for (cond, values), bound in sorted(
                report.tuple_bounds.items(), key=lambda kv: repr(kv[0])
            )
        ],
        "singular_rows": [
            [repr(cond), encode_value(values)]
            for cond, values in sorted(report.singular_rows, key=repr)
        ],
        "rounds": report.rounds,
        "evaluations": report.evaluations,
        "achieved": report.achieved,
        "delta": report.delta,
        "eps0": report.eps0,
        "bounds_certified": report.bounds_certified,
    }


# -------------------------------------------------------- request / response
def request(op: str, tenant: str, session: str | None = None, params: dict | None = None) -> dict:
    """Build a protocol request dict."""
    req = {"v": PROTOCOL_VERSION, "op": op, "tenant": tenant}
    if session is not None:
        req["session"] = session
    if params:
        req["params"] = params
    return req


def validate_request(req) -> dict:
    """Check shape and op; raises :class:`ProtocolError` on malformed input."""
    if not isinstance(req, dict):
        raise ProtocolError(f"request must be a dict, got {type(req).__name__}")
    if req.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {req.get('v')!r}")
    op = req.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {sorted(OPS)}")
    tenant = req.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("request needs a non-empty string tenant")
    if op in COMPUTE_OPS or op == "close_session":
        if not isinstance(req.get("session"), str):
            raise ProtocolError(f"op {op!r} needs a session id")
    return req


def ok_response(result, elapsed: float | None = None) -> dict:
    response = {"ok": True, "result": result}
    if elapsed is not None:
        response["elapsed"] = elapsed
    return response


def error_response(exc: ServerError) -> dict:
    return {"ok": False, "error": {"code": exc.code, "message": str(exc)}}


def result_or_raise(response: dict):
    """The response's result — or the re-raised typed server error."""
    if response.get("ok"):
        return response.get("result")
    error = response.get("error") or {}
    cls = _ERRORS_BY_CODE.get(error.get("code"), ServerError)
    raise cls(error.get("message", "server error"))
