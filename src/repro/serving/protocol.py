"""Newline-delimited JSON wire protocol for the serving control plane.

One request or response per line: a single JSON object in the canonical
spelling (:func:`~repro.serving.metrics.canonical_json` — sorted keys,
minimal separators) followed by ``b"\\n"``. Canonical encoding makes the
wire itself deterministic: the same request stream produces the same
response *bytes*, which is what lets the service benchmark diff a
scripted client's transcript against the batch oracle.

Requests are ``{"op": <name>, ...}`` with ``op`` drawn from :data:`OPS`;
responses are ``{"op": <echoed name>, "status": ...}`` with ``status``
one of

- ``"ok"`` — the operation happened; op-specific fields ride along
  (``summary`` for ``metrics``, ``path`` for ``snapshot``, ...).
- ``"busy"`` — admission backpressure: the pending queue is full. The
  request was **not** enqueued; ``retry_after_cycles`` hints how far
  the simulation clock must advance before retrying is worthwhile.
- ``"error"`` — the request was malformed or impossible; ``message``
  says why. The connection stays up (an error is an answer, not a
  disconnect).

Sessions cross the wire as their full field dict
(:func:`session_to_wire` / :func:`session_from_wire`), so an admitted
session is byte-identical to the one a batch trace would carry.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, fields

from repro.errors import ServingError
from repro.serving.metrics import canonical_json
from repro.serving.workload import TenantSession

#: Every operation the control plane understands.
OPS = ("admit", "withdraw", "status", "metrics", "snapshot", "drain",
       "shutdown")

#: Hard cap on one wire line — a malformed client cannot balloon the
#: server's line buffer (1 MiB fits any fleet summary by ~3 orders).
MAX_LINE_BYTES = 1 << 20

_SESSION_FIELDS = tuple(f.name for f in fields(TenantSession))
_SESSION_REQUIRED = tuple(f.name for f in fields(TenantSession)
                          if f.default is MISSING
                          and f.default_factory is MISSING)


class ProtocolError(ServingError):
    """A malformed wire message (bad JSON, bad op, bad session dict)."""


# -- framing ---------------------------------------------------------------

def encode_message(message: dict) -> bytes:
    """One wire line: canonical JSON + newline."""
    if not isinstance(message, dict):
        raise ProtocolError(f"wire message must be a dict; got {message!r}")
    return canonical_json(message).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one wire line into a message dict (fail-fast)."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"wire line of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte cap")
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"bad wire JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"wire message must be a JSON object; got {message!r}")
    return message


# -- requests --------------------------------------------------------------

def request(op: str, **extra) -> dict:
    """A request message for ``op`` (validated against :data:`OPS`)."""
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {OPS}")
    return {"op": op, **extra}


# -- responses -------------------------------------------------------------

def ok_response(op: str, **extra) -> dict:
    return {"op": op, "status": "ok", **extra}


def busy_response(op: str, retry_after_cycles: int) -> dict:
    return {"op": op, "status": "busy",
            "retry_after_cycles": int(retry_after_cycles)}


def error_response(op: str, message: str) -> dict:
    return {"op": op, "status": "error", "message": str(message)}


# -- session marshalling ---------------------------------------------------

def session_to_wire(session: TenantSession) -> dict:
    """A session as its plain field dict (the admit payload)."""
    return asdict(session)


def session_from_wire(data: dict) -> TenantSession:
    """Rebuild a :class:`TenantSession` from an admit payload.

    Unknown keys are rejected naming them and missing required fields
    are rejected naming them — a malformed admission must fail at the
    protocol edge, not as a mid-simulation surprise.
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"session must be a dict; got {data!r}")
    unknown = sorted(set(data) - set(_SESSION_FIELDS))
    if unknown:
        raise ProtocolError(
            f"unknown session fields {unknown}; "
            f"choose from {_SESSION_FIELDS}")
    missing = sorted(set(_SESSION_REQUIRED) - set(data))
    if missing:
        raise ProtocolError(f"session is missing required fields {missing}")
    try:
        return TenantSession(**data)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad session {data!r}: {error}") from None
