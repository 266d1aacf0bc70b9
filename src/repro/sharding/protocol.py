"""The pipe protocol's message tags, declared once.

Every message crossing a worker pipe is a qid-tagged tuple
``(tag, qid, payload)``; the tag strings used to be scattered literals
in :mod:`repro.sharding.pool`, :mod:`repro.sharding.worker`, and
:mod:`repro.sharding.engine`, which is exactly the stringly-typed drift
the ``site-catalog`` lint rule exists to prevent — a typo'd tag is a
request that times out instead of a NameError.  This module is the
single source of truth: code references the ``TAG_*`` constants, and
the lint rule reconciles both directions (no undeclared literals in
send/dispatch positions, no orphaned tags).

Request tags flow front -> worker; response tags flow back.  A worker
echoes the request tag on success, so the request tags double as
response tags; ``TAG_READY``/``TAG_BYE``/``TAG_ERROR`` only ever flow
worker -> front.
"""

from __future__ import annotations

# -- requests (front -> worker; echoed back on success) ----------------
TAG_PHASE1 = "phase1"
TAG_PHASE2 = "phase2"
TAG_REOPEN = "reopen"
TAG_PING = "ping"
TAG_SHUTDOWN = "shutdown"

# -- worker-originated responses ---------------------------------------
TAG_READY = "ready"
TAG_BYE = "bye"
TAG_ERROR = "error"

#: tag -> one-line description; the declared catalog the lint rule and
#: the DESIGN.md protocol table reconcile against.
TAGS: dict[str, str] = {
    TAG_PHASE1: "scatter one prepared phase-1 retrieval to the shard",
    TAG_PHASE2: "score one bucket of phase-2 candidates on the shard",
    TAG_REOPEN: "publish a fresh view of the shard directory",
    TAG_PING: "liveness probe; answers pid and document count",
    TAG_SHUTDOWN: "request a clean worker exit",
    TAG_READY: "startup handshake: the worker engine is serving",
    TAG_BYE: "acknowledgement of a shutdown request",
    TAG_ERROR: "per-request failure (the worker itself is healthy)",
}

#: Tags a front may send to a worker.
REQUEST_TAGS = frozenset(
    (TAG_PHASE1, TAG_PHASE2, TAG_REOPEN, TAG_PING, TAG_SHUTDOWN))
#: Tags a worker may send to the front.
RESPONSE_TAGS = frozenset(
    (TAG_PHASE1, TAG_PHASE2, TAG_REOPEN, TAG_PING, TAG_BYE,
     TAG_READY, TAG_ERROR))
