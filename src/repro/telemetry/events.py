"""Structured JSON event log: canonical lines over stdlib ``logging``.

Every event is one canonical-JSON object (``repro.utils.canonical``) on
one line, so the sink files are greppable, diffable and machine-parsed
without a schema registry.  Each :class:`EventLog` writes

* to a JSONL **file sink** shared append-only by every process of one
  server (supervisor API workers and sim-pool workers all write the
  same file, next to the run store; O_APPEND line writes keep records
  intact), which ``GET /api/logs`` reads back with :func:`read_events`,
* and, optionally, to stderr (``repro serve --verbose``).

It keeps nothing in memory: the file is the one record every process
sees.

The log is deliberately the *only* module in ``repro/serving`` +
``repro/telemetry`` allowed to talk to :mod:`logging` or a terminal —
the ``OBS001`` lint rule pins everything else to this funnel.

Canonical record shape (every event, extra fields allowed)::

    {"event": "job_claimed", "ts": 1754..., "pid": 4711,
     "proc": "sim-0", "trace": "9f2c4b1a6d03e857", ...}

``trace`` carries the request's correlation id (see
:mod:`repro.telemetry.tracing2`) whenever the emitting code knows it.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from collections import deque
from pathlib import Path

from repro.utils.canonical import canonical_dumps

__all__ = [
    "EventLog",
    "LOGGER_PREFIX",
    "events_path_for",
    "read_events",
]

#: instance loggers are named ``repro.events.<proc>``.
LOGGER_PREFIX = "repro.events"

#: hard bound on one serialized event line the file reader will accept.
MAX_LINE_BYTES = 64 * 1024


def events_path_for(store_path: str | os.PathLike | None) -> str | None:
    """The event-log sink that pairs with a run store file.

    ``runs.sqlite`` -> ``runs.sqlite.events.jsonl`` next to it, so the
    log travels with the store it describes; no store, no sink.
    """
    if store_path is None:
        return None
    return str(store_path) + ".events.jsonl"


class EventLog:
    """One process's writer to the shared JSONL sink (and stderr)."""

    def __init__(
        self, proc: str, path: str | os.PathLike, *, echo: bool = False
    ) -> None:
        self.proc = proc
        self.path = str(path)
        # An instance-owned Logger (not logging.getLogger): handlers never
        # accumulate across instances sharing a name, which test suites
        # and respawned workers otherwise would.
        self._logger = logging.Logger(f"{LOGGER_PREFIX}.{proc}")
        self._logger.propagate = False
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # delay=True: the file appears on the first event, not on
        # construction — idle workers leave no empty sink behind.
        self._logger.addHandler(logging.FileHandler(self.path, delay=True))
        if echo:
            self._logger.addHandler(logging.StreamHandler(sys.stderr))

    # ---------------------------------------------------------------- emit
    def emit(self, event: str, *, trace: str | None = None, **fields) -> dict:
        """Record one event; returns the canonical record dict."""
        record = dict(fields)
        record["event"] = event
        record["ts"] = round(time.time(), 6)
        record["pid"] = os.getpid()
        record["proc"] = self.proc
        if trace:
            record["trace"] = trace
        self._logger.info("%s", canonical_dumps(record))
        return record

    def close(self) -> None:
        for handler in list(self._logger.handlers):
            self._logger.removeHandler(handler)
            handler.close()


def read_events(
    path: str | os.PathLike,
    *,
    trace: str | None = None,
    event: str | None = None,
    limit: int = 200,
) -> list[dict]:
    """Newest matching events from a JSONL sink, oldest first.

    Bounded: keeps at most ``limit`` records while scanning, skips
    malformed or oversized lines (a torn write from a dying process must
    not take the API endpoint down), returns ``[]`` for a missing file.
    """
    out: deque[dict] = deque(maxlen=max(1, int(limit)))
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError:
        return []
    with fh:
        for line in fh:
            if len(line) > MAX_LINE_BYTES:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if trace is not None and record.get("trace") != trace:
                continue
            if event is not None and record.get("event") != event:
                continue
            out.append(record)
    return list(out)
