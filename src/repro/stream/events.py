"""The replayable JSONL event-log format (``repro.stream/v1``).

One JSON object per line. The first line may be a full ``snapshot``
record (the initial infected network); every following line is a
``delta`` record:

.. code-block:: text

    {"type": "snapshot", "format": "repro.stream/v1", "graph": {...}}
    {"type": "delta", "states": [[["i", 7], -1]], "add_edges": [], ...}
    {"type": "delta", ...}

Graphs are encoded with the artifact-cache codec
(:func:`repro.pipeline.cache.encode_graph`) and deltas with
:meth:`~repro.stream.delta.SnapshotDelta.to_json`, so a log is
self-contained: ``repro.detect_stream("events.jsonl")`` replays it with
no other input. Node identifiers must be int or str (the same
restriction as the on-disk artifact store).

Logs without a snapshot record are valid — the caller then supplies the
initial network separately (``detect_stream(events, graph=...)``).
Malformed lines raise :class:`~repro.errors.EventLogFormatError` with
the offending line number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.errors import EventLogFormatError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.pipeline.cache import decode_graph, encode_graph
from repro.stream.delta import SnapshotDelta

#: Format tag stamped on snapshot records; readers accept only this.
EVENT_LOG_FORMAT = "repro.stream/v1"


@dataclass
class EventLog:
    """A parsed event log: optional initial snapshot plus ordered deltas."""

    snapshot: Optional[SignedDiGraph] = None
    deltas: List[SnapshotDelta] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.deltas)


def write_event_log(
    path: Union[str, Path],
    deltas: Iterable[SnapshotDelta],
    snapshot: Optional[SignedDiGraph] = None,
) -> int:
    """Write a snapshot (optional) plus ``deltas`` as JSONL; returns the
    number of delta records written.

    Raises:
        CacheCodecError: when a node identifier is not int or str.
    """
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        if snapshot is not None:
            record = {
                "type": "snapshot",
                "format": EVENT_LOG_FORMAT,
                "graph": encode_graph(snapshot),
            }
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        for delta in deltas:
            handle.write(json.dumps(delta.to_json(), separators=(",", ":")) + "\n")
            count += 1
    return count


def read_event_log(path: Union[str, Path]) -> EventLog:
    """Parse a JSONL event log written by :func:`write_event_log`.

    Raises:
        EventLogFormatError: on a line that is not UTF-8 JSON, a record
            that is not an object, an unknown record type, a snapshot
            record that is not the first line, an unsupported format
            tag, or a snapshot/delta record with malformed fields.
    """
    log = EventLog()
    with Path(path).open("rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise EventLogFormatError(f"invalid UTF-8: {exc}", line_number) from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # RecursionError: nesting deeper than the JSON decoder's stack.
                raise EventLogFormatError(f"invalid JSON: {exc}", line_number) from None
            if not isinstance(record, dict):
                raise EventLogFormatError(
                    f"expected an object, got {type(record).__name__}", line_number
                )
            kind = record.get("type")
            if kind == "snapshot":
                if log.snapshot is not None or log.deltas:
                    raise EventLogFormatError(
                        "snapshot record must be the first line", line_number
                    )
                fmt = record.get("format", EVENT_LOG_FORMAT)
                if fmt != EVENT_LOG_FORMAT:
                    raise EventLogFormatError(
                        f"unsupported event-log format {fmt!r} "
                        f"(this reader speaks {EVENT_LOG_FORMAT!r})",
                        line_number,
                    )
                graph = record.get("graph")
                if not isinstance(graph, dict):
                    raise EventLogFormatError(
                        "snapshot graph must be a JSON object, "
                        f"got {type(graph).__name__}",
                        line_number,
                    )
                try:
                    log.snapshot = decode_graph(graph)
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise EventLogFormatError(
                        f"bad snapshot record: {exc}", line_number
                    ) from None
            elif kind == "delta":
                try:
                    log.deltas.append(SnapshotDelta.from_json(record))
                except EventLogFormatError as exc:
                    raise EventLogFormatError(
                        f"bad delta record: {exc}", line_number
                    ) from None
            else:
                raise EventLogFormatError(
                    f"unknown record type {kind!r}", line_number
                )
    return log
