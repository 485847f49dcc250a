"""Fuzz the ``repro.stream/v1`` event-log reader and the delta codec.

Both decode untrusted input: an event log may come from any file, and
``SnapshotDelta.from_json`` also decodes the serve API's session deltas.
Whatever the bytes, the reader must either parse the log or raise
:class:`~repro.errors.EventLogFormatError` naming the offending line —
never a bare ``AttributeError``/``OverflowError``/... from deep inside
the codec. Inputs are arbitrary JSON values, valid records with a few
values replaced or keys deleted, raw text and raw bytes.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import EventLogFormatError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.pipeline.cache import encode_graph
from repro.stream import EventLog, SnapshotDelta, read_event_log
from repro.stream.events import EVENT_LOG_FORMAT
from repro.types import NodeState


def _valid_records():
    graph = SignedDiGraph(name="fuzz")
    graph.add_edge(1, "b", 1, 0.5)
    graph.add_edge("b", 3, -1, 0.25)
    graph.set_state(1, NodeState.POSITIVE)
    graph.set_state("b", NodeState.NEGATIVE)
    snapshot = {"type": "snapshot", "format": EVENT_LOG_FORMAT, "graph": encode_graph(graph)}
    delta = SnapshotDelta(
        states={3: NodeState.NEGATIVE, "d": NodeState.POSITIVE},
        add_edges=[(3, "d", -1, 0.75)],
        remove_edges=[(1, "b")],
        remove_nodes=["b"],
    ).to_json()
    return [snapshot, delta]


VALID_RECORDS = _valid_records()

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and ±inf included: json.dumps writes them, json.loads reads them
    | st.text(max_size=8)
    | st.sampled_from(["i", "s", "snapshot", "delta", EVENT_LOG_FORMAT]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)


def _paths(value, prefix=()):
    """Every position inside a JSON value, as a key/index path."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


def _edit(value, path, new=None, delete=False):
    """A copy of ``value`` with the item at ``path`` replaced or deleted."""
    if len(path) == 1 and delete:
        copy = dict(value) if isinstance(value, dict) else list(value)
        del copy[path[0]]
        return copy
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _edit(value[path[0]], path[1:], new, delete)
    return copy


@st.composite
def mutated_records(draw):
    record = draw(st.sampled_from(VALID_RECORDS))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(list(_paths(record))))
        if path and draw(st.booleans()):
            record = _edit(record, path, delete=True)
        else:
            record = _edit(record, path, new=draw(json_values))
    return record


records = st.sampled_from(VALID_RECORDS) | mutated_records() | json_values
lines = records.map(json.dumps) | st.text(max_size=40)


def _read(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        path.write_bytes(data)
        return read_event_log(path)


def _assert_parses_or_format_error(data: bytes) -> None:
    try:
        log = _read(data)
    except EventLogFormatError as exc:
        assert exc.line_number is not None
    else:
        assert isinstance(log, EventLog)


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(st.lists(lines, min_size=1, max_size=4))
@example(['{"type":"snapshot","graph":[]}'])
@example(['{"type":"delta","remove_nodes":[["i",Infinity]]}'])
@FUZZ
def test_event_log_lines_parse_or_raise_format_error(log_lines):
    data = "\n".join(log_lines).encode("utf-8", errors="surrogatepass")
    _assert_parses_or_format_error(data)


@given(st.lists(st.binary(max_size=40), min_size=1, max_size=4))
@example([b'{"type":"delta"}', b"\xff"])
@FUZZ
def test_event_log_bytes_parse_or_raise_format_error(chunks):
    _assert_parses_or_format_error(b"\n".join(chunks))


@given(mutated_records() | json_values)
@example([])
@example({"states": [[["i", float("inf")], 1]]})
@FUZZ
def test_delta_from_json_parses_or_raises_format_error(payload):
    try:
        delta = SnapshotDelta.from_json(payload)
    except EventLogFormatError:
        pass
    else:
        assert isinstance(delta, SnapshotDelta)
        # Whatever decoded re-encodes: node ids are int/str, states valid.
        SnapshotDelta.from_json(json.loads(json.dumps(delta.to_json())))
