"""Unit tests for the span tracer and the merged Chrome-trace export."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.tracing import (
    NULL_SPAN,
    TraceContext,
    Tracer,
    current_context,
    current_tracer,
    root_span,
    span,
    write_chrome_trace,
)
from repro.simgpu.device import SimGpu
from repro.simgpu.trace import GpuTrace

pytestmark = pytest.mark.obs


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


# ----------------------------------------------------------------------
# span recording
# ----------------------------------------------------------------------
def test_nesting_sets_depth_and_parent():
    tracer = Tracer()
    with tracer.span("query") as q:
        with tracer.span("clean_cells") as c:
            with tracer.span("xshuffle_dedup") as x:
                pass
        with tracer.span("refine") as r:
            pass
    assert [s.name for s in tracer.spans] == [
        "query",
        "clean_cells",
        "xshuffle_dedup",
        "refine",
    ]
    assert (q.depth, c.depth, x.depth, r.depth) == (0, 1, 2, 1)
    assert c.parent is q and x.parent is c and r.parent is q
    assert q.parent is None


def test_span_durations_from_injected_clock():
    # epoch=0; spans: outer [1, 6], inner [2, 4]
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 4.0, 6.0]))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.start_s, outer.end_s) == (1.0, 6.0)
    assert inner.duration_s == pytest.approx(2.0)
    assert outer.duration_s == pytest.approx(5.0)


def test_span_attrs_initial_and_set_attr():
    tracer = Tracer()
    with tracer.span("query", {"k": 4}) as s:
        s.set_attr("candidates", 17)
    assert s.attrs == {"k": 4, "candidates": 17}


def test_out_of_order_close_raises():
    tracer = Tracer()
    a = tracer.span("a")
    b = tracer.span("b")
    a.__enter__()
    b.__enter__()
    with pytest.raises(ConfigError):
        a.__exit__(None, None, None)


def test_clear_resets_spans_and_stack():
    tracer = Tracer()
    with tracer.span("x"):
        pass
    tracer.clear()
    assert tracer.spans == []
    with tracer.span("y"):
        pass
    assert tracer.spans[0].depth == 0


def test_total_by_name_accumulates():
    tracer = Tracer(clock=_fake_clock([0.0, 0.0, 1.0, 2.0, 5.0]))
    with tracer.span("refine"):
        pass
    with tracer.span("refine"):
        pass
    assert tracer.total_by_name()["refine"] == pytest.approx(4.0)


# ----------------------------------------------------------------------
# the module-level span() hook
# ----------------------------------------------------------------------
def test_module_span_is_shared_noop_when_inactive():
    assert current_tracer() is None
    # identity: the inactive path allocates nothing per call
    assert span("ingest") is NULL_SPAN
    assert span("ingest") is span("clean_cells")
    with span("ingest") as s:
        s.set_attr("messages", 5)  # silently dropped


def test_activate_routes_module_span_and_restores():
    tracer = Tracer()
    with tracer.activate():
        assert current_tracer() is tracer
        with span("ingest", {"messages": 3}):
            pass
    assert current_tracer() is None
    assert span("after") is NULL_SPAN
    assert [s.name for s in tracer.spans] == ["ingest"]
    assert tracer.spans[0].attrs == {"messages": 3}


def test_activate_nests_and_restores_previous():
    outer, inner = Tracer(), Tracer()
    with outer.activate():
        with inner.activate():
            assert current_tracer() is inner
        assert current_tracer() is outer
    assert current_tracer() is None


# ----------------------------------------------------------------------
# root_span: one body whether tracing is on or off
# ----------------------------------------------------------------------
def test_root_span_without_tracer_is_the_null_span():
    assert root_span(None, "query", {"k": 4}) is NULL_SPAN
    with root_span(None, "query", parent="not even parsed") as sp:
        sp.set_attr("candidates", 7)  # silently dropped
    assert sp.traceparent is None
    assert sp.trace_id_hex is None
    assert current_tracer() is None


def test_root_span_activates_its_tracer_for_module_spans():
    tracer = Tracer()
    with root_span(tracer, "query", {"k": 4}) as sp:
        assert current_tracer() is tracer
        with span("sdist"):
            pass
    assert current_tracer() is None
    assert [s.name for s in tracer.spans] == ["query", "sdist"]
    assert tracer.spans[0].attrs == {"k": 4}
    assert tracer.spans[1].parent is sp
    assert sp.trace_id_hex == tracer.spans[1].trace_id_hex
    assert TraceContext.decode(sp.traceparent) == sp.context


def test_root_span_joins_a_parent_header():
    upstream, shard = Tracer(), Tracer()
    with upstream.span("router.epoch") as root:
        pass
    with root_span(shard, "query", parent=root.traceparent) as sp:
        pass
    assert sp.trace_id == root.trace_id
    assert sp.parent_span_id == root.span_id


def test_root_span_restores_the_previous_tracer_when_the_body_raises():
    outer, inner = Tracer(), Tracer()
    with outer.activate():
        with pytest.raises(RuntimeError):
            with root_span(inner, "failover"):
                raise RuntimeError("boom")
        assert current_tracer() is outer
    assert current_tracer() is None
    (failed,) = inner.spans
    assert failed.name == "failover" and failed.end_s >= failed.start_s
    assert not inner._stack


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
def test_to_chrome_events_shape():
    tracer = Tracer(clock=_fake_clock([0.0, 0.5, 1.5]))
    with tracer.span("query", {"k": 2, "loc": object()}):
        pass
    (ev,) = tracer.to_chrome_events(pid=7)
    assert ev["ph"] == "X"
    assert ev["pid"] == 7
    assert ev["ts"] == pytest.approx(0.5e6)
    assert ev["dur"] == pytest.approx(1.0e6)
    assert ev["args"]["k"] == 2
    assert isinstance(ev["args"]["loc"], str)  # non-JSON attrs stringified


def test_write_chrome_trace_requires_a_source(tmp_path):
    with pytest.raises(ConfigError):
        write_chrome_trace(tmp_path / "t.json")


def test_write_chrome_trace_cpu_only(tmp_path):
    tracer = Tracer()
    with tracer.span("query"):
        pass
    doc = json.loads(write_chrome_trace(tmp_path / "t.json", tracer).read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    assert "query" in names and "process_name" in names


def test_write_chrome_trace_merges_cpu_and_gpu(tmp_path):
    gpu = SimGpu()
    tracer = Tracer()
    with GpuTrace(gpu) as gpu_trace:
        with tracer.span("query"):
            gpu.to_device("xs", [1, 2, 3])
            gpu.launch("GPU_SDist", 4, lambda ctx, xs: ctx.charge(5), gpu.fetch("xs"))
            gpu.from_device("xs")
    path = write_chrome_trace(tmp_path / "merged.json", tracer, gpu_trace)
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    # both process tracks are named for Perfetto
    meta = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert meta == {0: "gpu (simulated)", 1: "cpu"}
    cpu = [e for e in events if e["ph"] == "X" and e["pid"] == 1]
    gpu_evs = [e for e in events if e["ph"] == "X" and e["pid"] == 0]
    assert {e["name"] for e in cpu} == {"query"}
    assert {e["name"] for e in gpu_evs} >= {"GPU_SDist", "xs"}
    assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")


# ----------------------------------------------------------------------
# distributed trace context
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_encode_shape(self):
        ctx = TraceContext(trace_id=0xABC, span_id=0x12, sampled=True)
        assert ctx.encode() == "00-" + "0" * 29 + "abc-" + "0" * 14 + "12-01"

    def test_round_trip(self):
        ctx = TraceContext(trace_id=(1 << 127) + 5, span_id=7, sampled=False)
        assert TraceContext.decode(ctx.encode()) == ctx

    @given(
        trace_id=st.integers(min_value=1, max_value=(1 << 128) - 1),
        span_id=st.integers(min_value=1, max_value=(1 << 64) - 1),
        sampled=st.booleans(),
    )
    def test_round_trip_property(self, trace_id, span_id, sampled):
        ctx = TraceContext(trace_id, span_id, sampled)
        decoded = TraceContext.decode(ctx.encode())
        assert decoded == ctx
        assert len(ctx.encode()) == 55

    @pytest.mark.parametrize("trace_id,span_id", [(0, 1), (1, 0), (1 << 128, 1), (1, 1 << 64)])
    def test_out_of_range_ids_rejected(self, trace_id, span_id):
        with pytest.raises(ConfigError):
            TraceContext(trace_id, span_id)

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "00-abc-def-01",  # wrong widths
            "01-" + "1" * 32 + "-" + "1" * 16 + "-01",  # bad version
            "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "00-" + "1" * 32 + "-" + "1" * 16,  # missing flags
        ],
    )
    def test_malformed_headers_rejected(self, header):
        with pytest.raises(ConfigError):
            TraceContext.decode(header)


class TestTraceIdentity:
    def test_each_root_starts_a_new_trace(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans
        assert a.trace_id != b.trace_id
        assert a.parent_span_id is None and b.parent_span_id is None

    def test_children_inherit_trace_id_and_parent_span(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grand:
                    pass
        assert child.trace_id == root.trace_id == grand.trace_id
        assert child.parent_span_id == root.span_id
        assert grand.parent_span_id == child.span_id

    def test_ids_are_deterministic_across_tracers(self):
        ids = []
        for _ in range(2):
            tracer = Tracer()
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
            ids.append([(s.trace_id, s.span_id) for s in tracer.spans])
        assert ids[0] == ids[1]

    def test_remote_parent_joins_the_propagated_trace(self):
        router, shard = Tracer(), Tracer()
        with router.span("router.epoch") as root:
            header = root.context.encode()
        with shard.span("query", parent=header) as sp:
            pass
        assert sp.trace_id == root.trace_id
        assert sp.parent_span_id == root.span_id

    def test_current_context_tracks_innermost_open_span(self):
        tracer = Tracer()
        assert current_context() is None
        with tracer.activate():
            assert current_context() is None  # nothing open yet
            with tracer.span("outer") as outer:
                assert current_context() == outer.context
                with tracer.span("inner") as inner:
                    assert current_context() == inner.context
                assert current_context() == outer.context
        assert current_context() is None

    def test_chrome_events_carry_trace_identity(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        root_ev, child_ev = tracer.to_chrome_events()
        assert root_ev["args"]["trace_id"] == child_ev["args"]["trace_id"]
        assert child_ev["args"]["parent_span_id"] == root_ev["args"]["span_id"]
        assert "parent_span_id" not in root_ev["args"]

    def test_on_trace_complete_fires_per_root(self):
        tracer = Tracer()
        seen = []
        tracer.on_trace_complete = lambda spans: seen.append(
            [s.name for s in spans]
        )
        with tracer.span("a"):
            with tracer.span("a.1"):
                pass
        with tracer.span("b"):
            pass
        assert seen == [["a", "a.1"], ["b"]]
