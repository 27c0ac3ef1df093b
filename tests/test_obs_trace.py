"""Structured tracing: span nesting, exception safety, sinks, round-trip."""

import pytest

from repro.exceptions import ValidationError
from repro.obs.trace import (
    JsonlSpanSink,
    Span,
    TraceCollector,
    active_collector,
    collect,
    install_collector,
    read_spans_jsonl,
    render_span_tree,
    span,
    span_name_totals,
    span_to_dicts,
    uninstall_collector,
)


class TestNoOpPath:
    def test_span_without_collector_is_shared_noop(self):
        first = span("a", x=1)
        second = span("b")
        assert first is second  # one cached handle, no allocation per call

    def test_noop_span_supports_protocol(self):
        with span("anything", k=2) as sp:
            sp.set(more=3)  # silently ignored

    def test_noop_span_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            with span("failing"):
                raise RuntimeError("boom")


class TestCollector:
    def test_spans_nest_into_a_tree(self):
        with collect() as collector:
            with span("root", depth=0):
                with span("child.a"):
                    with span("leaf"):
                        pass
                with span("child.b"):
                    pass
        assert len(collector.roots) == 1
        root = collector.roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child.a", "child.b"]
        assert root.children[0].children[0].name == "leaf"
        assert root.max_depth == 3
        assert collector.span_count == 4

    def test_durations_and_attributes_are_recorded(self):
        with collect() as collector:
            with span("work", candidates=7) as sp:
                sp.set(iterations=42)
        (root,) = collector.roots
        assert root.duration is not None and root.duration >= 0
        assert root.attributes == {"candidates": 7, "iterations": 42}
        assert root.error is False

    def test_exception_marks_error_and_closes_span(self):
        with collect() as collector:
            with pytest.raises(ValueError):
                with span("outer"):
                    with span("inner"):
                        raise ValueError("solver blew up")
        (root,) = collector.roots
        assert root.error is True
        assert root.children[0].error is True
        assert root.duration is not None  # closed despite the exception
        assert collector.depth == 0

    def test_sibling_roots_accumulate(self):
        with collect() as collector:
            with span("first"):
                pass
            with span("second"):
                pass
        assert [r.name for r in collector.roots] == ["first", "second"]

    def test_collect_restores_previous_collector(self):
        outer = TraceCollector()
        install_collector(outer)
        try:
            with collect() as inner:
                with span("traced"):
                    pass
            assert active_collector() is outer
            assert inner.span_count == 1
            assert outer.span_count == 0
        finally:
            assert uninstall_collector() is outer
        assert active_collector() is None

    def test_out_of_order_close_is_rejected(self):
        with collect():
            a = span("a")
            b = span("b")
            a.__enter__()
            b.__enter__()
            with pytest.raises(ValidationError, match="out of order"):
                a.__exit__(None, None, None)
            # Clean up so the conftest guard sees no open spans.
            b.__exit__(None, None, None)
            a.__exit__(None, None, None)


class TestSerialization:
    def _tree(self) -> TraceCollector:
        with collect() as collector:
            with span("root", net="broom"):
                with span("lp.solve", iterations=3):
                    pass
                with span("round"):
                    pass
        return collector

    def test_span_to_dicts_links_parents(self):
        rows = span_to_dicts(self._tree().roots[0])
        assert [r["name"] for r in rows] == ["root", "lp.solve", "round"]
        assert rows[0]["parent"] is None
        assert rows[1]["parent"] == rows[0]["id"]
        assert rows[2]["parent"] == rows[0]["id"]

    def test_non_jsonable_attributes_are_stringified(self):
        root = Span(name="r", attributes={"node": (1, 2)})
        rows = span_to_dicts(root)
        assert rows[0]["attributes"]["node"] == "(1, 2)"

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonlSpanSink(str(path))
        with collect(sink):
            with span("first", k=1):
                with span("inner"):
                    pass
            with span("second"):
                pass
        sink.close()
        roots = read_spans_jsonl(str(path))
        assert [r.name for r in roots] == ["first", "second"]
        assert roots[0].children[0].name == "inner"
        assert roots[0].attributes == {"k": 1}
        assert roots[0].duration is not None

    def test_closed_sink_refuses_emit(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlSpanSink(str(path)) as sink:
            pass
        with pytest.raises(ValidationError, match="closed"):
            sink.emit(Span(name="late"))

    def test_read_rejects_dangling_parent(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": 5, "parent": 99, "name": "x", "started": 0.0, '
            '"duration": 0.1, "error": false}\n'
        )
        with pytest.raises(ValidationError, match="unknown parent"):
            read_spans_jsonl(str(path))


class TestRendering:
    def test_render_span_tree_indents_and_flags_errors(self):
        with collect() as collector:
            with pytest.raises(RuntimeError):
                with span("root", net="g"):
                    with span("child"):
                        raise RuntimeError
        text = render_span_tree(collector.roots)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert "net=g" in lines[0]
        assert lines[1].startswith("  child")
        assert "[error]" in lines[1]


class TestSpanNameTotals:
    def test_hand_built_tree(self):
        leaf = Span("lp.solve", duration=0.25)
        inner = Span("ssqpp.solve", duration=0.5, children=[leaf, Span("lp.solve", duration=0.125)])
        root = Span("qpp.sweep", duration=1.0, children=[inner, Span("open")])
        rows = span_name_totals([root, Span("cli", duration=0.5)])
        # Largest self time first, ties by name.
        assert [(row.name, row.count, row.total, row.self_time) for row in rows] == [
            ("cli", 1, 0.5, 0.5),
            ("qpp.sweep", 1, 1.0, 0.5),
            ("lp.solve", 2, 0.375, 0.375),
            ("ssqpp.solve", 1, 0.5, 0.125),
            ("open", 1, 0.0, 0.0),
        ]

    def test_self_times_sum_to_root_wall_and_counts_match_the_tree(self):
        from repro import AccessStrategy, solve_qpp
        from repro.network import grid_network
        from repro.quorums import grid

        system = grid(2)
        with collect() as collector:
            solve_qpp(system, AccessStrategy.uniform(system), network=grid_network(3, 3))
            with span("second.root"):
                pass
        rows = span_name_totals(collector.roots)
        wall = sum(root.duration for root in collector.roots)
        assert abs(sum(row.self_time for row in rows) - wall) <= 1e-9
        assert sum(row.count for row in rows) == collector.span_count
        for row in rows:
            spans = [
                node for root in collector.roots for node in root.iter_spans()
                if node.name == row.name
            ]
            assert row.count == len(spans)
            assert row.total == pytest.approx(sum(node.duration for node in spans), abs=1e-12)
        assert [row.self_time for row in rows] == sorted(
            (row.self_time for row in rows), reverse=True
        )
