"""Self-time and self-node arithmetic, and how the tracer nests spans."""

import pytest

from perfbench.tracing import Span, Tracer, self_nodes, self_times, union_length


def _tree() -> list[Span]:
    return [
        Span("root", 0.0, 10.0, tape0=0, tape1=100),
        Span("a", 1.0, 4.0, parent=0, tape0=10, tape1=40),
        Span("a.x", 2.0, 3.0, parent=1, tape0=15, tape1=25),
        Span("b", 3.0, 6.0, parent=0, tape0=40, tape1=60),      # overlaps a
        Span("c", 9.0, 12.0, parent=0, tape0=None, tape1=None),  # runs past its parent
    ]


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(1, 4), (3, 6), (9, 10), (7, 7)]) == 6
    assert union_length([]) == 0


def test_self_time_subtracts_covered_part_only():
    # root: 10 minus the union [1,6] + [9,10] of its children (c clipped at 10)
    assert self_times(_tree()) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_self_nodes_subtract_children_and_keep_unknown():
    assert self_nodes(_tree()) == [100 - 30 - 20, 20, 10, 20, None]


def test_consumed_tape_has_no_node_count():
    assert Span("backward", 0.0, 1.0, tape0=50, tape1=0).nodes is None


def test_tracer_records_parents_ops_and_values():
    tape = [0]
    tracer = Tracer(lambda: tape[0], op_markers=("step",))

    def leaf(n):
        tape[0] += n
        return b"x" * n

    traced_leaf = tracer.wrap("leaf", leaf, measure=lambda args, out: len(out))
    traced_step = tracer.wrap("step", lambda: [traced_leaf(2), traced_leaf(3)])
    tracer.phase = "run"
    traced_step()
    traced_step()
    names = [(s.name, s.parent, s.op, s.nodes, s.value) for s in tracer.spans]
    assert names == [("step", -1, 0, 5, None), ("leaf", 0, 0, 2, 2.0), ("leaf", 0, 0, 3, 3.0),
                     ("step", -1, 1, 5, None), ("leaf", 3, 1, 2, 2.0), ("leaf", 3, 1, 3, 3.0)]
    assert all(s.end >= s.start and s.phase == "run" for s in tracer.spans)


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    tracer.wrap("after", lambda: None)()
    assert [s.parent for s in tracer.spans] == [-1, -1]
