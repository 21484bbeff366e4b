"""Hypergraph store: ids, incidence, firing semantics, freeze discipline."""
from __future__ import annotations

import gc
import random

import pytest

from hg2rdf import (
    HG2,
    EmptySlotError,
    HyperEdge,
    Hypergraph,
    UnknownNodeError,
    deserialize,
    integrate,
    parse_document,
    serialize,
)
from oracles import assert_frozen_containers_refuse_writes, naive_path, naive_reachable, naive_search


def build(n_nodes: int) -> Hypergraph:
    h = Hypergraph()
    for i in range(n_nodes):
        h.add_node(f"n{i}")
    return h


def test_node_ids_are_dense_and_ordered():
    h = Hypergraph()
    assert [h.add_node(p) for p in "abc"] == [0, 1, 2]
    assert h.node_count == 3
    assert h.nodes == ["a", "b", "c"]


def test_add_hyperedge_keeps_order_and_returns_dense_ids():
    h = build(4)
    e0 = h.add_hyperedge([2], [0, 1])
    e1 = h.add_hyperedge([3, 2], [1])
    assert (e0, e1) == (0, 1)
    assert h.edges[1].head == [3, 2]
    assert h.edges[0].tail == [0, 1]


def test_add_hyperedge_copies_input_lists():
    h = build(2)
    head, tail = [0], [1, 0]
    h.add_hyperedge(head, tail)
    head.append(1)
    tail.clear()
    assert h.edges[0].head == [0]
    assert h.edges[0].tail == [1, 0]


def test_incidence_records_every_occurrence():
    # each incident edge once, in ascending id order, whatever its slots
    h = build(3)
    h.add_hyperedge([0], [1, 2])
    h.add_hyperedge([1, 0], [0])
    h.add_hyperedge([1], [1])
    assert h.incidence_of(0) == [0, 1]
    assert h.incidence_of(1) == [0, 1, 2]
    assert h.incidence_of(2) == [0]


def test_incidence_of_returns_a_copy():
    h = build(2)
    h.add_hyperedge([0], [1])
    h.incidence_of(0).clear()
    assert h.incidence_of(0) == [0]


def test_same_node_may_sit_in_head_and_both_tail_slots():
    h = build(1)
    h.add_hyperedge([0], [0, 0])
    assert h.incidence_of(0) == [0]
    assert (h.edges[0].head, h.edges[0].tail) == ([0], [0, 0])
    assert h.forward_reachable(0) == {0}


def test_empty_slots_are_rejected():
    h = build(2)
    with pytest.raises(EmptySlotError):
        h.add_hyperedge([], [0])
    with pytest.raises(EmptySlotError):
        h.add_hyperedge([0], [])
    assert h.edge_count == 0


def test_unknown_node_ids_are_rejected():
    h = build(2)
    with pytest.raises(UnknownNodeError):
        h.add_hyperedge([0], [5])
    with pytest.raises(UnknownNodeError):
        h.incidence_of(2)
    with pytest.raises(UnknownNodeError):
        h.forward_reachable(-1)
    with pytest.raises(UnknownNodeError):
        h.forward_path(2, 0)
    with pytest.raises(UnknownNodeError):
        h.forward_path(0, 2)
    with pytest.raises(UnknownNodeError):
        h.forward_path(-1, -1)
    for bad, error, message in (
        (0.5, TypeError, "ids must be int, got 0.5"),
        (True, TypeError, "ids must be int, got True"),
        (-1, UnknownNodeError, "hypernode -1 does not exist"),
        (2, UnknownNodeError, "hypernode 2 does not exist"),  # the first absent id
    ):
        with pytest.raises(error) as excinfo:
            h.incidence_of(bad)
        assert str(excinfo.value) == message
        with pytest.raises(error) as excinfo:
            h.add_hyperedge([0], [1, bad])
        assert str(excinfo.value) == message.replace("hypernode", "tail hypernode")
    assert h.edge_count == 0


def test_forward_reachable_chain():
    h = build(4)
    h.add_hyperedge([0], [1])
    h.add_hyperedge([1], [2])
    h.add_hyperedge([2], [3])
    assert h.forward_reachable(0) == {1, 2, 3}
    assert h.forward_reachable(3) == set()


def test_forward_reachable_fires_on_any_head_node():
    # edge with two head nodes: reaching either one fires it
    h = build(3)
    h.add_hyperedge([0, 1], [2])
    assert h.forward_reachable(0) == {2}
    assert h.forward_reachable(1) == {2}
    assert h.forward_reachable(2) == set()


def test_forward_reachable_excludes_start_unless_re_reached():
    h = build(2)
    h.add_hyperedge([0], [1])
    h.add_hyperedge([1], [0])
    assert h.forward_reachable(0) == {0, 1}
    h2 = build(2)
    h2.add_hyperedge([0], [1])
    assert h2.forward_reachable(0) == {1}


def test_forward_reachable_matches_fixpoint_oracle_on_random_instances():
    rng = random.Random(90125)
    cycle_starts = 0  # starts that a fired edge reaches again
    for _ in range(60):
        n = rng.randrange(1, 14)
        h = build(n)
        for _ in range(rng.randrange(0, 20)):
            head = [rng.randrange(n) for _ in range(rng.randrange(1, 3))]
            tail = [rng.randrange(n) for _ in range(rng.randrange(1, 4))]
            h.add_hyperedge(head, tail)
        for start in range(n):
            reached = h.forward_reachable(start)
            assert reached == naive_reachable(h, start)
            cycle_starts += start in reached
            record = naive_search(h, start)
            for target in range(n):
                assert h.forward_path(start, target) == naive_path(record, start, target)
    assert cycle_starts > 0


def test_forward_path_is_the_breadth_first_witness():
    h = build(5)
    h.add_hyperedge([0], [1])
    h.add_hyperedge([1], [2])
    h.add_hyperedge([2], [3])
    h.add_hyperedge([0, 4], [4, 2])
    assert h.forward_path(0, 0) == ()
    assert h.forward_path(0, 2) == (3,)
    assert h.forward_path(0, 3) == (3, 2)
    assert h.forward_path(3, 0) is None
    assert h.forward_path(4, 4) == ()
    assert h.forward_path(4, 3) == (3, 2)


def test_repeated_head_tail_pair_keeps_the_lowest_edge_id_as_witness():
    h = build(3)
    h.add_hyperedge([0], [1])
    h.add_hyperedge([0], [2, 1])
    h.add_hyperedge([0, 0], [1])
    assert list(h._forward[0].items()) == [(1, 0), (2, 1)]
    assert h.forward_path(0, 1) == (0,)
    assert h.forward_path(0, 2) == (1,)


def test_tail_repeated_within_one_edge_is_reached_once():
    h = build(3)
    h.add_hyperedge([0], [1, 2, 1])
    assert list(h._forward[0].items()) == [(1, 0), (2, 0)]
    assert h.forward_reachable(0) == {1, 2}
    assert h._search(0) == {}  # neither tail node heads an edge


def test_node_heading_and_tailing_one_edge_reaches_itself_through_that_edge():
    h = build(2)
    h.add_hyperedge([0], [1, 0])
    h.add_hyperedge([1], [0])
    assert h._search(0) == {1: 0, 0: 0}
    assert h._forward[0][0] == 0
    assert h.forward_path(0, 0) == ()
    loop = build(1)
    loop.add_hyperedge([0], [0])
    assert loop.forward_reachable(0) == {0}
    assert loop._search(0) == {0: 0}


def test_leaves_never_enter_the_search():
    # node 0 heads one edge over 10,000 leaves and the first of a chain of
    # heads 10_001 -> 10_002 -> 10_003, whose last edge leads back to 0
    h = build(10_004)
    leaves = list(range(1, 10_001))
    h.add_hyperedge([0], [*leaves, 10_001])
    h.add_hyperedge([10_001], [10_002, 5])
    h.add_hyperedge([10_002], [7, 10_003])
    h.add_hyperedge([10_003], [0, 9])
    assert h._heads == {0, 10_001, 10_002, 10_003}
    assert h._search(0) == {10_001: 0, 10_002: 10_001, 10_003: 10_002, 0: 10_003}
    assert h.forward_reachable(0) == naive_reachable(h, 0) == {*leaves, *range(10_001, 10_004), 0}
    assert h.forward_path(0, 0) == ()
    record = naive_search(h, 0)
    for target in (1, 9, 10_000, 10_003):
        assert h._search(0, target).keys() <= {0, target, *h._heads}
        assert h.forward_path(0, target) == naive_path(record, 0, target)
    assert h.forward_path(10_002, 10_000) == (2, 3, 0)


def test_searches_from_every_head_of_the_query_corpus_agree_with_the_breadth_first_oracle(
    bench_corpora,
):
    corpus = bench_corpora["query"]
    statements = []
    for name in [*corpus.schema_inputs, *corpus.inputs]:
        statements += parse_document(corpus.files[name])[0]
    h = integrate(statements)[0].h
    heads = sorted(h._heads)
    assert heads == sorted({node for edge in h.edges for node in edge.head})
    for start in heads:
        expected = naive_search(h, start)
        assert h.forward_reachable(start) == set(expected)
        # a full record holds every witness: a search that stops at the
        # target has reached the same nodes from the same parents
        for target in [*heads, *list(expected)[::97], *range(0, h.node_count, 997)]:
            assert h.forward_path(start, target) == naive_path(expected, start, target)


def test_forward_stars_are_untracked_by_the_cyclic_collector():
    hg2 = HG2()
    for i in range(4):
        hg2.h.add_node(f"n{i}")
    hg2.h.add_hyperedge([0], [1, 2])
    hg2.h.add_hyperedge([1, 2], [0, 3, 3])
    hg2.h.add_hyperedge([3], [3])
    for h in (hg2.h, deserialize(serialize(hg2)).h):
        assert h._forward[3] == {3: 2}
        assert all(gc.is_tracked(star) is False for star in h._forward)


def test_freeze_blocks_mutation_but_not_queries(frozen_structures):
    h = build(2)
    h.add_hyperedge([0], [1])
    h.freeze()
    with pytest.raises(RuntimeError):
        h.add_node("late")
    with pytest.raises(RuntimeError):
        h.add_hyperedge([0], [1])
    with pytest.raises(AttributeError):
        h.nodes.append("late")
    with pytest.raises(TypeError):
        h.edges[0] = HyperEdge([1], [0])
    assert h.nodes == ("n0", "n1") and h.find("late") is None
    assert h.forward_reachable(0) == {1}
    assert h.forward_path(0, 1) == (0,)
    assert h.incidence_of(1) == [0]
    for frozen in frozen_structures:
        assert_frozen_containers_refuse_writes(frozen, "h")


def test_equality_is_structural():
    a, b = build(2), build(2)
    a.add_hyperedge([0], [1])
    b.add_hyperedge([0], [1])
    assert a == b
    b.add_hyperedge([1], [0])
    assert a != b
