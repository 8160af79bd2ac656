"""Unit tests for topology specs and the overlay graph."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.net import LinkSpec, NodeSpec, Topology, build_paper_testbed
from repro.units import mbit_per_s


def small_topo() -> Topology:
    return Topology.from_specs(
        [
            NodeSpec("a", power=1.0),
            NodeSpec("b", power=2.0),
            NodeSpec("c", power=0.5, capabilities=frozenset({"render"})),
        ],
        [
            LinkSpec("a", "b", mbit_per_s(100), 0.01),
            LinkSpec("b", "c", mbit_per_s(50), 0.02),
        ],
    )


class TestNodeSpec:
    def test_rejects_nonpositive_power(self):
        with pytest.raises(TopologyError):
            NodeSpec("x", power=0.0)

    def test_rejects_bad_cluster_size(self):
        with pytest.raises(TopologyError):
            NodeSpec("x", cluster_size=0)

    def test_can_checks_capability(self):
        n = NodeSpec("x", capabilities=frozenset({"render", "extract"}))
        assert n.can("render") and not n.can("display")


class TestLinkSpec:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(TopologyError):
            LinkSpec("a", "b", 0.0)

    def test_rejects_invalid_loss(self):
        with pytest.raises(TopologyError):
            LinkSpec("a", "b", 1.0, loss_rate=1.0)

    def test_key_is_sorted(self):
        assert LinkSpec("z", "a", 1.0).key == ("a", "z")


class TestTopology:
    def test_node_and_link_lookup(self):
        topo = small_topo()
        assert topo.node("b").power == 2.0
        assert topo.link("c", "b").bandwidth == mbit_per_s(50)
        assert topo.bandwidth("a", "b") == mbit_per_s(100)
        assert topo.prop_delay("b", "c") == 0.02

    def test_unknown_node_raises(self):
        with pytest.raises(TopologyError):
            small_topo().node("zz")

    def test_unknown_link_raises(self):
        with pytest.raises(TopologyError):
            small_topo().link("a", "c")

    def test_link_to_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node(NodeSpec("a"))
        with pytest.raises(TopologyError):
            topo.add_link(LinkSpec("a", "ghost", 1.0))

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_node(NodeSpec("a"))
        with pytest.raises(TopologyError):
            topo.add_link(LinkSpec("a", "a", 1.0))

    def test_neighbors(self):
        topo = small_topo()
        assert set(topo.neighbors("b")) == {"a", "c"}
        assert topo.neighbors("a") == ["b"]

    def test_counts(self):
        topo = small_topo()
        assert topo.num_nodes == 3
        assert topo.num_links == 2

    def test_path_links_validates_adjacency(self):
        topo = small_topo()
        specs = topo.path_links(["a", "b", "c"])
        assert [s.key for s in specs] == [("a", "b"), ("b", "c")]
        with pytest.raises(TopologyError):
            topo.path_links(["a", "c"])

    def test_simple_paths(self):
        topo = small_topo()
        paths = topo.simple_paths("a", "c")
        assert paths == [["a", "b", "c"]]

    def test_dict_roundtrip(self):
        topo = small_topo()
        clone = Topology.from_dict(topo.to_dict())
        assert clone.num_nodes == topo.num_nodes
        assert clone.num_links == topo.num_links
        assert clone.node("c").capabilities == frozenset({"render"})
        assert clone.bandwidth("a", "b") == topo.bandwidth("a", "b")


class TestUnknownEndpoints:
    @pytest.mark.parametrize("ends", [("zz", "c"), ("a", "zz")])
    def test_simple_paths_raises(self, ends):
        with pytest.raises(TopologyError, match="unknown node 'zz'"):
            small_topo().simple_paths(*ends)

    @pytest.mark.parametrize("ends", [("zz", "c"), ("a", "zz")])
    def test_shortest_path_raises(self, ends):
        with pytest.raises(TopologyError, match="unknown node 'zz'"):
            small_topo().shortest_path(*ends, weight=lambda u, v: 1.0)

    def test_unreachable_is_none(self):
        topo = small_topo()
        topo.add_node(NodeSpec("island"))
        assert topo.shortest_path("a", "island", lambda u, v: 1.0) is None
        assert topo.simple_paths("a", "island") == []


# -- networkx as the oracle ----------------------------------------------------
#
# ``Topology`` used to wrap an ``nx.Graph``; it now keeps its own
# adjacency.  The library stays here as the reference: built from the same
# spec lists in the same order, both must report the same nodes, the same
# neighbour and link order and the same simple paths, and the same least-
# cost path wherever that path is unique.

NAMES = [f"v{i}" for i in range(8)]


@st.composite
def spec_lists(draw):
    """Node and link spec lists over 1–8 nodes, added in a drawn order.

    Links may repeat (re-adding replaces the spec in place) and come in
    either orientation; bandwidths are continuous or drawn from {1, 2, 5}
    MB/s, where equal-cost routes are common."""
    names = draw(st.permutations(NAMES))[: draw(st.integers(1, 8))]
    nodes = [NodeSpec(n, power=draw(st.floats(0.5, 4.0))) for n in names]
    if draw(st.booleans()):  # a re-added node replaces its spec in place
        nodes.append(NodeSpec(draw(st.sampled_from(names)), power=9.0))
    bandwidth = st.sampled_from([1e6, 2e6, 5e6]) if draw(st.booleans()) \
        else st.floats(1e5, 1e7)
    links = []
    if len(names) > 1:
        pairs = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
        for u, v in draw(st.lists(pairs, max_size=20)):
            links.append(LinkSpec(u, v, draw(bandwidth)))
    return nodes, links


def _both(nodes, links):
    topo = Topology.from_specs(nodes, links)
    g = nx.Graph()
    for spec in nodes:
        g.add_node(spec.name, spec=spec)
    for spec in links:
        g.add_edge(spec.u, spec.v, spec=spec)
    return topo, g


class TestMatchesNetworkx:
    @settings(max_examples=200, deadline=None)
    @given(spec_lists())
    def test_nodes_neighbors_and_links(self, specs):
        topo, g = _both(*specs)
        assert topo.node_names == list(g.nodes)
        assert list(topo.nodes()) == [d["spec"] for _, d in g.nodes(data=True)]
        assert topo.num_nodes == g.number_of_nodes()
        assert topo.num_links == g.number_of_edges()
        assert list(topo.links()) == [d["spec"] for _, _, d in g.edges(data=True)]
        for name in g.nodes:
            assert topo.neighbors(name) == list(g.neighbors(name))
            for other in g.nodes:
                assert topo.has_link(name, other) == g.has_edge(name, other)

    @settings(max_examples=200, deadline=None)
    @given(spec_lists())
    def test_simple_paths(self, specs):
        topo, g = _both(*specs)
        for src in g.nodes:
            for dst in g.nodes:
                for cutoff in (None, 0, 1, 2, 3):
                    ref = nx.all_simple_paths(
                        g, src, dst, cutoff=len(g) - 1 if cutoff is None else cutoff)
                    assert topo.simple_paths(src, dst, cutoff) == [list(p) for p in ref]

    @settings(max_examples=200, deadline=None)
    @given(spec_lists())
    def test_shortest_path(self, specs):
        topo, g = _both(*specs)

        def weight(u, v):
            return 1e6 / topo.bandwidth(u, v)

        def cost(path):
            return sum(weight(u, v) for u, v in zip(path, path[1:]))

        for src in g.nodes:
            for dst in g.nodes:
                path = topo.shortest_path(src, dst, weight)
                if not nx.has_path(g, src, dst):
                    assert path is None
                    continue
                ref = nx.shortest_path(g, src, dst, weight=lambda u, v, _d: weight(u, v))
                best = min(cost(p) for p in topo.simple_paths(src, dst))
                assert cost(path) == pytest.approx(best, rel=1e-12)
                ties = [p for p in topo.simple_paths(src, dst)
                        if cost(p) == pytest.approx(best, rel=1e-12)]
                if len(ties) == 1:
                    assert path == ref

    @pytest.mark.parametrize("cross_traffic", [False, True])
    def test_paper_testbed_shortest_paths(self, cross_traffic):
        testbed, _ = build_paper_testbed(with_cross_traffic=cross_traffic)
        topo, g = _both(list(testbed.nodes()), list(testbed.links()))
        for size in (1e6, 16 * 2**20, 108 * 2**20):
            def weight(u, v):
                return size / topo.bandwidth(u, v)

            for src in topo.node_names:
                for dst in topo.node_names:
                    ref = nx.shortest_path(g, src, dst, weight=lambda u, v, _d: weight(u, v))
                    assert topo.shortest_path(src, dst, weight) == ref
