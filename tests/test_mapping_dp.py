"""Tests for the dynamic-programming mapper: correctness and optimality."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InfeasibleMappingError, MappingError
from repro.experiments.dp_scaling import ALL_CAPS, random_topology
from repro.mapping import (
    evaluate_mapping,
    exhaustive_map,
    greedy_map,
    map_pipeline,
)
from repro.mapping.exhaustive import compositions, enumerate_walks
from repro.net import LinkSpec, NodeSpec, Topology, build_paper_testbed
from repro.viz.pipeline import ModuleSpec, VisualizationPipeline

from tests.test_mapping_model import chain_topology, simple_pipeline


def random_pipeline(rng: np.random.Generator, n_modules: int) -> VisualizationPipeline:
    mods = [ModuleSpec("src", "source")]
    kinds = ["filter", "extract", "render", "display"]
    for i in range(1, n_modules):
        kind = kinds[min(i - 1, 3)] if i < n_modules - 1 else "display"
        mods.append(
            ModuleSpec(
                f"m{i}",
                kind,
                complexity=float(rng.uniform(1e-8, 5e-7)),
                output_ratio=float(rng.uniform(0.1, 1.2)),
            )
        )
    return VisualizationPipeline(mods, source_bytes=float(rng.uniform(1e5, 1e7)))


class TestDPBasics:
    def test_two_node_client_server(self):
        topo = chain_topology(powers=(1.0, 1.0))
        p = simple_pipeline()
        res = map_pipeline(p, topo, "n0", "n1")
        assert res.mapping.path[0] == "n0"
        assert res.mapping.path[-1] == "n1"
        assert res.delay > 0

    def test_delay_matches_evaluate(self):
        topo = chain_topology()
        p = simple_pipeline()
        res = map_pipeline(p, topo, "n0", "n2")
        bd = evaluate_mapping(p, topo, res.mapping)
        assert res.delay == pytest.approx(bd.total)

    def test_fast_middle_node_attracts_heavy_module(self):
        # n1 is 10x faster; the expensive extract should land there.
        topo = chain_topology(powers=(1.0, 10.0, 1.0), bandwidth=1e8)
        p = simple_pipeline(source_bytes=1e8)
        res = map_pipeline(p, topo, "n0", "n2")
        extract_idx = 2
        assert res.mapping.node_of_module(extract_idx) == "n1"

    def test_slow_link_keeps_compute_at_source(self):
        # Tiny bandwidth: shipping raw data is ruinous, so filter+extract
        # (which shrink data 5x) stay at the source.
        topo = chain_topology(powers=(1.0, 8.0), bandwidth=1e4)
        p = simple_pipeline(source_bytes=1e7)
        res = map_pipeline(p, topo, "n0", "n1")
        assert res.mapping.node_of_module(1) == "n0"
        assert res.mapping.node_of_module(2) == "n0"

    @pytest.mark.parametrize("mapper", [map_pipeline, exhaustive_map, greedy_map],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("ends", [("ghost", "n1"), ("n0", "ghost")],
                             ids=["source", "destination"])
    def test_unknown_nodes_raise(self, mapper, ends):
        topo = chain_topology()
        p = simple_pipeline()
        with pytest.raises(MappingError, match="unknown .* node 'ghost'"):
            mapper(p, topo, *ends)

    def test_unreachable_destination(self):
        nodes = [NodeSpec("a", capabilities=ALL_CAPS), NodeSpec("b", capabilities=ALL_CAPS),
                 NodeSpec("c", capabilities=ALL_CAPS)]
        links = [LinkSpec("a", "b", 1e6)]
        topo = Topology.from_specs(nodes, links)
        with pytest.raises(InfeasibleMappingError):
            map_pipeline(simple_pipeline(), topo, "a", "c")

    def test_capability_constraint_diverts_render(self):
        """Destination cannot render -> render must happen upstream."""
        nodes = [
            NodeSpec("src", capabilities=frozenset({"source", "filter", "extract"})),
            NodeSpec("mid", power=2.0,
                     capabilities=frozenset({"filter", "extract", "render"})),
            NodeSpec("dst", capabilities=frozenset({"display"})),
        ]
        links = [LinkSpec("src", "mid", 1e6), LinkSpec("mid", "dst", 1e6)]
        topo = Topology.from_specs(nodes, links)
        p = simple_pipeline()
        res = map_pipeline(p, topo, "src", "dst")
        assert res.mapping.node_of_module(3) == "mid"  # render
        assert res.mapping.node_of_module(4) == "dst"  # display

    def test_infeasible_when_no_renderer_exists(self):
        nodes = [
            NodeSpec("src", capabilities=frozenset({"source", "filter", "extract"})),
            NodeSpec("dst", capabilities=frozenset({"display"})),
        ]
        topo = Topology.from_specs(nodes, [LinkSpec("src", "dst", 1e6)])
        with pytest.raises(InfeasibleMappingError):
            map_pipeline(simple_pipeline(), topo, "src", "dst")

    def test_operations_scale_linearly_in_n_and_edges(self):
        rng = np.random.default_rng(0)
        topo_small = random_topology(rng, 8, 0.4)
        topo_big = random_topology(rng, 16, 0.4)
        p5 = random_pipeline(rng, 5)
        p9 = random_pipeline(rng, 9)
        ops = {}
        for tag, topo, p in [
            ("small5", topo_small, p5),
            ("small9", topo_small, p9),
            ("big5", topo_big, p5),
        ]:
            ops[tag] = map_pipeline(p, topo, "n0", f"n{topo.num_nodes-1}").operations
        # doubling modules roughly doubles work on the same graph
        assert 1.3 < ops["small9"] / ops["small5"] < 3.0
        # a denser/larger graph costs proportionally more
        assert ops["big5"] > ops["small5"]


class TestDPOptimality:
    """DP must equal brute force — the paper's optimality claim."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_nodes=st.integers(min_value=3, max_value=6),
        n_modules=st.integers(min_value=3, max_value=6),
    )
    def test_dp_matches_exhaustive_on_random_instances(self, seed, n_nodes, n_modules):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng, n_nodes, 0.5)
        p = random_pipeline(rng, n_modules)
        src, dst = "n0", f"n{n_nodes - 1}"
        try:
            dp = map_pipeline(p, topo, src, dst)
        except InfeasibleMappingError:
            # Short pipelines cannot span long paths (one module per hop
            # minimum); the oracle must agree the instance is infeasible.
            with pytest.raises(InfeasibleMappingError):
                exhaustive_map(p, topo, src, dst)
            return
        brute = exhaustive_map(p, topo, src, dst)
        assert dp.delay == pytest.approx(brute.delay, rel=1e-9)

    def test_dp_matches_exhaustive_on_testbed(self):
        topo, roles = build_paper_testbed(with_cross_traffic=False)
        p = simple_pipeline(source_bytes=16 * 2**20)
        dp = map_pipeline(p, topo, "GaTech", "ORNL")
        brute = exhaustive_map(p, topo, "GaTech", "ORNL")
        assert dp.delay == pytest.approx(brute.delay, rel=1e-9)

    def test_dp_never_worse_than_greedy(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            topo = random_topology(rng, 6, 0.5)
            p = random_pipeline(rng, 5)
            dp = map_pipeline(p, topo, "n0", "n5")
            try:
                greedy = greedy_map(p, topo, "n0", "n5")
            except InfeasibleMappingError:
                continue
            assert dp.delay <= greedy.delay + 1e-12


class TestExhaustiveHelpers:
    def test_compositions_count(self):
        # C(4, 2) = 6 ways to split 5 items into 3 groups
        assert len(compositions(5, 3)) == 6
        assert compositions(3, 4) == []

    def test_compositions_are_partitions(self):
        for groups in compositions(6, 3):
            flat = [i for g in groups for i in g]
            assert flat == list(range(6))
            assert all(len(g) >= 1 for g in groups)

    def test_enumerate_walks_includes_simple_paths(self):
        topo = chain_topology()
        walks = enumerate_walks(topo, "n0", "n2", max_nodes=3)
        assert ["n0", "n1", "n2"] in walks

    def test_walks_bounded_by_max_nodes(self):
        topo = chain_topology()
        walks = enumerate_walks(topo, "n0", "n2", max_nodes=5)
        assert all(len(w) <= 5 for w in walks)


class TestPaperTestbedMapping:
    def test_optimal_loop_uses_ut_cluster_for_large_data(self):
        """Fig. 9's headline: GaTech -> UT -> ORNL wins for VisWoman."""
        topo, _ = build_paper_testbed(with_cross_traffic=False)
        p = simple_pipeline(source_bytes=108 * 2**20)
        res = map_pipeline(p, topo, "GaTech", "ORNL")
        assert "UT" in res.mapping.path
        assert res.mapping.path[0] == "GaTech"
        assert res.mapping.path[-1] == "ORNL"

    def test_render_lands_on_capable_node(self):
        topo, _ = build_paper_testbed(with_cross_traffic=False)
        p = simple_pipeline(source_bytes=64 * 2**20)
        res = map_pipeline(p, topo, "GaTech", "ORNL")
        render_host = res.mapping.node_of_module(3)
        assert topo.node(render_host).can("render")
