"""Block extraction (the cluster-node substitute) and its cost bookkeeping.

The paper's CS clusters run MPI-parallel visualization modules whose
data-distribution overhead erases their advantage on small datasets.
Our substitute marches octree blocks one after another and charges the
cluster's power and distribution overhead in the loop runner; these
tests pin the correctness of that path and the overhead bookkeeping
that the Fig. 9 cluster loops rely on.
"""

from __future__ import annotations

import pytest

from repro.data import build_blocks, make_rage
from repro.data.octree import Octree
from repro.viz import TriangleMesh, extract_blocks, extract_isosurface

from tests.test_data_grid import sphere_grid


class TestParallelCorrectness:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_worker_count_never_changes_geometry(self, workers):
        """Blocks dealt round-robin to ``workers`` cluster nodes, each
        node marching its share, merge to the whole-grid surface."""
        g = sphere_grid(21)
        blocks = build_blocks(g, block_cells=6)
        shares = [extract_blocks(g, blocks[w::workers], 0.6)[0]
                  for w in range(workers)]
        mesh = TriangleMesh.concatenate(shares, 0.6)
        ref = extract_isosurface(g, 0.6)
        assert mesh.n_triangles == ref.n_triangles
        assert mesh.areas().sum() == pytest.approx(ref.areas().sum(), rel=1e-5)

    def test_parallel_mesh_is_watertight(self):
        g = sphere_grid(21)
        blocks = build_blocks(g, block_cells=6)
        mesh, _ = extract_blocks(g, blocks, 0.6)
        assert mesh.boundary_edge_count() == 0

    def test_octree_blocks_equivalent_to_flat_blocks(self):
        g = make_rage(scale=0.12, seed=2)
        iso = 0.5 * (g.vmin + g.vmax)
        flat = build_blocks(g, block_cells=8)
        tree = Octree(g, leaf_cells=8)
        mesh_flat, _ = extract_blocks(g, flat, iso)
        mesh_tree, _ = extract_blocks(g, tree.active_blocks(iso), iso, skip_empty=False)
        assert mesh_flat.n_triangles == mesh_tree.n_triangles

    def test_records_cover_exactly_active_blocks(self):
        g = sphere_grid(17)
        blocks = build_blocks(g, block_cells=4)
        _, recs = extract_blocks(g, blocks, 0.6)
        active = {b.index for b in blocks if b.contains_isovalue(0.6)}
        assert {r.block_index for r in recs} == active


class TestClusterOverheadAccounting:
    def test_loop_runner_charges_cluster_overhead(self):
        """The Fig. 9 cluster loops must include the distribution cost."""
        from repro.mapping.vrt import VisualizationRoutingTable
        from repro.net import build_paper_testbed
        from repro.steering.loop import VisualizationLoopRunner
        from repro.viz.camera import OrthoCamera
        from repro.viz.pipeline import standard_pipeline
        from repro.mapping.model import Mapping

        topo, _ = build_paper_testbed(with_cross_traffic=False)
        g = sphere_grid(16)
        pipeline = standard_pipeline("isosurface", g.nbytes)
        mapping = Mapping(("GaTech", "UT", "ORNL"), ((0, 1), (2, 3), (4,)))
        vrt = VisualizationRoutingTable.from_mapping(pipeline, mapping)
        runner = VisualizationLoopRunner(topo)
        cam = OrthoCamera.framing(*g.bounds(), width=32, height=32)
        res = runner.run_cycle(vrt, g, params={"isovalue": 0.6, "camera": cam})
        ut_stage = next(s for s in res.stages if s.node == "UT")
        # UT's stage time includes the fixed parallel_overhead of the spec
        assert ut_stage.compute_seconds >= topo.node("UT").parallel_overhead

    def test_power_scaling_shrinks_cluster_compute(self):
        from repro.mapping.model import Mapping
        from repro.mapping.vrt import VisualizationRoutingTable
        from repro.net import build_paper_testbed
        from repro.net.topology import Topology
        from repro.steering.loop import VisualizationLoopRunner
        from repro.viz.camera import OrthoCamera
        from repro.viz.pipeline import standard_pipeline

        topo, _ = build_paper_testbed(with_cross_traffic=False)
        g = sphere_grid(24)
        pipeline = standard_pipeline("isosurface", g.nbytes)
        mapping = Mapping(("GaTech", "UT", "ORNL"), ((0, 1), (2, 3), (4,)))
        vrt = VisualizationRoutingTable.from_mapping(pipeline, mapping)
        cam = OrthoCamera.framing(*g.bounds(), width=32, height=32)
        # The same testbed with UT at the reference PC's power: the
        # runner then charges UT's stage its measured time unscaled.
        spec = topo.to_dict()
        for node in spec["nodes"]:
            if node["name"] == "UT":
                assert node["power"] > 1.0
                node["power"] = 1.0
        scaled = VisualizationLoopRunner(topo)
        raw = VisualizationLoopRunner(Topology.from_dict(spec))
        res_scaled = scaled.run_cycle(vrt, g, params={"isovalue": 0.6, "camera": cam})
        res_raw = raw.run_cycle(vrt, g, params={"isovalue": 0.6, "camera": cam})
        ut_scaled = next(s for s in res_scaled.stages if s.node == "UT")
        ut_raw = next(s for s in res_raw.stages if s.node == "UT")
        overhead = topo.node("UT").parallel_overhead
        assert (ut_scaled.compute_seconds - overhead) < (
            ut_raw.compute_seconds - overhead
        )
