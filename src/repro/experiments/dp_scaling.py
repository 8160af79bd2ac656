"""Section 4.5 experiments: DP optimality, complexity scaling, greedy gap.

Three claims to check:

* **optimality** — DP delay equals brute-force minimum on random
  instances (the Eq. 9/10 recursion is exact),
* **complexity** — relaxation count grows linearly in ``n * |E|``
  ("guarantees that our system scales well as the network size
  increases"),
* **greedy gap** — the local heuristic is measurably worse, justifying
  the global DP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InfeasibleMappingError
from repro.mapping.dp import map_pipeline
from repro.mapping.exhaustive import exhaustive_map
from repro.mapping.greedy import greedy_map
from repro.net.topology import LinkSpec, NodeSpec, Topology

__all__ = [
    "ScalingPoint",
    "random_topology",
    "run_dp_scaling",
    "run_dp_optimality",
    "run_greedy_gap",
]

ALL_CAPS = frozenset({"source", "filter", "extract", "render", "display"})


def _connected(n_nodes: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        for v in adj[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n_nodes


def random_topology(rng: np.random.Generator, n_nodes: int, p_edge: float) -> Topology:
    """Seeded connected G(n, p) overlay named ``n0 .. n{n-1}``.

    Each pair ``(u, v)``, ``u < v`` in lexicographic order, is a link
    with probability ``p_edge``; the graph is redrawn from ``rng`` until
    every node is reachable from ``n0``.  Nodes get random powers and
    every capability, links random bandwidths and delays.
    """
    pairs = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes)]
    while True:
        keep = rng.random(len(pairs)) < p_edge
        edges = [pair for pair, k in zip(pairs, keep) if k]
        if _connected(n_nodes, edges):
            break
    nodes = [
        NodeSpec(f"n{i}", power=float(rng.uniform(0.5, 4.0)), capabilities=ALL_CAPS)
        for i in range(n_nodes)
    ]
    links = [
        LinkSpec(f"n{u}", f"n{v}", float(rng.uniform(1e5, 1e7)),
                 float(rng.uniform(0.001, 0.05)))
        for u, v in edges
    ]
    return Topology.from_specs(nodes, links)


def _random_pipeline(rng: np.random.Generator, n_modules: int):
    from repro.viz.pipeline import ModuleSpec, VisualizationPipeline

    mods = [ModuleSpec("src", "source")]
    kinds = ["filter", "extract", "render"]
    for i in range(1, n_modules):
        kind = "display" if i == n_modules - 1 else kinds[(i - 1) % 3]
        mods.append(
            ModuleSpec(
                f"m{i}", kind,
                complexity=float(rng.uniform(1e-8, 5e-7)),
                output_ratio=float(rng.uniform(0.1, 1.2)),
            )
        )
    return VisualizationPipeline(mods, source_bytes=float(rng.uniform(1e5, 1e7)))


@dataclass(frozen=True, slots=True)
class ScalingPoint:
    n_modules: int
    n_nodes: int
    n_edges: int
    operations: int
    work_product: int  # n_messages * |E|


def run_dp_scaling(
    module_counts: tuple[int, ...] = (4, 6, 8, 12, 16),
    node_counts: tuple[int, ...] = (8, 16, 32),
    p_edge: float = 0.3,
    seed: int = 0,
) -> tuple[list[ScalingPoint], float]:
    """Measure DP relaxations across instance sizes.

    Returns the points and the R² of a through-origin linear fit of
    operations against ``n * |E|`` — near 1.0 confirms ``O(n |E|)``.
    """
    rng = np.random.default_rng(seed)
    points: list[ScalingPoint] = []
    for n_nodes in node_counts:
        topo = random_topology(rng, n_nodes, p_edge)
        for n_modules in module_counts:
            pipeline = _random_pipeline(rng, n_modules)
            res = map_pipeline(pipeline, topo, "n0", f"n{n_nodes - 1}")
            points.append(
                ScalingPoint(
                    n_modules=n_modules,
                    n_nodes=n_nodes,
                    n_edges=topo.num_links,
                    operations=res.operations,
                    work_product=(n_modules - 1) * topo.num_links,
                )
            )
    x = np.array([p.work_product for p in points], dtype=float)
    y = np.array([p.operations for p in points], dtype=float)
    slope = float((x * y).sum() / (x * x).sum())
    pred = slope * x
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return points, r2


def run_dp_optimality(trials: int = 20, seed: int = 0) -> tuple[int, float]:
    """DP vs exhaustive on small random instances.

    Returns (trials run, max relative delay gap) — the gap must be ~0.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < trials:
        n_nodes = int(rng.integers(3, 6))
        topo = random_topology(rng, n_nodes, 0.5)
        pipeline = _random_pipeline(rng, int(rng.integers(3, 6)))
        try:
            dp = map_pipeline(pipeline, topo, "n0", f"n{n_nodes - 1}")
        except InfeasibleMappingError:
            # A short pipeline cannot span a long path (every hop needs a
            # module); the oracle must agree the instance is infeasible.
            try:
                exhaustive_map(pipeline, topo, "n0", f"n{n_nodes - 1}")
            except InfeasibleMappingError:
                continue
            raise AssertionError("DP infeasible but exhaustive found a mapping")
        brute = exhaustive_map(pipeline, topo, "n0", f"n{n_nodes - 1}")
        worst = max(worst, abs(dp.delay - brute.delay) / brute.delay)
        done += 1
    return done, worst


def run_greedy_gap(trials: int = 30, seed: int = 1) -> tuple[float, float]:
    """Quality ablation: greedy delay / DP delay over random instances.

    Returns (mean ratio, max ratio); >= 1 by construction.
    """
    rng = np.random.default_rng(seed)
    ratios = []
    while len(ratios) < trials:
        n_nodes = int(rng.integers(4, 10))
        topo = random_topology(rng, n_nodes, 0.4)
        pipeline = _random_pipeline(rng, int(rng.integers(4, 8)))
        try:
            dp = map_pipeline(pipeline, topo, "n0", f"n{n_nodes - 1}")
            gr = greedy_map(pipeline, topo, "n0", f"n{n_nodes - 1}")
        except InfeasibleMappingError:
            continue
        ratios.append(gr.delay / dp.delay)
    arr = np.array(ratios)
    return float(arr.mean()), float(arr.max())
