"""Greedy mapping heuristic (ablation baseline for the DP).

Policy: route along the *shortest transport path* from source to
destination (weighted by the time to move the raw dataset over each
link), then walk the modules along that path greedily — at each step
either keep the next module on the current node or advance to the next
path node, whichever has the lower immediate cost.  Every path node must
host at least one module and the last module must land on the
destination, so the result is always a valid mapping.

This is the natural "local" policy; it cannot discover the off-path
cluster detours the DP finds, which is exactly the quality gap the
ablation benchmark quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InfeasibleMappingError
from repro.mapping.model import (
    DelayBreakdown,
    Mapping,
    evaluate_mapping,
    link_bandwidth,
    require_endpoints,
)
from repro.net.topology import Topology
from repro.viz.pipeline import VisualizationPipeline

__all__ = ["GreedyResult", "greedy_map"]


@dataclass
class GreedyResult:
    """Mapping picked by the greedy policy."""

    mapping: Mapping
    delay: float
    breakdown: DelayBreakdown


def greedy_map(
    pipeline: VisualizationPipeline,
    topology: Topology,
    source: str,
    destination: str,
    bandwidths: dict[tuple[str, str], float] | None = None,
    include_min_delay: bool = False,
    include_parallel_overhead: bool = True,
) -> GreedyResult:
    """Greedy module placement along the shortest transport path."""
    require_endpoints(topology, source, destination)
    sizes = pipeline.message_sizes()
    comps = pipeline.complexities()
    reqs = pipeline.requirements()
    n = pipeline.n_messages

    m1 = sizes[0]

    def weight(u: str, v: str) -> float:
        return m1 / link_bandwidth(topology, u, v, bandwidths)

    path = topology.shortest_path(source, destination, weight)
    if path is None:
        raise InfeasibleMappingError(
            f"greedy: no path from {source!r} to {destination!r}"
        )
    q = len(path)
    if q > n + 1:
        raise InfeasibleMappingError(
            f"greedy: path has {q} nodes but the pipeline only has {n + 1} modules"
        )

    host = [source]
    pos = 0  # index into path
    for j in range(1, n + 1):
        c = comps[j - 1]
        m = sizes[j - 1]
        remaining_modules = n - j  # after this one
        remaining_hops = (q - 1) - pos

        def cost_at(node_name: str, hop: bool) -> float:
            spec = topology.node(node_name)
            if not spec.can(reqs[j]):
                return math.inf
            cost = c * m / spec.power
            if hop:
                cost += m / link_bandwidth(topology, path[pos], node_name, bandwidths)
                if include_min_delay:
                    cost += topology.prop_delay(path[pos], node_name)
                if include_parallel_overhead and spec.cluster_size > 1:
                    cost += spec.parallel_overhead
            return cost

        stay_cost = cost_at(path[pos], hop=False)
        advance_cost = cost_at(path[pos + 1], hop=True) if pos + 1 < q else math.inf
        # Forced moves: every remaining hop still needs a module, and the
        # display module must end on the destination.
        must_advance = remaining_hops > remaining_modules
        may_stay = stay_cost < math.inf and not must_advance
        may_advance = advance_cost < math.inf

        if may_advance and (not may_stay or advance_cost <= stay_cost):
            pos += 1
        elif not may_stay:
            raise InfeasibleMappingError(
                f"greedy: module index {j} has no feasible host on the path"
            )
        host.append(path[pos])

    if host[-1] != destination:  # pragma: no cover - guarded by must_advance
        raise InfeasibleMappingError("greedy: last module did not reach destination")

    out_path: list[str] = [host[0]]
    groups: list[list[int]] = [[0]]
    for j in range(1, n + 1):
        if host[j] == out_path[-1]:
            groups[-1].append(j)
        else:
            out_path.append(host[j])
            groups.append([j])
    mapping = Mapping(tuple(out_path), tuple(tuple(g) for g in groups))
    breakdown = evaluate_mapping(
        pipeline,
        topology,
        mapping,
        bandwidths=bandwidths,
        include_min_delay=include_min_delay,
        include_parallel_overhead=include_parallel_overhead,
    )
    return GreedyResult(mapping=mapping, delay=breakdown.total, breakdown=breakdown)
