"""Dynamic-programming pipeline configuration (Eqs. 9 and 10).

``T^j(v_i)`` is the minimal delay with the first ``j`` messages (the
first ``j + 1`` modules) mapped onto some path from the source ``v_s``
to ``v_i``.  The recursion either *inherits* (place module ``M_{j+1}``
on the same node, extending the last group) or *extends* over an
incident link from a neighbor ``u``:

.. math::

    T^j(v_i) = \\min\\Big( T^{j-1}(v_i) + \\frac{c_{j+1} m_j}{p_{v_i}},
        \\min_{u \\in adj(v_i)} \\big( T^{j-1}(u)
        + \\frac{c_{j+1} m_j}{p_{v_i}} + \\frac{m_j}{b_{u,v_i}}\\big)\\Big)

with the Eq. 10 base case placing ``M_2`` either at the source or across
one of its links.  Complexity is ``O(n (|V| + |E|))`` — the edge term
dominates, matching the paper's ``O(n |E|)``.

Feasibility constraints ("some nodes are only capable of executing
certain visualization modules") are handled exactly as the paper
suggests: infeasible placements are discarded (set to infinity) at each
recursion step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InfeasibleMappingError, MappingError
from repro.mapping.model import (
    DelayBreakdown,
    Mapping,
    evaluate_mapping,
    link_bandwidth,
    require_endpoints,
)
from repro.net.topology import Topology
from repro.viz.pipeline import VisualizationPipeline

__all__ = ["DPResult", "map_pipeline"]


@dataclass
class DPResult:
    """Optimal mapping plus diagnostics.

    ``operations`` counts inner-loop relaxations — the empirical
    complexity the scaling benchmark checks against ``n * |E|``.
    """

    mapping: Mapping
    delay: float
    breakdown: DelayBreakdown
    operations: int
    table_size: int


def map_pipeline(
    pipeline: VisualizationPipeline,
    topology: Topology,
    source: str,
    destination: str,
    bandwidths: dict[tuple[str, str], float] | None = None,
    include_min_delay: bool = False,
    include_parallel_overhead: bool = True,
    check_feasibility: bool = True,
) -> DPResult:
    """Compute the minimum-delay pipeline mapping via dynamic programming.

    Parameters
    ----------
    pipeline:
        The ``n + 1``-module pipeline (source first).
    topology:
        Overlay graph with node powers and link bandwidths.
    source, destination:
        ``v_s`` (data source host) and ``v_d`` (client/display host).
    bandwidths:
        Optional measured EPB per link (from
        :func:`repro.net.measurement.measure_path`); falls back to spec
        bandwidths.
    include_min_delay:
        Add per-hop minimum link delay to transport terms (the paper
        neglects it; useful when EPB intercepts are significant).
    include_parallel_overhead:
        Charge cluster nodes their data-distribution overhead when a
        dataset first arrives (reproduces the paper's observation that
        MPI modules do not pay off on small data).
    check_feasibility:
        Enforce module-kind capabilities at every placement.
    """
    require_endpoints(topology, source, destination)

    n = pipeline.n_messages
    sizes = pipeline.message_sizes()  # m_1 .. m_n
    comps = pipeline.complexities()  # c_2 .. c_{n+1}
    reqs = pipeline.requirements()
    nodes = topology.node_names
    specs = {name: topology.node(name) for name in nodes}

    if check_feasibility and not specs[source].can(reqs[0]):
        raise InfeasibleMappingError(
            f"source node {source!r} lacks capability {reqs[0]!r}"
        )

    INF = math.inf
    ops = 0

    def feasible(name: str, module_idx: int) -> bool:
        return (not check_feasibility) or specs[name].can(reqs[module_idx])

    def arrival_overhead(name: str) -> float:
        if not include_parallel_overhead:
            return 0.0
        spec = specs[name]
        return spec.parallel_overhead if spec.cluster_size > 1 else 0.0

    def hop_cost(u: str, v: str, m: float) -> float:
        b = link_bandwidth(topology, u, v, bandwidths)
        t = m / b
        if include_min_delay:
            t += topology.prop_delay(u, v)
        return t

    # T[v] for the current j; parent[j][v] = ("inherit", v) | ("link", u).
    T_prev: dict[str, float] = {v: INF for v in nodes}
    parents: list[dict[str, tuple[str, str]]] = []

    # Base case (Eq. 10): place M_2; message m_1 stays local or crosses
    # one link out of the source.
    parent0: dict[str, tuple[str, str]] = {}
    for v in nodes:
        if not feasible(v, 1):
            continue
        if v == source:
            T_prev[v] = comps[0] * sizes[0] / specs[v].power
            parent0[v] = ("inherit", v)
        elif topology.has_link(source, v):
            T_prev[v] = (
                comps[0] * sizes[0] / specs[v].power
                + hop_cost(source, v, sizes[0])
                + arrival_overhead(v)
            )
            parent0[v] = ("link", source)
        ops += 1
    parents.append(parent0)

    # Recursion (Eq. 9) over messages j = 2 .. n.
    for j in range(2, n + 1):
        c = comps[j - 1]  # c_{j+1}
        m = sizes[j - 1]  # m_j
        T_cur: dict[str, float] = {v: INF for v in nodes}
        parent: dict[str, tuple[str, str]] = {}
        for v in nodes:
            if not feasible(v, j):
                ops += 1
                continue
            compute = c * m / specs[v].power
            best = INF
            best_parent: tuple[str, str] | None = None
            if T_prev[v] < INF:
                cand = T_prev[v] + compute
                if cand < best:
                    best, best_parent = cand, ("inherit", v)
            ops += 1
            for u in topology.neighbors(v):
                if T_prev[u] >= INF:
                    ops += 1
                    continue
                cand = T_prev[u] + compute + hop_cost(u, v, m) + arrival_overhead(v)
                if cand < best:
                    best, best_parent = cand, ("link", u)
                ops += 1
            if best_parent is not None:
                T_cur[v] = best
                parent[v] = best_parent
        T_prev = T_cur
        parents.append(parent)

    if T_prev[destination] >= INF:
        raise InfeasibleMappingError(
            f"no feasible mapping from {source!r} to {destination!r} "
            "under the given capabilities/topology"
        )

    # Backtrack: determine which node hosts each module M_2 .. M_{n+1}.
    host = [""] * (n + 1)  # host[j] = node of module index j (0-based)
    host[0] = source
    v = destination
    for j in range(n, 0, -1):
        host[j] = v
        kind, prev = parents[j - 1][v]
        if kind == "link":
            v = prev
    if v != source:  # pragma: no cover - internal invariant
        raise MappingError("DP backtrack did not terminate at the source")

    # Collapse hosts into path + contiguous groups.
    path: list[str] = [host[0]]
    groups: list[list[int]] = [[0]]
    for j in range(1, n + 1):
        if host[j] == path[-1]:
            groups[-1].append(j)
        else:
            path.append(host[j])
            groups.append([j])
    mapping = Mapping(tuple(path), tuple(tuple(g) for g in groups))

    breakdown = evaluate_mapping(
        pipeline,
        topology,
        mapping,
        bandwidths=bandwidths,
        include_min_delay=include_min_delay,
        include_parallel_overhead=include_parallel_overhead,
        check_feasibility=check_feasibility,
    )
    return DPResult(
        mapping=mapping,
        delay=breakdown.total,
        breakdown=breakdown,
        operations=ops,
        table_size=n * len(nodes),
    )
