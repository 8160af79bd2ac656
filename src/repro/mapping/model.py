"""The analytical end-to-end delay model (Eq. 2).

A *mapping* assigns the pipeline's ``n + 1`` modules, in order, to the
``q`` nodes of a path through the network: node ``P[i]`` hosts the
contiguous module group ``g_i``.  The total delay is

.. math::

    T = \\sum_{i=1}^{q} \\frac{1}{p_{P[i]}} \\sum_{j \\in g_i, j \\ge 2}
        c_j m_{j-1}
      + \\sum_{i=1}^{q-1} \\frac{m(g_i)}{b_{P[i], P[i+1]}}

where ``m(g_i)`` is the output of the last module in group ``g_i``.
:func:`evaluate_mapping` computes this (with optional minimum-link-delay
and cluster-distribution-overhead terms) for any candidate mapping; the
DP and the exhaustive oracle both rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InfeasibleMappingError, MappingError
from repro.net.topology import Topology
from repro.viz.pipeline import VisualizationPipeline

__all__ = [
    "Mapping",
    "DelayBreakdown",
    "evaluate_mapping",
    "link_bandwidth",
    "require_endpoints",
]


@dataclass(frozen=True)
class Mapping:
    """A candidate pipeline-to-network assignment.

    ``path`` is the node sequence ``v_s .. v_d``; ``groups[i]`` lists the
    0-based module indices hosted at ``path[i]``.  Groups are contiguous,
    non-empty and cover every module exactly once.
    """

    path: tuple[str, ...]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.path) != len(self.groups):
            raise MappingError("path and groups must have equal length")
        if len(self.path) == 0:
            raise MappingError("mapping cannot be empty")
        flat = [m for g in self.groups for m in g]
        if flat != list(range(len(flat))):
            raise MappingError(
                f"groups must be contiguous, ordered and complete; got {self.groups}"
            )
        if any(len(g) == 0 for g in self.groups):
            raise MappingError("every path node must host at least one module")

    @property
    def n_modules(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def q(self) -> int:
        """Number of groups (path nodes)."""
        return len(self.path)

    def node_of_module(self, j: int) -> str:
        """Path node hosting 0-based module index ``j``."""
        for node, group in zip(self.path, self.groups):
            if j in group:
                return node
        raise MappingError(f"module {j} not in mapping")

    def describe(self) -> str:
        """Human-readable ``node[modules]`` chain."""
        parts = [
            f"{node}[{','.join(str(m) for m in grp)}]"
            for node, grp in zip(self.path, self.groups)
        ]
        return " -> ".join(parts)


@dataclass
class DelayBreakdown:
    """Eq. 2 evaluated, with the per-term decomposition."""

    total: float
    compute: float
    transport: float
    overhead: float
    per_group_compute: list[float] = field(default_factory=list)
    per_link_transport: list[float] = field(default_factory=list)


def require_endpoints(topology: Topology, source: str, destination: str) -> None:
    """Raise :class:`MappingError` naming an endpoint the topology lacks."""
    for role, name in (("source", source), ("destination", destination)):
        if name not in topology:
            raise MappingError(f"unknown {role} node {name!r}")


def link_bandwidth(
    topology: Topology,
    u: str,
    v: str,
    bandwidths: dict[tuple[str, str], float] | None,
) -> float:
    """Effective bandwidth for ``(u, v)``: measured EPB if available,
    otherwise the raw spec bandwidth."""
    if bandwidths is not None:
        key = (u, v) if (u, v) in bandwidths else (v, u)
        if key in bandwidths:
            return bandwidths[key]
    return topology.bandwidth(u, v)


def evaluate_mapping(
    pipeline: VisualizationPipeline,
    topology: Topology,
    mapping: Mapping,
    bandwidths: dict[tuple[str, str], float] | None = None,
    include_min_delay: bool = False,
    include_parallel_overhead: bool = True,
    check_feasibility: bool = True,
) -> DelayBreakdown:
    """Evaluate Eq. 2 for ``mapping``.

    Raises :class:`InfeasibleMappingError` when a module lands on a node
    lacking its required capability (the paper's feasibility checks) or
    when a path hop has no link.
    """
    if mapping.n_modules != pipeline.n_modules:
        raise MappingError(
            f"mapping covers {mapping.n_modules} modules, pipeline has "
            f"{pipeline.n_modules}"
        )
    sizes = pipeline.message_sizes()  # m_1 .. m_n (input of M_{j+1} is m_j)
    reqs = pipeline.requirements()

    compute = 0.0
    overhead = 0.0
    per_group: list[float] = []
    for gi, (node_name, group) in enumerate(zip(mapping.path, mapping.groups)):
        node = topology.node(node_name)
        if check_feasibility:
            for j in group:
                if not node.can(reqs[j]):
                    raise InfeasibleMappingError(
                        f"module {pipeline.modules[j].name!r} requires "
                        f"{reqs[j]!r} but node {node_name!r} offers "
                        f"{sorted(node.capabilities)}"
                    )
        t_group = 0.0
        for j in group:
            if j == 0:
                continue  # the source performs no computation
            t_group += pipeline.modules[j].complexity * sizes[j - 1] / node.power
        # Cluster data-distribution overhead: paid once per dataset
        # arrival at a multi-host node (gi == 0 holds the source locally).
        if include_parallel_overhead and gi > 0 and node.cluster_size > 1 and group:
            overhead += node.parallel_overhead
        per_group.append(t_group)
        compute += t_group

    transport = 0.0
    per_link: list[float] = []
    for i in range(mapping.q - 1):
        u, v = mapping.path[i], mapping.path[i + 1]
        if not topology.has_link(u, v):
            raise InfeasibleMappingError(f"no link {u!r}-{v!r} on mapping path")
        # m(g_i): output of the last module of group i.
        last_module = mapping.groups[i][-1]
        m_out = sizes[last_module] if last_module >= 1 else sizes[0]
        b = link_bandwidth(topology, u, v, bandwidths)
        t_link = m_out / b
        if include_min_delay:
            t_link += topology.prop_delay(u, v)
        per_link.append(t_link)
        transport += t_link

    total = compute + transport + overhead
    return DelayBreakdown(
        total=total,
        compute=compute,
        transport=transport,
        overhead=overhead,
        per_group_compute=per_group,
        per_link_transport=per_link,
    )
