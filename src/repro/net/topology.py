"""Overlay network topology: node and link specifications.

The transport network of the paper is a graph ``G = (V, E)`` where node
``v_i`` has normalized computing power ``p_i`` and link ``L_{i,j}`` has
bandwidth ``b_{i,j}`` and minimum delay ``d_{i,j}`` (Section 4.2).  This
module provides exactly that representation plus capability metadata used by
the feasibility checks of Section 4.5 ("some nodes are only capable of
executing certain visualization modules").
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, asdict
from typing import Callable, Iterable, Iterator

from repro.errors import TopologyError

__all__ = ["NodeSpec", "LinkSpec", "Topology"]


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """A computing node in the overlay.

    Attributes
    ----------
    name:
        Unique node identifier (site name in the testbed).
    power:
        Normalized computing power ``p_i`` (1.0 = reference PC).  For a
        cluster this is the *effective aggregate* power seen by a
        block-parallel visualization module.
    capabilities:
        Which module kinds the node may run (``'source'``, ``'filter'``,
        ``'extract'``, ``'render'``, ``'display'``, ``'control'``).  A
        node without ``'render'`` models a host with no graphics card,
        exactly the constraint the paper hits at GaTech/OSU.
    cluster_size:
        Number of hosts (1 for a PC, 8 for the paper's clusters).
    parallel_overhead:
        Fixed per-invocation overhead in seconds for distributing work
        across a cluster (the MPI data-distribution cost the paper notes
        makes clusters unattractive for small datasets).
    triangles_per_sec:
        Rendering throughput used by the Eq. 6 rendering cost model.
    """

    name: str
    power: float = 1.0
    capabilities: frozenset[str] = frozenset({"filter", "extract", "render"})
    cluster_size: int = 1
    parallel_overhead: float = 0.0
    triangles_per_sec: float = 2.0e6

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise TopologyError(f"node {self.name!r}: power must be > 0")
        if self.cluster_size < 1:
            raise TopologyError(f"node {self.name!r}: cluster_size must be >= 1")

    def can(self, capability: str) -> bool:
        """Whether this node may execute modules requiring ``capability``."""
        return capability in self.capabilities


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """A (bidirectional) virtual link of the overlay.

    Bandwidth is in **bytes/second**; ``prop_delay`` is the minimum link
    delay ``d_{i,j}`` in seconds (propagation + base queuing of Eq. 3).
    ``loss_rate`` is the random per-datagram loss probability and
    ``jitter`` the relative standard deviation of stochastic queuing
    noise applied to per-packet delay.
    """

    u: str
    v: str
    bandwidth: float
    prop_delay: float = 0.01
    loss_rate: float = 0.0
    jitter: float = 0.0
    cross_traffic: str = "none"

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise TopologyError(f"link {self.u}-{self.v}: bandwidth must be > 0")
        if not (0.0 <= self.loss_rate < 1.0):
            raise TopologyError(f"link {self.u}-{self.v}: loss_rate must be in [0,1)")
        if self.prop_delay < 0:
            raise TopologyError(f"link {self.u}-{self.v}: negative prop_delay")

    @property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


class Topology:
    """The overlay graph ``G = (V, E)`` with spec-typed nodes and links.

    Nodes live in a name -> :class:`NodeSpec` map and links in an
    adjacency map ``u -> {v: LinkSpec}`` holding each link under both
    endpoints, so lookups are O(1) and every iteration order is
    insertion order.  Links are undirected (the paper's virtual links
    are symmetric overlay paths); per-direction channel state lives in
    :class:`repro.net.channel.SimLink`.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, NodeSpec] = {}
        self._adj: dict[str, dict[str, LinkSpec]] = {}

    # -- construction ---------------------------------------------------------

    def add_node(self, spec: NodeSpec) -> None:
        """Add a node; re-adding the same name replaces its spec."""
        self._nodes[spec.name] = spec
        self._adj.setdefault(spec.name, {})

    def add_link(self, spec: LinkSpec) -> None:
        """Add a link; both endpoints must already exist."""
        for end in (spec.u, spec.v):
            if end not in self._nodes:
                raise TopologyError(f"link references unknown node {end!r}")
        if spec.u == spec.v:
            raise TopologyError(f"self-loop on {spec.u!r} not allowed")
        self._adj[spec.u][spec.v] = spec
        self._adj[spec.v][spec.u] = spec

    @classmethod
    def from_specs(
        cls, nodes: Iterable[NodeSpec], links: Iterable[LinkSpec]
    ) -> "Topology":
        """Build a topology from node and link spec iterables."""
        topo = cls()
        for n in nodes:
            topo.add_node(n)
        for l in links:
            topo.add_link(l)
        return topo

    # -- queries --------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    @property
    def node_names(self) -> list[str]:
        """Node names in insertion order."""
        return list(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def node(self, name: str) -> NodeSpec:
        """Spec of node ``name`` (raises :class:`TopologyError` if absent)."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def has_link(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    def link(self, u: str, v: str) -> LinkSpec:
        """Spec of link ``(u, v)`` (order-insensitive)."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise TopologyError(f"no link between {u!r} and {v!r}") from None

    def neighbors(self, name: str) -> list[str]:
        """Adjacent node names (``adj(v_i)`` in Eq. 9), in link insertion order."""
        return list(self._nbrs(name))

    def links(self) -> Iterator[LinkSpec]:
        """Iterate over all link specs, each once, from its earlier-added end."""
        seen: set[str] = set()
        for u, nbrs in self._adj.items():
            for v, spec in nbrs.items():
                if v not in seen:
                    yield spec
            seen.add(u)

    def nodes(self) -> Iterator[NodeSpec]:
        """Iterate over all node specs."""
        return iter(self._nodes.values())

    def bandwidth(self, u: str, v: str) -> float:
        """Link bandwidth ``b_{u,v}`` in bytes/second."""
        return self.link(u, v).bandwidth

    def prop_delay(self, u: str, v: str) -> float:
        """Minimum link delay ``d_{u,v}`` in seconds."""
        return self.link(u, v).prop_delay

    def path_links(self, path: list[str]) -> list[LinkSpec]:
        """Link specs along a node path (validates adjacency)."""
        if len(path) < 2:
            return []
        return [self.link(u, v) for u, v in zip(path[:-1], path[1:])]

    def simple_paths(self, src: str, dst: str, max_hops: int | None = None) -> list[list[str]]:
        """All simple paths ``src`` -> ``dst`` of at most ``max_hops`` links
        (default ``num_nodes - 1``), depth first in adjacency order
        (for exhaustive search).  ``src == dst`` gives ``[[src]]``."""
        first = self._nbrs(src)
        self._nbrs(dst)
        cutoff = max_hops if max_hops is not None else self.num_nodes - 1
        if src == dst:
            return [[src]] if cutoff >= 0 else []
        paths: list[list[str]] = []
        path = [src]

        def extend(nbrs: dict[str, LinkSpec]) -> None:
            for nxt in nbrs:
                if nxt == dst:
                    paths.append([*path, dst])
                elif nxt not in path and len(path) < cutoff:
                    path.append(nxt)
                    extend(self._adj[nxt])
                    path.pop()

        if cutoff >= 1:
            extend(first)
        return paths

    def shortest_path(
        self, src: str, dst: str, weight: Callable[[str, str], float]
    ) -> list[str] | None:
        """Least-cost path ``src`` -> ``dst`` where crossing ``u -> v``
        costs ``weight(u, v) >= 0`` (Dijkstra; on a cost tie a node keeps
        the predecessor that reached it first).  ``None`` when ``dst`` is
        unreachable."""
        self._nbrs(src)
        self._nbrs(dst)
        dist = {src: 0.0}
        prev: dict[str, str] = {}
        done: set[str] = set()
        order = itertools.count()
        heap = [(0.0, next(order), src)]
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in done:
                continue
            if u == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(prev[path[-1]])
                return path[::-1]
            done.add(u)
            for v in self._adj[u]:
                if v in done:
                    continue
                cost = d + weight(u, v)
                if v not in dist or cost < dist[v]:
                    dist[v] = cost
                    prev[v] = u
                    heapq.heappush(heap, (cost, next(order), v))
        return None

    def _nbrs(self, name: str) -> dict[str, LinkSpec]:
        try:
            return self._adj[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (capabilities become sorted lists)."""
        nodes = []
        for spec in self.nodes():
            d = asdict(spec)
            d["capabilities"] = sorted(spec.capabilities)
            nodes.append(d)
        return {"nodes": nodes, "links": [asdict(l) for l in self.links()]}

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        """Inverse of :meth:`to_dict`."""
        nodes = [
            NodeSpec(**{**nd, "capabilities": frozenset(nd["capabilities"])})
            for nd in data["nodes"]
        ]
        links = [LinkSpec(**ld) for ld in data["links"]]
        return cls.from_specs(nodes, links)
