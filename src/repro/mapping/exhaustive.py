"""Brute-force mapping oracle (optimality check for the DP).

Enumerates every *walk* from source to destination with at most
``n + 1`` nodes (the DP may profitably revisit a node — e.g. ship data
to a fast cluster and return results to the origin) and every
composition of the modules into non-empty contiguous groups over the
walk, evaluating Eq. 2 for each.  Exponential — use only on small
instances (tests and the optimality benchmark).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.errors import InfeasibleMappingError
from repro.mapping.model import DelayBreakdown, Mapping, evaluate_mapping, require_endpoints
from repro.net.topology import Topology
from repro.viz.pipeline import VisualizationPipeline

__all__ = ["ExhaustiveResult", "exhaustive_map", "enumerate_walks", "compositions"]


@dataclass
class ExhaustiveResult:
    """Best mapping found by brute force."""

    mapping: Mapping
    delay: float
    breakdown: DelayBreakdown
    candidates_evaluated: int


def enumerate_walks(
    topology: Topology, source: str, destination: str, max_nodes: int
) -> list[list[str]]:
    """All walks source -> destination with <= ``max_nodes`` nodes.

    Immediate back-tracking (u -> v -> u -> v ...) is allowed — those
    walks are valid pipeline routes in the model; they are simply never
    optimal unless the revisit buys computation.
    """
    walks: list[list[str]] = []

    def extend(walk: list[str]) -> None:
        if walk[-1] == destination:
            walks.append(list(walk))
        if len(walk) >= max_nodes:
            return
        for nxt in topology.neighbors(walk[-1]):
            walk.append(nxt)
            extend(walk)
            walk.pop()

    extend([source])
    return walks


def compositions(n_items: int, n_groups: int) -> list[list[tuple[int, ...]]]:
    """All splits of ``range(n_items)`` into ``n_groups`` ordered,
    non-empty, contiguous groups."""
    if n_groups > n_items:
        return []
    out: list[list[tuple[int, ...]]] = []
    for cuts in itertools.combinations(range(1, n_items), n_groups - 1):
        bounds = (0, *cuts, n_items)
        out.append(
            [tuple(range(bounds[i], bounds[i + 1])) for i in range(n_groups)]
        )
    return out


def exhaustive_map(
    pipeline: VisualizationPipeline,
    topology: Topology,
    source: str,
    destination: str,
    bandwidths: dict[tuple[str, str], float] | None = None,
    include_min_delay: bool = False,
    include_parallel_overhead: bool = True,
    check_feasibility: bool = True,
) -> ExhaustiveResult:
    """Evaluate every (walk, composition) candidate; return the minimum."""
    require_endpoints(topology, source, destination)
    n_modules = pipeline.n_modules
    best_delay = math.inf
    best: tuple[Mapping, DelayBreakdown] | None = None
    evaluated = 0

    for walk in enumerate_walks(topology, source, destination, n_modules):
        q = len(walk)
        for groups in compositions(n_modules, q):
            mapping = Mapping(tuple(walk), tuple(groups))
            try:
                bd = evaluate_mapping(
                    pipeline,
                    topology,
                    mapping,
                    bandwidths=bandwidths,
                    include_min_delay=include_min_delay,
                    include_parallel_overhead=include_parallel_overhead,
                    check_feasibility=check_feasibility,
                )
            except InfeasibleMappingError:
                continue
            evaluated += 1
            if bd.total < best_delay:
                best_delay = bd.total
                best = (mapping, bd)

    if best is None:
        raise InfeasibleMappingError(
            f"no feasible mapping from {source!r} to {destination!r}"
        )
    return ExhaustiveResult(
        mapping=best[0],
        delay=best_delay,
        breakdown=best[1],
        candidates_evaluated=evaluated,
    )
