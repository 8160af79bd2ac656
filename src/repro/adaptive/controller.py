"""Online per-client QoS controller: the paper's DP mapping, re-run live.

The offline experiments map a visualization pipeline onto a measured
topology once (:func:`repro.mapping.dp.map_pipeline` with EPB estimates
from :mod:`repro.net.measurement`).  This controller closes that loop in
the serving path: each client's passive :class:`ClientLinkEstimator`
yields a live :class:`~repro.net.measurement.PathEstimate`, and the
controller re-runs the *same* DP over a two-node delivery topology
(server --link--> client) once per candidate tier, picking the cheapest
tier whose predicted end-to-end frame delay fits the staleness budget.

Using ``map_pipeline`` for a two-node graph is deliberately heavier than
an arithmetic shortcut: the decision flows through the identical cost
model and feasibility machinery as the offline figures, so the ladder's
operating points and the paper's mapping cannot drift apart.  The DP on
this topology costs a handful of relaxations, and decisions are made on
the housekeeping cadence, so the price is immaterial.

Hysteresis: demotion (or staying put) only needs the predicted delay to
fit the budget, while *promotion* to a better tier requires fitting
``promote_margin`` of the budget — a client must show clear headroom
before getting more expensive frames, which keeps borderline links from
flapping between tiers at every decision.
"""

from __future__ import annotations

from repro.adaptive.tiers import MAX_TIER, TIER_LADDER, clamp_tier
from repro.mapping.dp import map_pipeline
from repro.net.measurement import PathEstimate
from repro.net.topology import LinkSpec, NodeSpec, Topology
from repro.viz.pipeline import ModuleSpec, VisualizationPipeline

__all__ = ["AdaptiveDeliveryController", "next_rung"]

_SERVER = "server"
_CLIENT = "client"

#: Per-byte display cost charged to the client node (decode + blit); the
#: same order as the ``display`` module of ``standard_pipeline``.
_DISPLAY_COMPLEXITY = 1.0e-9


def next_rung(
    tier: int,
    max_tier: int,
    lod_bias: int = 0,
    max_bias: int | None = None,
    *,
    heavy: bool = False,
    stale: bool = False,
    decided_tier: int | None = None,
    decided_bias: int | None = None,
) -> tuple[int, int]:
    """The degrade-before-disconnect ladder: ``(tier, lod_bias)`` to move to.

    One rule for both places a connection is re-graded.  At every
    enqueue the server passes what it sees of the write queue: ``heavy``
    (backlog past half the write budget) sheds one rung per event, so
    frames shrink before the budget can fill, and ``stale`` (backlog
    older than the staleness budget) jumps to the last rung — the client
    is too far behind for intermediate frames to help.  At the
    housekeeping cadence it also passes the controller's verdicts
    (``decide`` as ``decided_tier``, ``decide_lod`` minus the requested
    LOD as ``decided_bias``), which apply when the backlog is neither
    heavy nor stale — including promotions back toward full quality.

    ``max_bias`` is how many LOD levels a windowed client can still be
    coarsened by (None: not windowed); LOD goes first — 8x per level on
    brick payloads — and image tiers once it saturates.  ``max_tier`` is
    the deepest tier the client accepts (0: disconnect, never degrade).
    """
    if not (heavy or stale):
        if decided_bias is not None:
            lod_bias = max(0, decided_bias)
        if decided_tier is not None:
            tier = min(clamp_tier(decided_tier), max_tier)
        return tier, lod_bias
    if max_bias is not None:
        bias = min(max(lod_bias + 1 if heavy else max_bias, 0), max_bias)
        if bias != lod_bias:
            return tier, bias
    if tier < max_tier:
        tier = tier + 1 if heavy else max_tier
    return tier, lod_bias


class AdaptiveDeliveryController:
    """Maps live link estimates to delivery tiers via the DP cost model.

    Parameters
    ----------
    image_bytes:
        Tier-0 image payload size (the store's fixed container size).
        Deeper tiers scale it by their ``payload_fraction``.
    staleness_budget:
        Maximum acceptable predicted delay (seconds) for delivering one
        frame to a client; the knob the degrade-before-disconnect
        machinery is built around.
    promote_margin:
        Fraction of the budget a *better* tier must fit within before a
        client is promoted into it (hysteresis; see module docstring).
    """

    __slots__ = (
        "image_bytes",
        "staleness_budget",
        "promote_margin",
        "_pipelines",
        "_topology",
    )

    def __init__(
        self,
        image_bytes: int = 256 * 1024,
        staleness_budget: float = 0.25,
        promote_margin: float = 0.5,
    ) -> None:
        if image_bytes <= 0:
            raise ValueError(f"image_bytes must be > 0, got {image_bytes}")
        if staleness_budget <= 0.0:
            raise ValueError(f"staleness_budget must be > 0, got {staleness_budget}")
        if not 0.0 < promote_margin <= 1.0:
            raise ValueError(f"promote_margin must be in (0, 1], got {promote_margin}")
        self.image_bytes = int(image_bytes)
        self.staleness_budget = float(staleness_budget)
        self.promote_margin = float(promote_margin)

        # One delivery pipeline per tier, built once: the source emits a
        # tier-scaled frame which the client's display module consumes.
        self._pipelines = tuple(
            VisualizationPipeline(
                [
                    ModuleSpec("frame-source", "source"),
                    ModuleSpec("deliver", "display", complexity=_DISPLAY_COMPLEXITY),
                ],
                source_bytes=max(1.0, self.image_bytes * tier.payload_fraction),
            )
            for tier in TIER_LADDER
        )
        # Two-node delivery topology; the spec bandwidth is a placeholder
        # that every decision overrides with the live EPB measurement.
        self._topology = Topology.from_specs(
            [
                NodeSpec(_SERVER, capabilities=frozenset({"source"})),
                NodeSpec(_CLIENT, capabilities=frozenset({"display"})),
            ],
            [LinkSpec(_SERVER, _CLIENT, bandwidth=1.0, prop_delay=0.0)],
        )

    def predicted_delay(self, tier: int, estimate: PathEstimate) -> float:
        """DP-predicted frame delay for ``tier`` over the estimated link."""
        result = map_pipeline(
            self._pipelines[clamp_tier(tier)],
            self._topology,
            _SERVER,
            _CLIENT,
            bandwidths={(_SERVER, _CLIENT): estimate.epb},
        )
        return result.delay + max(estimate.d_min, 0.0)

    def decide(
        self,
        estimate: PathEstimate | None,
        current_tier: int = 0,
        max_tier: int = MAX_TIER,
    ) -> int:
        """Pick the tier for a client given its live estimate.

        ``max_tier`` is the deepest tier the client accepts (its
        ``min_quality`` hint); ``None`` estimates (cold start /
        unconstrained link) keep the current tier.
        """
        floor = clamp_tier(max_tier)
        current = min(clamp_tier(current_tier), floor)
        if estimate is None or estimate.epb <= 0.0:
            return current
        for tier in TIER_LADDER[: floor + 1]:
            budget = self.staleness_budget
            if tier.index < current:
                budget *= self.promote_margin
            if self.predicted_delay(tier.index, estimate) <= budget:
                return tier.index
        return floor

    # -- sliding-window LOD ladder -------------------------------------------------

    def predicted_window_delay(
        self, payload_bytes: float, estimate: PathEstimate
    ) -> float:
        """DP-predicted delay for delivering one window refresh.

        Same machinery as :meth:`predicted_delay`, but the payload is a
        window's worth of brick bytes rather than a tier's image blob —
        the sliding-window plane and the image tiers share one cost
        model, so their budgets cannot drift apart.
        """
        pipeline = VisualizationPipeline(
            [
                ModuleSpec("window-source", "source"),
                ModuleSpec("deliver", "display", complexity=_DISPLAY_COMPLEXITY),
            ],
            source_bytes=max(1.0, float(payload_bytes)),
        )
        result = map_pipeline(
            pipeline,
            self._topology,
            _SERVER,
            _CLIENT,
            bandwidths={(_SERVER, _CLIENT): estimate.epb},
        )
        return result.delay + max(estimate.d_min, 0.0)

    def decide_lod(
        self,
        estimate: PathEstimate | None,
        current_lod: int,
        requested_lod: int,
        max_lod: int,
        window_bytes: int,
    ) -> int:
        """Pick the LOD for a windowed client given its live estimate.

        The LOD ladder is the window plane's analogue of the tier
        ladder: each coarser level keeps the window's spatial extent but
        doubles the sample stride per axis, cutting payload bytes ~8x.
        ``requested_lod`` is the client's steered level (never refined
        past it — that is the client's choice); ``max_lod`` the octree's
        coarsest.  Promotion back toward the requested level applies the
        same ``promote_margin`` hysteresis as tier promotion.
        """
        lo = max(int(requested_lod), 0)
        hi = max(int(max_lod), lo)
        current = min(max(int(current_lod), lo), hi)
        if estimate is None or estimate.epb <= 0.0 or window_bytes <= 0:
            return current
        for lod in range(lo, hi + 1):
            budget = self.staleness_budget
            if lod < current:
                budget *= self.promote_margin
            payload = window_bytes / float(8 ** (lod - lo))
            if self.predicted_window_delay(payload, estimate) <= budget:
                return lod
        return hi
