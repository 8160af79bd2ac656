"""Tests for the adaptive delivery plane: estimator, controller, serving.

Unit layers first (passive link estimation discipline, DP-backed tier
decisions), then the live server: tier plumbing end to end, the
degrade-before-disconnect ordering, the ``min_quality`` pin, and the
/api/v1/stats accounting identities (heartbeat and farewell bytes are
counted on the push transports).
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.adaptive import (
    MAX_TIER,
    TIER_LADDER,
    AdaptiveDeliveryController,
    ClientLinkEstimator,
    clamp_tier,
    next_rung,
)
from repro.costmodel.calibration import default_calibration
from repro.net import build_paper_testbed
from repro.net.measurement import PathEstimate
from repro.steering import CentralManager, SteeringClient
from repro.web import AjaxWebServer
from repro.web.client import SteeringWebClient


def _estimate(epb: float, d_min: float = 0.0) -> PathEstimate:
    return PathEstimate(epb=epb, d_min=d_min, r2=0.0, n_samples=10)


class TestTierLadder:
    def test_ladder_shape(self):
        assert len(TIER_LADDER) == MAX_TIER + 1
        assert [t.index for t in TIER_LADDER] == list(range(MAX_TIER + 1))
        # payload cost is strictly non-increasing down the ladder
        fractions = [t.payload_fraction for t in TIER_LADDER]
        assert fractions == sorted(fractions, reverse=True)
        assert TIER_LADDER[0].scale == 1 and not TIER_LADDER[0].snapshot_only
        assert TIER_LADDER[MAX_TIER].snapshot_only

    def test_clamp(self):
        assert clamp_tier(-1) == 0
        assert clamp_tier(0) == 0
        assert clamp_tier(MAX_TIER + 7) == MAX_TIER


class TestClientLinkEstimator:
    def test_unconstrained_client_stays_cold(self):
        """Inline flushes that never leave a backlog carry no signal."""
        est = ClientLinkEstimator()
        now = 0.0
        for _ in range(50):
            est.on_backlog(0, now)
            est.on_drain(4096, 0, now)
            now += 0.01
        assert est.estimate() is None

    def test_constrained_windows_produce_an_estimate(self):
        est = ClientLinkEstimator(min_samples=3)
        now = 0.0
        for _ in range(4):
            est.on_backlog(100_000, now)          # backlog opens the window
            est.on_drain(50_000, 50_000, now + 0.5)  # partial drain: sample
            est.on_drain(50_000, 0, now + 1.0)       # empties: sample+latency
            now += 2.0
        live = est.estimate()
        assert live is not None
        assert live.epb == pytest.approx(100_000, rel=0.01)
        assert live.d_min == pytest.approx(1.0, rel=0.01)

    def test_drain_without_window_is_ignored(self):
        est = ClientLinkEstimator(min_samples=1)
        est.on_drain(1_000_000, 0, 1.0)  # no on_backlog first: no window
        assert est.estimate() is None

    def test_backlog_age_tracks_oldest_unflushed(self):
        est = ClientLinkEstimator()
        assert est.backlog_age(5.0) == 0.0
        est.on_backlog(1000, 1.0)
        est.on_backlog(2000, 2.0)  # same episode: age anchored at 1.0
        assert est.backlog_age(3.0) == pytest.approx(2.0)
        est.on_drain(3000, 0, 3.5)  # fully drained
        est.on_backlog(0, 3.5)
        assert est.backlog_age(4.0) == 0.0


class TestControllerDecisions:
    def _ctl(self, **kw):
        kw.setdefault("image_bytes", 256 * 1024)
        kw.setdefault("staleness_budget", 0.25)
        return AdaptiveDeliveryController(**kw)

    def test_fast_link_gets_full_quality(self):
        ctl = self._ctl()
        assert ctl.decide(_estimate(100e6), current_tier=0) == 0

    def test_slow_link_degrades(self):
        ctl = self._ctl()
        tier = ctl.decide(_estimate(500e3), current_tier=0)
        assert tier >= 1
        # predicted delay at the chosen tier actually fits the budget
        assert ctl.predicted_delay(tier, _estimate(500e3)) <= 0.25

    def test_hopeless_link_lands_on_snapshot_tier(self):
        ctl = self._ctl()
        assert ctl.decide(_estimate(10e3), current_tier=0) == MAX_TIER

    def test_cold_start_keeps_current_tier(self):
        ctl = self._ctl()
        assert ctl.decide(None, current_tier=2) == 2
        assert ctl.decide(_estimate(0.0), current_tier=1) == 1

    def test_promotion_needs_headroom(self):
        """A borderline link is not promoted back (hysteresis)."""
        ctl = self._ctl(promote_margin=0.5)
        # find a rate where tier 0 fits the budget but not half of it
        borderline = None
        for epb in (8e5, 1e6, 1.5e6, 2e6, 3e6, 5e6):
            d = ctl.predicted_delay(0, _estimate(epb))
            if 0.125 < d <= 0.25:
                borderline = epb
                break
        assert borderline is not None
        assert ctl.decide(_estimate(borderline), current_tier=0) == 0
        assert ctl.decide(_estimate(borderline), current_tier=2) > 0

    def test_min_quality_floor_caps_degradation(self):
        ctl = self._ctl()
        assert ctl.decide(_estimate(10e3), current_tier=0, max_tier=1) == 1
        assert ctl.decide(_estimate(10e3), current_tier=0, max_tier=0) == 0

    def test_d_min_counts_against_the_budget(self):
        ctl = self._ctl()
        fast = _estimate(100e6, d_min=0.0)
        laggy = _estimate(100e6, d_min=10.0)
        assert ctl.decide(fast, current_tier=0) == 0
        # propagation delay alone can exhaust the budget at every tier
        assert ctl.decide(laggy, current_tier=0) == MAX_TIER

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdaptiveDeliveryController(image_bytes=0)
        with pytest.raises(ValueError):
            AdaptiveDeliveryController(staleness_budget=0.0)
        with pytest.raises(ValueError):
            AdaptiveDeliveryController(promote_margin=0.0)


class TestDegradeLadder:
    """``next_rung`` as a table: no server, no throttled connection."""

    #: (tier, max_tier, lod_bias, max_bias, heavy, stale) -> (tier, lod_bias)
    TABLE = [
        # neither heavy nor stale, no verdicts: stay put
        ((0, 3, 0, None, False, False), (0, 0)),
        ((1, 3, 2, 3, False, False), (1, 2)),
        # whole-domain client: heavy sheds one tier per event, stale jumps
        ((0, 3, 0, None, True, False), (1, 0)),
        ((2, 3, 0, None, True, False), (3, 0)),
        ((0, 3, 0, None, False, True), (3, 0)),
        ((1, 2, 0, None, False, True), (2, 0)),
        ((0, 3, 0, None, True, True), (1, 0)),  # heavy wins: one rung
        # at the floor there is nowhere to go
        ((3, 3, 0, None, True, True), (3, 0)),
        ((1, 1, 0, None, True, False), (1, 0)),
        # min_quality=0 pins full quality: disconnect rather than degrade
        ((0, 0, 0, None, True, True), (0, 0)),
        # windowed client: LOD coarsens first, the tier does not move
        ((0, 3, 0, 2, True, False), (0, 1)),
        ((0, 3, 1, 2, True, True), (0, 2)),
        ((0, 3, 0, 2, False, True), (0, 2)),  # stale: straight to coarsest
        ((0, 0, 0, 2, True, False), (0, 1)),  # even when the tier is pinned
        # LOD ladder saturated (or the octree has one level): tiers take over
        ((0, 3, 2, 2, True, False), (1, 2)),
        ((0, 3, 2, 2, False, True), (3, 2)),
        ((0, 3, 0, 0, True, False), (1, 0)),
        ((3, 3, 2, 2, True, True), (3, 2)),
        ((0, 0, 2, 2, True, True), (0, 2)),
        # the client asked for a coarser window since: the bias follows it in
        ((0, 3, 3, 1, True, False), (0, 1)),
        # a bias left over from an unbound window is not touched
        ((0, 3, 2, None, True, False), (1, 2)),
    ]

    @pytest.mark.parametrize("inputs, want", TABLE)
    def test_table(self, inputs, want):
        tier, max_tier, lod_bias, max_bias, heavy, stale = inputs
        assert next_rung(tier, max_tier, lod_bias, max_bias,
                         heavy=heavy, stale=stale) == want

    @pytest.mark.parametrize("heavy, stale", [(True, False), (False, True),
                                              (True, True)])
    def test_a_backlog_overrides_the_controllers_verdicts(self, heavy, stale):
        calm = next_rung(2, 3, 1, 2, decided_tier=0, decided_bias=0)
        assert calm == (0, 0)  # housekeeping promotes when the queue is quiet
        pressed = next_rung(2, 3, 1, 2, heavy=heavy, stale=stale,
                            decided_tier=0, decided_bias=0)
        assert pressed == (2, 2)

    def test_verdicts_are_clamped_to_what_the_client_accepts(self):
        assert next_rung(0, 1, 0, 2, decided_tier=3, decided_bias=-1) == (1, 0)
        assert next_rung(1, 3, 0, None, decided_tier=MAX_TIER + 5) == (MAX_TIER, 0)

    def test_ladder_walk_never_skips_the_lod_rungs(self):
        """Heavy on every event: LOD 0 -> max, then tiers 0 -> floor, then stop."""
        state, seen = (0, 0), []
        for _ in range(8):
            state = next_rung(state[0], 2, state[1], 2, heavy=True)
            seen.append(state)
        assert seen == [(0, 1), (0, 2), (1, 2), (2, 2)] + [(2, 2)] * 4


@pytest.fixture(scope="module")
def cm():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration())


def _tiny_image():
    import numpy as np

    from repro.viz.image import Image

    px = np.full((16, 16, 4), 77, dtype="uint8")
    px[:, :, 3] = 255
    return Image(px)


class TestServingPlane:
    def test_tier_surfaces_in_deltas_and_client(self, cm):
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("adaptive")
            store.publish_status("session", tick=1)
            wc = SteeringWebClient(server.url, session="adaptive",
                                   min_quality=2)
            delta = wc.poll(timeout=1.0)
            assert delta["tier"] == 0  # healthy loopback: full quality
            assert wc.tier == 0
            stats = server.stats()
            assert len(stats["tiers"]) == MAX_TIER + 1

    def test_tiered_image_fetch(self, cm):
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("tiles")
            store.publish_image(_tiny_image(), cycle=1)
            wc = SteeringWebClient(server.url, session="tiles")
            assert wc.fetch_image().width == 16
            assert wc.fetch_image(tier=1).width == 8
            assert wc.fetch_image(tier=2).width == 4
            png_full = wc.fetch_png()
            png_quarter = wc.fetch_png(tier=2)
            assert png_full[:8] == b"\x89PNG\r\n\x1a\n"
            assert png_quarter[:8] == b"\x89PNG\r\n\x1a\n"
            assert png_quarter != png_full
            assert store.tier_encode_count >= 2

    def _stalled_stream(self, server, sid: str, query: str = "") -> socket.socket:
        """Open an SSE stream and then never read from it."""
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.sendall(
            f"GET /api/v1/{sid}/stream?since=0{query} HTTP/1.1\r\n"
            f"Host: x\r\n\r\n".encode()
        )
        return sock

    def test_slow_stream_degrades_before_disconnect(self, cm):
        """Satellite guard, in miniature: backlog sheds tiers, keeps the
        connection, and the tier-change counters observe it."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0, write_budget=2 * 1024 * 1024,
                           housekeeping_interval=0.05,
                           staleness_budget=0.2, sndbuf=8192) as server:
            store = client.manager.open_monitor("slowpoke")
            stalled = self._stalled_stream(server, "slowpoke")
            try:
                time.sleep(0.1)  # let the subscription land
                # enough backlog to cross write_budget/2, not the budget
                for tick in range(24):
                    store.publish_status("session", tick=tick,
                                         pad="x" * 50_000)
                    time.sleep(0.01)
                deadline = 100
                while server.stats()["tier_demotions"] < 1 and deadline:
                    time.sleep(0.02)
                    deadline -= 1
                stats = server.stats()
                assert stats["tier_demotions"] >= 1
                assert sum(stats["tiers"][1:]) >= 1  # someone runs degraded
                assert stats["slow_client_disconnects"] == 0
            finally:
                stalled.close()

    def test_min_quality_zero_pins_full_tier(self, cm):
        """A client that opts out of degradation never changes tier."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0, write_budget=2 * 1024 * 1024,
                           housekeeping_interval=0.05,
                           staleness_budget=0.2, sndbuf=8192) as server:
            store = client.manager.open_monitor("pinned")
            stalled = self._stalled_stream(server, "pinned",
                                           query="&min_quality=0")
            try:
                time.sleep(0.1)
                for tick in range(24):
                    store.publish_status("session", tick=tick,
                                         pad="x" * 50_000)
                    time.sleep(0.01)
                time.sleep(0.3)  # several housekeeping/retier passes
                stats = server.stats()
                assert stats["tier_demotions"] == 0
                assert sum(stats["tiers"][1:]) == 0
            finally:
                stalled.close()


class TestStatsConsistency:
    def test_transport_bytes_include_heartbeats_and_farewells(self, cm):
        client = SteeringClient(cm)
        server = AjaxWebServer(client, port=0, keepalive_timeout=0.4,
                               housekeeping_interval=0.1)
        server.start()
        try:
            client.manager.open_monitor("pulse")
            wc = SteeringWebClient(server.url, session="pulse",
                                   backoff_base=0.01, max_retries=1)
            gen = wc.events(transport="sse", timeout=0.3)
            next(gen)  # ride the stream so heartbeats have a target
            deadline = 100
            while deadline:
                t = server.stats()["transports"]["sse"]
                if t["heartbeats"] >= 1:
                    break
                next(gen)
                deadline -= 1
            quiet = server.stats()["transports"]["sse"]
            assert quiet["heartbeats"] >= 1
            # heartbeat bytes land in the transport's bytes_sent: more
            # bytes than the delivered deltas alone explain is exactly
            # the drift satellite (a) closes.
            assert quiet["bytes_sent"] > 0
            # evict the session: the goodbye is counted as farewell bytes
            client.manager.idle_timeout = 0.2
            before = quiet["bytes_sent"]
            with pytest.raises((StopIteration, Exception)):
                for _ in range(80):
                    next(gen)
            gen.close()
            deadline = 100
            while server.stats()["transports"]["sse"]["farewells"] < 1 and deadline:
                time.sleep(0.02)
                deadline -= 1
            after = server.stats()["transports"]["sse"]
            assert after["farewells"] >= 1
            assert after["bytes_sent"] > before
        finally:
            client.manager.idle_timeout = 600.0
            server.stop()

    def test_transport_payload_sum_bounded_by_raw_bytes(self, cm):
        """Per-transport payload accounting never exceeds raw socket
        bytes (headers explain the gap) once the server is quiescent."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("bound")
            store.publish_status("session", tick=1)
            wc = SteeringWebClient(server.url, session="bound")
            wc.poll(timeout=1.0)
            deltas = wc.events(transport="ws", timeout=0.2)
            next(deltas)
            deltas.close()
            time.sleep(0.1)
            stats = server.stats()
            payload = sum(
                t["bytes_sent"] for t in stats["transports"].values()
            )
            assert 0 < payload <= stats["bytes_sent"]

    def test_stats_json_roundtrips_over_http(self, cm):
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            wc = SteeringWebClient(server.url)
            stats = json.loads(wc._get("/api/v1/stats").decode("utf-8"))
            for key in ("tiers", "tier_promotions", "tier_demotions"):
                assert key in stats
            for t in stats["transports"].values():
                for key in ("delivered", "bytes_sent", "heartbeats",
                            "farewells"):
                    assert key in t
