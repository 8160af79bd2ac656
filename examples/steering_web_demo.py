#!/usr/bin/env python3
"""Monitor and steer concurrent simulations through the Ajax web server.

Reproduces the Fig. 6 scenario and goes one step further: a VH1-style
bow-shock run AND a heat-diffusion run are served *simultaneously* by one
multi-session server — each browser (or programmatic Ajax client) picks
its session with ``/?session=<name>`` and long-polls
``/api/v1/<name>/poll``.  The bow shock is steered mid-flight — the wind
speed is raised, visibly strengthening the shock.

Two modes:

* ``python examples/steering_web_demo.py``            — headless: a
  programmatic Ajax client drives the sessions and saves before/after
  PNGs next to this script.
* ``python examples/steering_web_demo.py --serve 60`` — keeps the server
  alive for N extra seconds so you can open the printed URL in a real
  browser and click the steering controls yourself.

``--transport {longpoll,sse,ws}`` picks how the demo client receives its
updates: repeated long polls (the default, what the embedded page does),
a Server-Sent Events stream, or a WebSocket.  All three ride the same
encode-once delta core; the streamed transports hold one connection open
instead of re-requesting per update.

``--emulate-slow N`` adds N viewers throttled to an emulated 1 Mbit/s
modem link (rate from the simulated bottleneck in
``repro.net.channel``) and prints the live tier gauge while the
adaptive controller demotes them — watch the slow viewers slide down
the tier ladder while the LAN client keeps full quality and nobody is
disconnected.

``--dashboard [PATH]`` turns on the durable ops tier: every published
event is journaled, metrics are sampled on the housekeeping tick, and
the server additionally serves

* ``GET /dashboard`` — a dependency-free live ops page (sparkline
  charts of wake latency, bytes/s, tier distribution, executor load),
* ``GET /api/v1/metrics`` — recorder/journal/store health + series names,
* ``GET /api/v1/metrics/history?series=&since=&step=`` — windowed samples,
* ``POST /api/v1/replay/<sid>`` — re-hydrate a finished session's journal
  as a fresh read-only session (``{"rate_hz": N}`` paces it live).

With a PATH argument the metrics and journal also persist to a
WAL-mode SQLite file there, so dashboard history and replay survive a
server restart.

``--window`` attaches an out-of-core octree domain (65^3 samples, far
larger than any viewport) to the bow-shock session and pans a 17^3
sliding window across it through the versioned window routes
(``POST /api/v1/<sid>/window`` + ``GET /api/v1/<sid>/brick``): the
client fetches only the bricks its viewport intersects, and the pan
lands on payloads prefetched along the pan direction — the byte
accounting is printed at the end.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

from repro.costmodel import default_calibration
from repro.net import build_paper_testbed
from repro.steering import CentralManager, SteeringClient
from repro.web import AjaxWebServer, SteeringWebClient
from repro.web.client import TRANSPORTS


def _parse_args() -> tuple[float, str, int, object, bool]:
    serve_extra = 0.0
    transport = "longpoll"
    emulate_slow = 0
    dashboard: object = False
    argv = sys.argv
    if "--serve" in argv:
        idx = argv.index("--serve")
        serve_extra = float(argv[idx + 1]) if idx + 1 < len(argv) else 120.0
    if "--transport" in argv:
        idx = argv.index("--transport")
        if idx + 1 >= len(argv) or argv[idx + 1] not in TRANSPORTS:
            sys.exit(f"--transport must be one of {'/'.join(TRANSPORTS)}")
        transport = argv[idx + 1]
    if "--emulate-slow" in argv:
        idx = argv.index("--emulate-slow")
        emulate_slow = int(argv[idx + 1]) if idx + 1 < len(argv) else 2
    if "--dashboard" in argv:
        idx = argv.index("--dashboard")
        # Optional PATH operand: persist metrics + journal to SQLite there.
        if idx + 1 < len(argv) and not argv[idx + 1].startswith("--"):
            dashboard = argv[idx + 1]
        else:
            dashboard = True
    return serve_extra, transport, emulate_slow, dashboard, "--window" in argv


def _spawn_slow_viewers(port: int, sid: str, n: int):
    """Start ``n`` WebSocket viewers throttled to an emulated modem link.

    Reuses the benchmark's viewer, paced: image blobs ride inline
    (``images=binary``) so the payloads actually stress the slow link, the
    drain rate is capped at the simulated bottleneck bandwidth, and a
    small receive buffer keeps the backlog server-visible — exactly the
    congestion signal the adaptive controller reacts to.
    """
    from repro.experiments.web_concurrency import Viewer, emulated_slow_bandwidth

    bandwidth = emulated_slow_bandwidth(mbits=1.0)
    stop = threading.Event()
    gate = threading.Barrier(n + 1)
    viewers = [Viewer(port, sid, stop, gate, transport="ws", images="binary",
                      pace=bandwidth) for _ in range(n)]
    for viewer in viewers:
        viewer.start()
    gate.wait()
    return stop, viewers, bandwidth


def _print_tiers(server: AjaxWebServer, label: str) -> None:
    stats = server.stats()
    gauge = " ".join(
        f"tier{i}={n}" for i, n in enumerate(stats["tiers"])
    )
    print(f"  [{label}] live tiers: {gauge}  "
          f"(demotions {stats['tier_demotions']}, "
          f"promotions {stats['tier_promotions']}, "
          f"slow disconnects {stats['slow_client_disconnects']})")


def _demo_sliding_window(server: AjaxWebServer, web: SteeringWebClient) -> None:
    """Pan a small viewport across an out-of-core domain, printing the
    byte accounting the sliding-window plane exists for."""
    import numpy as np

    from repro.data.grid import StructuredGrid
    from repro.data.octree import Octree
    from repro.window import WindowedDomainSource

    rng = np.random.default_rng(0)
    tree = Octree(StructuredGrid(rng.random((65, 65, 65), dtype=np.float32)),
                  leaf_cells=16)
    store = server.manager.events("bowshock")
    store.set_window_source(WindowedDomainSource(tree))
    store.publish_window_step(0)
    total = len(tree.bricks(0))
    print(f"sliding window: 65^3 out-of-core domain ({total} bricks), "
          f"17^3 viewport panning +x")
    lo, hi = [0, 0, 0], [17, 17, 17]
    fetched = bytes_rx = 0
    for _ in range(4):
        resp = web.set_window(lo, hi, lod=0)
        for meta in resp["bricks"]:
            payload = web.fetch_brick(meta["lod"], meta["brick"])
            bytes_rx += payload["values"].nbytes
            fetched += 1
        lo[0] += 16
        hi[0] += 16
    stats = web.window_info()["stats"]
    print(f"  fetched {fetched} of {total} bricks ({bytes_rx:,} payload "
          f"bytes) — only what the viewport intersects")
    print(f"  pan prefetch: {stats['prefetch_hits']}/{stats['prefetch_issued']}"
          f" hits ({100 * stats['prefetch_hit_rate']:.0f}%)")


def main() -> None:
    serve_extra, transport, emulate_slow, dashboard, window_demo = _parse_args()

    topology, roles = build_paper_testbed(with_cross_traffic=False)
    print("calibrating cost models ...")
    cm = CentralManager(topology, roles, calibration=default_calibration(0))
    client = SteeringClient(cm)

    # A small kernel send buffer makes slow-reader backlog visible to the
    # adaptive controller quickly enough to watch within the demo's run.
    server_kwargs: dict = {}
    if emulate_slow > 0:
        server_kwargs = {"sndbuf": 65536, "housekeeping_interval": 0.2}
    if dashboard:
        server_kwargs["obs"] = dashboard  # True, or the SQLite path
        # Sample often enough that the sparklines move within the demo.
        server_kwargs.setdefault("housekeeping_interval", 0.5)

    with AjaxWebServer(client, port=0, **server_kwargs) as server:
        print(f"Ajax web server listening on {server.url}")
        print(f"client transport: {transport}")
        if dashboard:
            print(f"ops dashboard:  {server.url}/dashboard")
            print(f"  metrics API:  {server.url}/api/v1/metrics  "
                  f"and /api/v1/metrics/history?series=&since=&step=")
            print(f"  replay API:   POST {server.url}/api/v1/replay/<session>")
            if isinstance(dashboard, str):
                print(f"  durable store: {dashboard} (history survives restart)")
        print("starting bow-shock simulation (VH1 sweeps + RICSA hooks) ...")
        bowshock = client.start(
            simulator="bowshock",
            variable="pressure",
            technique="isosurface",
            n_cycles=120,
            session_id="bowshock",
            sim_kwargs={"shape": (40, 24, 24)},
            push_every=4,
        )
        print("starting a second concurrent session (heat diffusion) ...")
        client.start(
            simulator="heat",
            technique="isosurface",
            n_cycles=120,
            session_id="heat",
            sim_kwargs={"shape": (16, 16, 16)},
            push_every=4,
        )
        print(f"configured loop: {bowshock.decision.vrt.loop_description()}")
        print(f"sessions: {sorted(client.manager.sessions())}")

        slow_stop = None
        slow_viewers = []
        if emulate_slow > 0:
            slow_stop, slow_viewers, bandwidth = _spawn_slow_viewers(
                server.port, "bowshock", emulate_slow
            )
            print(f"emulating {emulate_slow} slow viewer(s) at "
                  f"{bandwidth * 8 / 1e6:.1f} Mbit/s (simulated bottleneck)")

        web = SteeringWebClient(server.url, session="bowshock")
        props = web.wait_for_component(
            "image", polls=60, timeout=3.0, transport=transport
        )
        print(f"first frame: cycle {props['cycle']}, "
              f"loop delay {props['total_delay']:.3f}s")
        before = web.fetch_png()
        Path(__file__).with_name("bowshock_before.png").write_bytes(before)

        heat_web = SteeringWebClient(server.url, session="heat")
        heat_props = heat_web.wait_for_component(
            "image", polls=60, timeout=3.0, transport=transport
        )
        print(f"heat session alive too: cycle {heat_props['cycle']} "
              f"(served by the same {server.io_thread_count()} IO thread)")

        print("steering: wind_speed 2.0 -> 5.0 (watch the shock strengthen)")
        web.steer(wind_speed=5.0)
        target_version = props["version"] + 8
        while True:
            props = web.wait_for_component(
                "image", polls=60, timeout=3.0, transport=transport
            )
            if slow_viewers:
                _print_tiers(server, f"v{props['version']}")
            if props["version"] >= target_version:
                break
        after = web.fetch_png()
        Path(__file__).with_name("bowshock_after.png").write_bytes(after)
        print(f"steered frame: cycle {props['cycle']}, "
              f"loop delay {props['total_delay']:.3f}s")
        print("saved bowshock_before.png / bowshock_after.png")
        if window_demo:
            _demo_sliding_window(server, web)
        if transport != "longpoll":
            stats = server.stats()["transports"][transport]
            print(f"{transport} stream delivered {stats['delivered']} deltas "
                  f"({stats['bytes_sent']} bytes) with zero re-parked polls")

        if slow_viewers and slow_stop is not None:
            _print_tiers(server, "final")
            # Let the throttled readers catch up to the degraded frames
            # before stopping: quiet for 0.75s means the backlog drained.
            deadline = time.monotonic() + 8.0
            while time.monotonic() < deadline:
                if time.monotonic() - max(v.last_rx for v in slow_viewers) > 0.75:
                    break
                time.sleep(0.1)
            slow_stop.set()
            for viewer in slow_viewers:
                viewer.join(timeout=5.0)
            tiers_seen = sorted(v.max_tier_seen for v in slow_viewers)
            errors = sum(v.errors for v in slow_viewers)
            print(f"slow viewers saw tiers {tiers_seen} "
                  f"({errors} reconnects) — degraded, never disconnected")

        if serve_extra > 0:
            print(f"\nopen {server.url} in a browser (pick a session at the top);")
            print(f"serving for {serve_extra:.0f}s ...")
            time.sleep(serve_extra)

        client.stop_all()
    print("done.")


if __name__ == "__main__":
    main()
