"""The four workloads, by the name ``BENCHMARK.json`` gives them."""

from bench.workloads.monitor_poll import MonitorPoll
from bench.workloads.monitor_push import MonitorPush
from bench.workloads.steer_live import SteerLive
from bench.workloads.window_pan import WindowPan

WORKLOADS = {w.name: w for w in (SteerLive, MonitorPush, MonitorPoll, WindowPan)}

__all__ = ["WORKLOADS"]
