"""The repository's benchmark: four closed-loop steering workloads.

``python3 -m bench --workload <name> --seed <n> --seconds <s> --trace <0|1>``
drives a real :class:`~repro.web.server.AjaxWebServer` over loopback
sockets, checks every response it receives and prints the metrics named
in ``BENCHMARK.json``.  ``README.md`` in this directory defines every
workload and metric and says which layer should move which number.
"""
