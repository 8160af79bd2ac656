"""Cross-cutting property-based tests on core invariants.

Hypothesis-driven checks spanning several subsystems: fixed-size image
containers, mapping validity and transport conservation laws.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.des import Simulator
from repro.mapping.exhaustive import compositions
from repro.mapping.model import Mapping
from repro.transport import FlowConfig, RobbinsMonroController, StabilizedUDPTransport
from repro.units import mbit_per_s
from repro.viz.image import Image, decode_fixed_size, encode_fixed_size

from tests.conftest import make_paths, make_two_node_topology

class TestImageContainers:
    @given(
        w=st.integers(min_value=1, max_value=48),
        h=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_fixed_size_roundtrip_any_shape(self, w, h, seed):
        rng = np.random.default_rng(seed)
        img = Image(rng.integers(0, 255, size=(h, w, 4), dtype=np.uint8))
        blob = encode_fixed_size(img, file_size=64 * 1024)
        assert len(blob) == 64 * 1024
        back = decode_fixed_size(blob)
        np.testing.assert_array_equal(back.pixels, img.pixels)

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_png_starts_with_signature(self, seed):
        rng = np.random.default_rng(seed)
        img = Image(rng.integers(0, 255, size=(8, 8, 4), dtype=np.uint8))
        png = img.to_png_bytes()
        assert png[:8] == b"\x89PNG\r\n\x1a\n"
        assert png.endswith(b"IEND\xaeB`\x82")


class TestMappingInvariants:
    @given(
        n_items=st.integers(min_value=1, max_value=8),
        n_groups=st.integers(min_value=1, max_value=8),
    )
    def test_compositions_always_valid_mappings(self, n_items, n_groups):
        for groups in compositions(n_items, n_groups):
            path = tuple(f"n{i}" for i in range(len(groups)))
            m = Mapping(path, tuple(groups))  # must not raise
            assert m.n_modules == n_items

    @given(n_items=st.integers(min_value=2, max_value=10))
    def test_composition_counts_are_binomial(self, n_items):
        import math

        for q in range(1, n_items + 1):
            assert len(compositions(n_items, q)) == math.comb(n_items - 1, q - 1)


class TestTransportConservation:
    @given(
        loss=st.floats(min_value=0.0, max_value=0.15),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=10, deadline=None)
    def test_delivered_never_exceeds_sent(self, loss, seed):
        sim = Simulator()
        topo = make_two_node_topology(bandwidth=mbit_per_s(40), loss_rate=loss)
        fwd, rev = make_paths(sim, topo, ["A", "B"], seed=seed)
        ctrl = RobbinsMonroController(target_goodput=2e6, window=16, ts_init=0.05)
        t = StabilizedUDPTransport(
            sim, fwd, rev, FlowConfig(flow="p", total_bytes=96 * 1024),
            controller=ctrl,
        )
        stats = t.run_to_completion()
        assert stats.bytes_delivered <= stats.bytes_sent + 1e-9
        assert stats.datagrams_delivered <= stats.datagrams_sent
        # reliable finite flow: every distinct byte eventually arrives
        assert stats.completed
        assert stats.bytes_delivered == pytest.approx(96 * 1024, rel=0.02)
