"""Tests for pipeline abstraction, filters, images and transfer functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataFormatError, MappingError
from repro.viz import (
    Image,
    ModuleSpec,
    SubsetFilter,
    TransferFunction,
    VisualizationPipeline,
    decode_fixed_size,
    encode_fixed_size,
    standard_pipeline,
)

from tests.test_data_grid import sphere_grid


class TestModuleSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(MappingError):
            ModuleSpec("x", "teleport")

    def test_negative_complexity_rejected(self):
        with pytest.raises(MappingError):
            ModuleSpec("x", "filter", complexity=-1.0)

    def test_output_size_ratio(self):
        m = ModuleSpec("x", "extract", complexity=1e-8, output_ratio=0.5)
        assert m.output_size(100.0) == 50.0

    def test_output_size_fixed(self):
        m = ModuleSpec("x", "render", complexity=1e-8, fixed_output=1234.0)
        assert m.output_size(1e9) == 1234.0

    def test_required_capability(self):
        assert ModuleSpec("x", "render", 0.0).required_capability == "render"


class TestVisualizationPipeline:
    def test_requires_source_first(self):
        mods = [ModuleSpec("f", "filter"), ModuleSpec("s", "source")]
        with pytest.raises(MappingError):
            VisualizationPipeline(mods, 100.0)

    def test_single_source_only(self):
        mods = [
            ModuleSpec("s", "source"),
            ModuleSpec("s2", "source"),
            ModuleSpec("f", "filter"),
        ]
        with pytest.raises(MappingError):
            VisualizationPipeline(mods, 100.0)

    def test_message_sizes_chain(self):
        p = VisualizationPipeline(
            [
                ModuleSpec("src", "source"),
                ModuleSpec("f", "filter", 1e-9, output_ratio=0.5),
                ModuleSpec("x", "extract", 1e-8, output_ratio=0.4),
                ModuleSpec("r", "render", 1e-8, fixed_output=100.0),
                ModuleSpec("d", "display", 0.0),
            ],
            source_bytes=1000.0,
        )
        assert p.n_modules == 5
        assert p.n_messages == 4
        assert p.message_sizes() == [1000.0, 500.0, 200.0, 100.0]
        assert p.complexities() == [1e-9, 1e-8, 1e-8, 0.0]

    def test_compute_time_scales_with_power(self):
        p = standard_pipeline("isosurface", 1e6)
        t1 = p.compute_time(2, node_power=1.0)
        t4 = p.compute_time(2, node_power=4.0)
        assert t1 == pytest.approx(4 * t4)
        assert p.compute_time(0, 1.0) == 0.0

    def test_execute_runs_callables(self):
        p = VisualizationPipeline(
            [
                ModuleSpec("src", "source"),
                ModuleSpec("double", "filter", fn=lambda x: x * 2),
                ModuleSpec("inc", "extract", fn=lambda x: x + 1),
            ],
            source_bytes=8.0,
        )
        out, stages = p.execute(10)
        assert out == 21
        assert stages == [10, 20, 21]

    @pytest.mark.parametrize("tech", ["isosurface", "raycast", "streamline"])
    def test_standard_pipelines(self, tech):
        p = standard_pipeline(tech, 1e6)
        assert p.n_modules == 5
        reqs = p.requirements()
        assert reqs[0] == "source" and reqs[-1] == "display"
        assert all(m > 0 for m in p.message_sizes())

    def test_unknown_technique(self):
        with pytest.raises(MappingError):
            standard_pipeline("hologram", 1e6)


class TestFilters:
    def test_subset_filter_octant(self):
        g = sphere_grid(16)
        f = SubsetFilter(octant=3)
        out = f(g)
        assert out.n_samples < g.n_samples
        assert f.output_ratio == 0.125

    def test_subset_filter_all(self):
        g = sphere_grid(8)
        f = SubsetFilter(-1)
        assert f(g) is g
        assert f.output_ratio == 1.0

    def test_filter_validation(self):
        with pytest.raises(ConfigurationError):
            SubsetFilter(9)


class TestImage:
    def test_blank(self):
        img = Image.blank(10, 6, (1, 2, 3, 4))
        assert img.width == 10 and img.height == 6
        assert img.pixels[0, 0].tolist() == [1, 2, 3, 4]

    def test_from_float_clips(self):
        img = Image.from_float(np.full((2, 2, 4), 2.0))
        assert img.pixels.max() == 255

    def test_ppm_header(self):
        img = Image.blank(4, 3)
        data = img.to_ppm_bytes()
        assert data.startswith(b"P6\n4 3\n255\n")
        assert len(data) == len(b"P6\n4 3\n255\n") + 4 * 3 * 3

    def test_png_like_roundtrip(self):
        rng = np.random.default_rng(1)
        img = Image(rng.integers(0, 255, size=(8, 6, 4), dtype=np.uint8))
        back = Image.from_png_like_bytes(img.to_png_like_bytes())
        np.testing.assert_array_equal(back.pixels, img.pixels)

    def test_invalid_shape(self):
        with pytest.raises(ConfigurationError):
            Image(np.zeros((4, 4, 3), dtype=np.uint8))


class TestFixedSizeEncoding:
    def test_roundtrip_exact_size(self):
        img = Image.blank(32, 32, (9, 8, 7, 255))
        blob = encode_fixed_size(img, file_size=4096)
        assert len(blob) == 4096
        back = decode_fixed_size(blob)
        np.testing.assert_array_equal(back.pixels, img.pixels)

    def test_too_small_container_rejected(self):
        rng = np.random.default_rng(0)
        img = Image(rng.integers(0, 255, size=(64, 64, 4), dtype=np.uint8))
        with pytest.raises(DataFormatError, match="fixed file size"):
            encode_fixed_size(img, file_size=64)

    def test_garbage_decode_rejected(self):
        with pytest.raises(DataFormatError):
            decode_fixed_size(b"garbage")


class TestTransferFunction:
    def test_interpolation(self):
        tf = TransferFunction(np.array([[0, 0, 0, 0, 0], [1, 1, 1, 1, 1]], dtype=float))
        rgba = tf(np.array([0.5]))
        np.testing.assert_allclose(rgba[0], [0.5, 0.5, 0.5, 0.5])

    def test_clamps_out_of_range(self):
        tf = TransferFunction.grayscale(0.0, 1.0)
        assert tf(np.array([99.0]))[0, 3] == pytest.approx(0.8)

    def test_alpha_correction_identity(self):
        tf = TransferFunction.grayscale()
        a = np.array([0.5])
        np.testing.assert_allclose(tf.corrected_alpha(a, 1.0, 1.0), a)

    def test_alpha_correction_smaller_steps(self):
        tf = TransferFunction.grayscale()
        a = np.array([0.5])
        assert tf.corrected_alpha(a, 0.5, 1.0)[0] < 0.5

    def test_unsorted_points_rejected(self):
        with pytest.raises(ConfigurationError):
            TransferFunction(np.array([[1, 0, 0, 0, 0], [0, 1, 1, 1, 1]], dtype=float))

    def test_isolating_peak(self):
        tf = TransferFunction.isolating(0.5, 0.1)
        assert tf(np.array([0.5]))[0, 3] > tf(np.array([0.8]))[0, 3]
