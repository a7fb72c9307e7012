"""Anchor generation (RetinaNet pyramid, k-means auto-anchors)."""

import numpy as np
import pytest

from repro.detection.anchors import (
    RetinaAnchorConfig,
    grid_centers,
    kmeans_anchors,
    retinanet_anchors,
)


class TestGridCenters:
    def test_centers_are_cell_midpoints(self):
        centers = grid_centers(2, 2, stride=8)
        np.testing.assert_allclose(centers, [[4, 4], [12, 4], [4, 12], [12, 12]])

    def test_count(self):
        assert grid_centers(5, 7, 4).shape == (35, 2)


class TestRetinaAnchors:
    def test_count_matches_config(self):
        config = RetinaAnchorConfig()
        anchors = retinanet_anchors(128, config)
        expected = sum((max(128 // s, 1)) ** 2 * config.num_anchors_per_cell
                       for s in config.strides)
        assert anchors.shape == (expected, 4)

    def test_anchors_are_valid_boxes(self):
        anchors = retinanet_anchors(128)
        assert np.all(anchors[:, 2] > anchors[:, 0])
        assert np.all(anchors[:, 3] > anchors[:, 1])

    def test_aspect_ratios_present(self):
        config = RetinaAnchorConfig(sizes=(32.0,), strides=(8,), scales=(1.0,))
        anchors = retinanet_anchors(32, config)
        widths = anchors[:, 2] - anchors[:, 0]
        heights = anchors[:, 3] - anchors[:, 1]
        ratios = np.unique(np.round(heights / widths, 2))
        assert len(ratios) == len(config.aspect_ratios)

    def test_num_anchors_per_cell(self):
        assert RetinaAnchorConfig().num_anchors_per_cell == 9


class TestKMeansAnchors:
    def test_recovers_clusters(self):
        rng = np.random.default_rng(0)
        cluster_a = rng.normal([10, 10], 0.5, (50, 2))
        cluster_b = rng.normal([40, 20], 0.5, (50, 2))
        cluster_c = rng.normal([80, 60], 0.5, (50, 2))
        sizes = np.concatenate([cluster_a, cluster_b, cluster_c]).astype(np.float32)
        anchors = kmeans_anchors(sizes, num_anchors=3, seed=1)
        assert anchors.shape == (3, 2)
        # Sorted by area: first anchor close to the small cluster, last to the big one.
        assert np.linalg.norm(anchors[0] - [10, 10]) < 3
        assert np.linalg.norm(anchors[2] - [80, 60]) < 5

    def test_sorted_by_area(self, rng):
        sizes = rng.uniform(5, 80, (100, 2)).astype(np.float32)
        anchors = kmeans_anchors(sizes, num_anchors=5)
        areas = anchors[:, 0] * anchors[:, 1]
        assert np.all(np.diff(areas) >= 0)

    def test_too_few_boxes_raises(self):
        with pytest.raises(ValueError):
            kmeans_anchors(np.ones((3, 2)), num_anchors=9)
