"""Synthetic KITTI dataset: determinism, splits, content."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic_kitti import (
    KITTI_CLASSES,
    SyntheticKitti,
    SyntheticKittiConfig,
)


class TestSyntheticKitti:
    def test_len_and_indexing(self):
        ds = SyntheticKitti(10)
        assert len(ds) == 10
        assert ds[0].image.shape == (3, 96, 96)
        assert ds[-1].image_id == 9

    def test_out_of_range_raises(self):
        ds = SyntheticKitti(5)
        with pytest.raises(IndexError):
            ds[5]

    def test_deterministic_per_index(self):
        a = SyntheticKitti(5)[2]
        b = SyntheticKitti(5)[2]
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.boxes_cxcywh, b.boxes_cxcywh)

    def test_different_seeds_differ(self):
        a = SyntheticKitti(5, SyntheticKittiConfig(seed=1))[0]
        b = SyntheticKitti(5, SyntheticKittiConfig(seed=2))[0]
        assert not np.array_equal(a.image, b.image)

    def test_image_range_and_dtype(self):
        scene = SyntheticKitti(3)[1]
        assert scene.image.dtype == np.float32
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0

    def test_objects_within_bounds(self):
        config = SyntheticKittiConfig(image_size=64)
        for scene in SyntheticKitti(8, config):
            for box in scene.boxes_xyxy:
                assert box[2] > box[0] and box[3] > box[1]
                assert box[2] - box[0] <= 64 * 0.95

    def test_class_ids_valid(self):
        config = SyntheticKittiConfig(num_classes=3)
        for scene in SyntheticKitti(6, config):
            assert np.all(scene.class_ids < 3)

    def test_object_count_respects_config(self):
        config = SyntheticKittiConfig(min_objects=2, max_objects=3, tiny_object_probability=0.0)
        for scene in SyntheticKitti(6, config):
            assert 2 <= len(scene.objects) <= 3

    def test_split_is_deterministic_and_disjoint(self):
        ds = SyntheticKitti(20)
        train_a, val_a = ds.split(0.6)
        train_b, val_b = ds.split(0.6)
        assert train_a == train_b and val_a == val_b
        assert set(train_a).isdisjoint(val_a)
        assert len(train_a) == 12 and len(val_a) == 8

    def test_split_requires_valid_fraction(self):
        with pytest.raises(ValueError):
            SyntheticKitti(10).split(1.5)

    def test_box_size_statistics(self):
        stats = SyntheticKitti(5).box_size_statistics()
        assert stats.ndim == 2 and stats.shape[1] == 2
        assert np.all(stats > 0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SyntheticKittiConfig(num_classes=99)
        with pytest.raises(ValueError):
            SyntheticKittiConfig(min_object_fraction=0.9, max_object_fraction=0.2)

    @given(st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_any_index_renders_valid_scene(self, index):
        ds = SyntheticKitti(31, SyntheticKittiConfig(image_size=48))
        scene = ds[index]
        assert scene.image.shape == (3, 48, 48)
        assert len(scene.objects) >= 1
        assert np.isfinite(scene.image).all()

    def test_kitti_class_names_exported(self):
        assert "Car" in KITTI_CLASSES and "Pedestrian" in KITTI_CLASSES
