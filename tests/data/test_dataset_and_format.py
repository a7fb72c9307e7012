"""DataLoader/Dataset views and batching."""

import pytest

from repro.data.dataset import Batch, DataLoader, DetectionDataset, collate
from repro.data.synthetic_kitti import SyntheticKitti, SyntheticKittiConfig


@pytest.fixture
def dataset():
    return SyntheticKitti(12, SyntheticKittiConfig(image_size=48))


class TestDetectionDataset:
    def test_subset_view(self, dataset):
        view = DetectionDataset(dataset, indices=[3, 5, 7])
        assert len(view) == 3
        assert view[0].image_id == 3



class TestDataLoader:
    def test_batches_cover_dataset(self, dataset):
        loader = DataLoader(DetectionDataset(dataset), batch_size=5)
        sizes = [len(batch) for batch in loader]
        assert sum(sizes) == len(dataset)
        assert len(loader) == 3

    def test_shuffle_changes_order_but_not_content(self, dataset):
        loader = DataLoader(DetectionDataset(dataset), batch_size=12, shuffle=True, seed=3)
        first_epoch = next(iter(loader)).image_ids
        second_epoch = next(iter(loader)).image_ids
        assert sorted(first_epoch) == sorted(second_epoch) == list(range(12))
        assert first_epoch != list(range(12)) or second_epoch != list(range(12))

    def test_batch_shapes(self, dataset):
        batch = next(iter(DataLoader(DetectionDataset(dataset), batch_size=4)))
        assert isinstance(batch, Batch)
        assert batch.images.shape == (4, 3, 48, 48)
        assert len(batch.boxes) == len(batch.class_ids) == 4

    @pytest.mark.parametrize("size,batch_size", [(12, 5), (12, 4), (12, 12), (12, 13), (7, 1)])
    def test_len_counts_the_batches_it_yields_short_tail_last(self, size, batch_size):
        """Every scene is served once, in order, and a short tail is its own batch."""
        loader = DataLoader(DetectionDataset(SyntheticKitti(size, SyntheticKittiConfig(
            image_size=32))), batch_size=batch_size)
        batches = list(loader)
        assert len(batches) == len(loader)
        assert [len(batch) for batch in batches[:-1]] == [batch_size] * (len(batches) - 1)
        assert len(batches[-1]) == size - batch_size * (len(batches) - 1)
        assert [i for batch in batches for i in batch.image_ids] == list(range(size))

    def test_a_subset_view_batches_its_own_scenes(self, dataset):
        view = DetectionDataset(dataset, indices=[9, 2, 4])
        batch = next(iter(DataLoader(view, batch_size=3)))
        assert batch.image_ids == [9, 2, 4]
        for image, boxes, scene in zip(batch.images, batch.boxes, (dataset[i] for i in (9, 2, 4))):
            assert (image == scene.image).all()
            assert (boxes == scene.boxes_cxcywh).all()

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(DetectionDataset(dataset), batch_size=0)

    def test_collate_rejects_mixed_shapes(self, dataset):
        small = dataset[0]
        big = SyntheticKitti(1, SyntheticKittiConfig(image_size=96))[0]
        with pytest.raises(ValueError):
            collate([small, big])
