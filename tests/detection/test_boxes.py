"""Box utilities: conversions, IoU, encoding — with hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import boxes as B

box_strategy = st.tuples(
    st.floats(0, 100), st.floats(0, 100), st.floats(1, 60), st.floats(1, 60)
).map(lambda t: np.array([t[0], t[1], t[0] + t[2], t[1] + t[3]], dtype=np.float32))


class TestConversions:
    def test_cxcywh_to_xyxy_known(self):
        out = B.cxcywh_to_xyxy(np.array([10.0, 10.0, 4.0, 6.0]))
        np.testing.assert_allclose(out, [8, 7, 12, 13])

    def test_roundtrip(self, rng):
        original = rng.uniform(1, 50, size=(20, 4)).astype(np.float32)
        converted = B.xyxy_to_cxcywh(B.cxcywh_to_xyxy(original))
        np.testing.assert_allclose(converted, original, rtol=1e-5, atol=1e-4)

    def test_box_area(self):
        assert B.box_area(np.array([0.0, 0.0, 2.0, 3.0])) == 6.0
        assert B.box_area(np.array([5.0, 5.0, 4.0, 4.0])) == 0.0   # degenerate clamps to 0

    def test_clip_boxes(self):
        clipped = B.clip_boxes(np.array([[-5.0, -5.0, 200.0, 50.0]]), (100, 150))
        np.testing.assert_allclose(clipped, [[0, 0, 150, 50]])


class TestIoU:
    def test_identical_boxes(self):
        box = np.array([[0.0, 0.0, 10.0, 10.0]])
        assert B.iou_matrix(box, box)[0, 0] == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        a = np.array([[0.0, 0.0, 1.0, 1.0]])
        b = np.array([[5.0, 5.0, 6.0, 6.0]])
        assert B.iou_matrix(a, b)[0, 0] == 0.0

    def test_half_overlap(self):
        a = np.array([[0.0, 0.0, 2.0, 2.0]])
        b = np.array([[1.0, 0.0, 3.0, 2.0]])
        assert B.iou_matrix(a, b)[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-4)

    def test_matrix_shape(self, rng):
        a = rng.uniform(0, 50, (5, 4)).astype(np.float32)
        b = rng.uniform(0, 50, (7, 4)).astype(np.float32)
        assert B.iou_matrix(a, b).shape == (5, 7)

    def test_empty_inputs(self):
        assert B.iou_matrix(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)

    def test_pairwise_matches_matrix_diagonal(self, rng):
        a = np.sort(rng.uniform(0, 50, (6, 4)).astype(np.float32), axis=1)
        b = np.sort(rng.uniform(0, 50, (6, 4)).astype(np.float32), axis=1)
        pairwise = B.iou_pairwise(a, b)
        matrix = B.iou_matrix(a, b)
        np.testing.assert_allclose(pairwise, np.diag(matrix), rtol=1e-5, atol=1e-6)

    @given(box_strategy, box_strategy)
    @settings(max_examples=50, deadline=None)
    def test_iou_properties(self, a, b):
        iou_ab = B.iou_matrix(a[None], b[None])[0, 0]
        iou_ba = B.iou_matrix(b[None], a[None])[0, 0]
        assert 0.0 <= iou_ab <= 1.0 + 1e-6
        assert iou_ab == pytest.approx(iou_ba, abs=1e-5)


class TestEncode:
    def test_the_anchor_itself_encodes_to_zero(self):
        anchors = np.array([[10.0, 10.0, 30.0, 40.0]], dtype=np.float32)
        np.testing.assert_allclose(B.encode_boxes(anchors, anchors), np.zeros((1, 4)),
                                   atol=1e-6)

    def test_shift_and_scale_follow_the_rcnn_deltas(self):
        anchors = np.array([[10.0, 10.0, 30.0, 40.0]], dtype=np.float32)   # 20 x 30 at (20, 25)
        gt = np.array([[2.0, 3.0, 42.0, 63.0]], dtype=np.float32)          # 40 x 60 at (22, 33)
        expected = [[(2 / 20) / 0.1, (8 / 30) / 0.1, np.log(2) / 0.2, np.log(2) / 0.2]]
        np.testing.assert_allclose(B.encode_boxes(gt, anchors), expected, rtol=1e-5)
