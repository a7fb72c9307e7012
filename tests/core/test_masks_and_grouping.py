"""Pruning masks (MaskSet) and Algorithm 1 (DFS layer grouping)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.dfs_grouping import (conv_layers_of, group_layers_dfs, group_model,
                                     trivial_grouping)
from repro.core.masks import MaskSet, PruningMask
from repro.engine.trace import trace_graph
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.merge import Concat
from repro.nn.module import Module, Sequential
from repro.nn.layers.activation import ReLU
from repro.nn.tensor import Tensor


class TestPruningMask:
    def test_sparsity_and_counts(self):
        mask = PruningMask("layer", "weight", np.array([[1, 0], [0, 0]], dtype=np.float32))
        assert mask.sparsity == pytest.approx(0.75)
        assert mask.kept == 1 and mask.total == 4
        assert mask.full_name == "layer.weight"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8, np.int64, bool])
    def test_any_binary_input_is_held_as_bool(self, dtype):
        # uint8 is what an artifact stores and loads.
        source = np.array([[1, 0, 1], [0, 0, 1]], dtype=dtype)
        mask = PruningMask("layer", "weight", source)
        assert mask.mask.dtype == np.bool_
        np.testing.assert_array_equal(mask.mask, source != 0)
        assert mask.kept == 3 and mask.sparsity == pytest.approx(0.5)

    @pytest.mark.parametrize("values", [
        np.array([0.5, 1.0]), np.array([0, 2], dtype=np.uint8), np.array([-1.0, 0.0]),
        np.array([np.nan, 1.0]), np.array([1, 255], dtype=np.uint8),
    ])
    def test_non_binary_rejected(self, values):
        with pytest.raises(ValueError):
            PruningMask("layer", "weight", values)


class TestMaskSet:
    def test_add_and_iterate(self):
        masks = MaskSet([PruningMask("a", "weight", np.ones((2, 2)))])
        assert len(masks) == 1
        assert "a.weight" in masks

    def test_duplicate_masks_intersect(self):
        first = PruningMask("a", "weight", np.array([1.0, 1.0, 0.0]))
        second = PruningMask("a", "weight", np.array([1.0, 0.0, 1.0]))
        masks = MaskSet([first, second])
        np.testing.assert_array_equal(masks.get("a.weight").mask, [1, 0, 0])
        assert masks.get("a.weight").mask.dtype == np.bool_

    def test_apply_zeroes_weights_and_records(self, rng):
        model = Sequential(Conv2d(2, 2, 3, rng=rng))
        mask_array = np.zeros(model[0].weight.shape, dtype=np.float32)
        mask_array[0] = 1.0
        masks = MaskSet([PruningMask("0", "weight", mask_array)])
        masks.apply(model)
        assert np.all(model[0].weight.data[1] == 0)
        assert np.any(model[0].weight.data[0] != 0)
        assert "weight" in model[0].pruning_masks

    def test_apply_unknown_layer_raises(self):
        model = Sequential(Conv2d(2, 2, 3))
        masks = MaskSet([PruningMask("missing", "weight", np.ones((2, 2, 3, 3)))])
        with pytest.raises(KeyError):
            masks.apply(model)

    def test_apply_shape_mismatch_raises(self):
        model = Sequential(Conv2d(2, 2, 3))
        masks = MaskSet([PruningMask("0", "weight", np.ones((1, 1)))])
        with pytest.raises(ValueError):
            masks.apply(model)

    def test_reapply_after_update(self, rng):
        model = Sequential(Conv2d(2, 2, 3, rng=rng))
        mask_array = np.zeros(model[0].weight.shape, dtype=np.float32)
        masks = MaskSet([PruningMask("0", "weight", mask_array)])
        masks.apply(model)
        model[0].weight.data += 1.0            # simulates an optimiser step
        masks.reapply(model)
        assert np.all(model[0].weight.data == 0)

    def test_statistics(self):
        masks = MaskSet([
            PruningMask("a", "weight", np.array([1.0, 0.0])),
            PruningMask("b", "weight", np.array([0.0, 0.0])),
        ])
        assert masks.masked_parameters() == 4
        assert masks.pruned_parameters() == 3
        assert masks.overall_sparsity() == pytest.approx(0.75)

    def test_compression_ratio_counts_unmasked_params(self, rng):
        model = Sequential(Conv2d(1, 1, 3, bias=False, rng=rng))
        masks = MaskSet([PruningMask("0", "weight",
                                     np.zeros((1, 1, 3, 3), dtype=np.float32))])
        assert masks.compression_ratio(model) == pytest.approx(9.0)

    def test_merge(self):
        a = MaskSet([PruningMask("a", "weight", np.array([1.0, 0.0]))])
        b = MaskSet([PruningMask("b", "weight", np.array([1.0, 1.0]))])
        merged = a.merge(b)
        assert len(merged) == 2


SRC = Path(__file__).resolve().parents[2] / "src"


class TwoRoots(Module):
    """``left`` (3x3) and ``right`` (1x1) both read the input and feed ``out`` through
    a concat: two roots, which Algorithm 1 must visit in model order."""

    def __init__(self):
        super().__init__()
        self.left = Conv2d(3, 4, 3)
        self.right = Conv2d(3, 4, 1, padding=0)
        self.concat = Concat()
        self.out = Conv2d(8, 2, 1, padding=0)

    def forward(self, x):
        return self.out(self.concat([self.left(x), self.right(x)]))


def two_root_groups():
    result = group_model(TwoRoots(), Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))
    return [(group.parent, group.children) for group in result.groups]


class TestDFSGrouping:
    def test_chain_produces_single_group(self, rng):
        model = Sequential(Conv2d(3, 4, 3, rng=rng), ReLU(), Conv2d(4, 4, 3, rng=rng),
                           Conv2d(4, 2, 1, padding=0, rng=rng))
        result = group_model(model, Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32)))
        assert result.num_layers == 3
        assert result.num_groups == 1
        group = result.groups[0]
        assert group.parent == "0"
        assert group.children == ["2", "3"]
        assert list(result.parent_of.items()) == [("0", "0"), ("2", "0"), ("3", "0")]

    def test_every_child_has_one_parent(self, tiny_model, tiny_input):
        result = group_model(tiny_model, tiny_input)
        assert set(result.parent_of) == set(result.conv_layers)
        # Parents referenced by children are themselves group parents.
        group_parents = {g.parent for g in result.groups}
        assert set(result.parent_of.values()) <= group_parents

    def test_groups_partition_all_layers(self, tiny_model, tiny_input):
        result = group_model(tiny_model, tiny_input)
        members = [name for group in result.groups for name in group.members]
        assert sorted(members) == sorted(result.conv_layers)
        assert len(members) == len(set(members))

    def test_every_layer_is_in_its_parents_group(self, tiny_model, tiny_input):
        result = group_model(tiny_model, tiny_input)
        by_parent = {group.parent: group for group in result.groups}
        for layer in result.conv_layers:
            assert layer in by_parent[result.parent_of[layer]]

    def test_summary_fields(self, tiny_model, tiny_input):
        summary = group_model(tiny_model, tiny_input).summary()
        assert summary["num_conv_layers"] >= summary["num_groups"] >= 1

    def test_grouping_reduces_group_count_vs_trivial(self, tiny_model, tiny_input):
        dfs = group_model(tiny_model, tiny_input)
        trivial = trivial_grouping(tiny_model)
        assert dfs.num_groups < trivial.num_groups
        assert trivial.num_groups == trivial.num_layers

    def test_two_roots_group_in_model_order_under_any_hash_seed(self):
        # String hashing must not pick the root that ``out`` joins.
        code = f"import runpy; print(runpy.run_path({str(Path(__file__))!r})['two_root_groups']())"
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        outputs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath},
                           ).stdout.strip()
            for seed in ("0", "1")
        ]
        assert outputs == ["[('left', ['out']), ('right', [])]"] * 2

    def test_group_layers_dfs_on_traced_graph(self, tiny_model, tiny_input):
        graph = trace_graph(tiny_model, tiny_input.data)
        result = group_layers_dfs(tiny_model, graph)
        assert result.num_layers == len(conv_layers_of(tiny_model))
