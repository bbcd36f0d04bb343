"""JSON formats and the deterministic emitter."""

from __future__ import annotations

import json

import numpy as np
import pytest

from helpers import rand_kernel, rand_skew, rand_tensor
from qso import DimensionMismatch, NotStochastic, OpFamilySpec, Permutation, QsoError, SimplexPoint
from qso.kernel import DiscreteMeasure
from qso.serialize import (
    dumps,
    kernel_from_obj,
    kernel_to_obj,
    measure_from_obj,
    measure_to_obj,
    perm_from_obj,
    perm_to_obj,
    point_from_obj,
    point_to_obj,
    skew_from_obj,
    skew_to_obj,
    spec_from_obj,
    spec_to_obj,
    tensor_from_obj,
    tensor_to_obj,
)


class TestDumps:
    def test_sorted_keys_and_repeatable(self):
        obj = {"b": 1, "a": [1.0, 2.5], "c": {"y": True, "x": None}}
        text = dumps(obj)
        assert text == dumps(obj)
        assert text == '{"a":[1,2.5],"b":1,"c":{"x":null,"y":true}}'

    def test_seventeen_significant_digits(self):
        assert dumps(1 / 3) == "0.33333333333333331"
        assert dumps({"p": 0.1}) == '{"p":0.10000000000000001}'

    def test_output_is_valid_json_and_round_trips_floats(self):
        values = [1 / 3, 0.1, 1e-17, 123456.789]
        parsed = json.loads(dumps(values))
        assert parsed == values


class TestTensorFormat:
    def test_round_trip(self):
        V = rand_tensor(np.random.default_rng(1), 3)
        obj = tensor_to_obj(V)
        back = tensor_from_obj(obj)
        assert np.abs(back.p - V.p).max() <= 1e-15

    def test_omitted_entries_are_zero_and_symmetric_completion(self):
        obj = {"m": 2, "entries": [
            {"i": 1, "j": 1, "k": 1, "p": 1.0},
            {"i": 2, "j": 2, "k": 2, "p": 1.0},
            {"i": 1, "j": 2, "k": 1, "p": 0.25},
            {"i": 1, "j": 2, "k": 2, "p": 0.75},
        ]}
        V = tensor_from_obj(obj)
        assert V.p[0, 1, 0] == 0.25
        assert V.p[1, 0, 0] == 0.25
        assert V.p[0, 0, 1] == 0.0

    def test_writer_emits_upper_triangle_only(self):
        V = rand_tensor(np.random.default_rng(2), 3)
        for ent in tensor_to_obj(V)["entries"]:
            assert ent["i"] <= ent["j"]
            assert ent["p"] != 0.0

    def test_lower_triangle_entry_rejected(self):
        obj = {"m": 2, "entries": [{"i": 2, "j": 1, "k": 1, "p": 1.0}]}
        with pytest.raises(QsoError, match="i <= j"):
            tensor_from_obj(obj)

    def test_duplicate_entry_rejected(self):
        obj = {"m": 2, "entries": [
            {"i": 1, "j": 1, "k": 1, "p": 0.5},
            {"i": 1, "j": 1, "k": 1, "p": 0.5},
        ]}
        with pytest.raises(QsoError, match="duplicate"):
            tensor_from_obj(obj)

    def test_out_of_range_index_rejected(self):
        obj = {"m": 2, "entries": [{"i": 1, "j": 3, "k": 1, "p": 1.0}]}
        with pytest.raises(QsoError, match="outside"):
            tensor_from_obj(obj)

    def test_missing_m_rejected(self):
        with pytest.raises(QsoError, match="'m'"):
            tensor_from_obj({"entries": []})


class TestPayloadSizeChecks:
    """Sizes are checked before the m x m x m array is allocated."""

    @pytest.mark.parametrize("m", [-1, 2.7, "3", True, None, float("inf")])
    def test_bad_tensor_m_rejected(self, m):
        with pytest.raises(DimensionMismatch, match="nonnegative integer"):
            tensor_from_obj({"m": m, "entries": []})

    @pytest.mark.parametrize("n", [-1, 2.7])
    def test_bad_kernel_n_rejected(self, n):
        with pytest.raises(DimensionMismatch, match="nonnegative integer"):
            kernel_from_obj({"n": n, "q": []})

    def test_integral_float_size_accepted(self):
        V = rand_tensor(np.random.default_rng(5), 2)
        obj = tensor_to_obj(V)
        obj["m"] = 2.0
        assert np.array_equal(tensor_from_obj(obj).p, V.p)

    def test_huge_m_with_few_entries_rejected_before_allocating(self):
        with pytest.raises(NotStochastic, match="fewer than the 5000050000 slices"):
            tensor_from_obj({"m": 100000})
        with pytest.raises(NotStochastic, match="fewer than"):
            kernel_from_obj({"n": 100000, "q": []})

    def test_entry_list_shorter_than_slice_count_rejected(self):
        # m = 2 has three slices (1,1), (1,2), (2,2); two entries cannot cover them
        obj = {"m": 2, "entries": [
            {"i": 1, "j": 1, "k": 1, "p": 1.0},
            {"i": 2, "j": 2, "k": 2, "p": 1.0},
        ]}
        with pytest.raises(NotStochastic, match="2 entries, fewer than the 3 slices"):
            tensor_from_obj(obj)
        for mode in ("strict", "normalize"):
            obj["entries"].append({"i": 1, "j": 2, "k": 1, "p": 1.0})
            assert tensor_from_obj(obj, mode=mode).m == 2
            obj["entries"].pop()

    def test_entries_must_be_a_list(self):
        with pytest.raises(QsoError, match="must be a list"):
            tensor_from_obj({"m": 2, "entries": 5})

    def test_skew_m_must_be_integral(self):
        with pytest.raises(DimensionMismatch, match="nonnegative integer"):
            skew_from_obj({"m": 2.5, "a": [[0.0, 1.0], [-1.0, 0.0]]})


class TestOtherFormats:
    def test_point_round_trip(self):
        x = SimplexPoint([0.5, 0.5, 0.0])
        assert np.array_equal(point_from_obj(point_to_obj(x)).coords, x.coords)

    def test_measure_round_trip(self):
        mu = DiscreteMeasure([0.25, 0.75])
        assert np.array_equal(measure_from_obj(measure_to_obj(mu)).weights, mu.weights)

    def test_skew_round_trip_emits_full_matrix(self):
        a = rand_skew(np.random.default_rng(3), 3)
        obj = skew_to_obj(a)
        assert len(obj["a"]) == 3 and all(len(row) == 3 for row in obj["a"])
        assert np.abs(skew_from_obj(obj).a - a.a).max() <= 1e-15

    def test_spec_round_trip(self):
        spec = OpFamilySpec(4, 0.1, 0.2, 0.3)
        assert spec_from_obj(spec_to_obj(spec)) == spec

    def test_perm_round_trip_one_based(self):
        perm = Permutation.from_one_based([2, 3, 1])
        obj = perm_to_obj(perm)
        assert obj == {"sigma": [2, 3, 1]}
        assert perm_from_obj(obj) == perm

    def test_kernel_round_trip(self):
        K = rand_kernel(np.random.default_rng(4), 3)
        obj = kernel_to_obj(K)
        assert set(obj.keys()) == {"n", "q"}
        back = kernel_from_obj(obj)
        assert np.abs(back.q - K.q).max() <= 1e-15
