"""JSON formats and the deterministic emitter."""

from __future__ import annotations

import json
import re
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    rand_kernel,
    rand_skew,
    rand_tensor,
    rand_volterra_kernel,
    rand_volterra_tensor,
    reference_array_to_entries,
    reference_dumps,
    reference_entries_to_array,
)
from qso import (
    EPS_VAL,
    DimensionMismatch,
    InvalidFamily,
    InvalidPermutation,
    InvalidPoint,
    InvalidSkew,
    NotStochastic,
    OpFamilySpec,
    Permutation,
    QsoError,
    QsoTensor,
    SimplexPoint,
    TooLarge,
    op_family,
    serialize,
)
from qso.core import validate as core_validate
from qso.kernel import DiscreteMeasure, FiniteKernel
from qso.serialize import (
    _BULK_MIN_ENTRIES,
    _SMALL_ENTRIES_MAX,
    _bulk_entries_to_array,
    _entries_to_array,
    _upper_slots,
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

    def test_str_subclass_is_escaped_like_str(self):
        text = np.str_('say "a\\b"')
        assert dumps(text) == dumps(str(text)) == '"say \\"a\\\\b\\""'
        assert json.loads(dumps([text])) == [str(text)]

    def test_output_is_valid_json_and_round_trips_floats(self):
        values = [1 / 3, 0.1, 1e-17, 123456.789]
        parsed = json.loads(dumps(values))
        assert parsed == values


class _List(list):
    """A list subclass, which takes the emitter's isinstance route."""


def _text_or_error(dump, obj):
    try:
        return dump(obj)
    except TypeError as exc:
        return (TypeError, str(exc))


_SPECIAL_FLOATS = [-0.0, 0.0, 1e-300, 5e-324, float("nan"), float("inf"), float("-inf"), 0.1]
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(width=32).map(np.float32),
    st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)).map(np.float64),
    st.text(alphabet=st.sampled_from('ab"\\é€😀 \n')),
    st.text(),
    st.just(object()),
)
_keys = st.one_of(st.text(alphabet=st.sampled_from('ab"\\é')), st.sampled_from([1, True, 1.0]))
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(_List),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=12,
)


# keys that a row template must escape ('"', '\\') or double ('%')
_RECORD_KEYS = ["i", "p", "%", "%d", "%%s", '"', "\\", 'a"%b\\']
_COLUMNS = {
    "int": st.integers(),
    "float": st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
    "bool": st.booleans(),
    "np.float64": st.floats().map(np.float64),
}


@st.composite
def _record_lists(draw):
    """Lists of dicts with shared keys, some broken in one row."""
    keys = draw(st.lists(st.sampled_from(_RECORD_KEYS), unique=True, max_size=4))
    kinds = [draw(st.sampled_from(sorted(_COLUMNS))) for _ in keys]
    rows = [
        {key: draw(_COLUMNS[kind]) for key, kind in zip(keys, kinds)}
        for _ in range(draw(st.integers(0, 6)))
    ]
    if rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        change = draw(st.sampled_from(["none", "missing", "extra", "renamed", "retyped",
                                       "ordered"]))
        if change in ("missing", "renamed") and keys:
            del row[keys[0]]
        if change in ("extra", "renamed"):
            row["%x"] = 1
        if change == "retyped" and keys:
            row[keys[0]] = draw(st.one_of(*_COLUMNS.values()))
        if change == "ordered":
            rows[rows.index(row)] = OrderedDict(row)
    return rows


@settings(max_examples=600, deadline=None)
@given(st.one_of(_payloads, _record_lists()))
def test_dumps_matches_reference(obj):
    assert _text_or_error(dumps, obj) == _text_or_error(reference_dumps, obj)


@pytest.mark.parametrize("code", range(32))
def test_control_characters_are_escaped(code):
    """Every U+0000-U+001F survives json.loads in a key, a value and a record-list key."""
    s = f"a{chr(code)}b"
    records = [{s: 1, "p": 0.5}, {s: 2, "p": 0.25}]
    for obj in ({s: 1}, {"k": s}, [s, "x"], records):
        assert json.loads(dumps(obj)) == obj
    for obj in (s, {s: s}, [s, {s: [s]}]):
        assert dumps(obj) == json.dumps(obj, ensure_ascii=False, sort_keys=True,
                                        separators=(",", ":"))


def _array_or_error(read, m, entries, payload):
    try:
        p = read(m, entries, payload)
    except Exception as exc:  # the error's type and message are the result
        return (type(exc), str(exc))
    return (p.shape, p.dtype, p.tobytes())


def _dense_entries(m: int) -> list[dict]:
    return [
        {"i": i, "j": j, "k": k, "p": 1.0 / m}
        for i in range(1, m + 1) for j in range(i, m + 1) for k in range(1, m + 1)
    ]


_ODD_FIELDS = [1.0, 2.7, True, False, "0.5", "x", None, 10**400, -(10**400), float("nan"), -0.0]


@st.composite
def _entry_payloads(draw):
    """Tensor and kernel entry lists, dense or thinned, some broken."""
    # 5 and 6 give dense lists long enough for the bulk path
    m = draw(st.one_of(st.sampled_from([0, 1, 2, 3]), st.sampled_from([5, 6])))
    rnd = draw(st.randoms(use_true_random=False))
    keep = draw(st.sampled_from([1.0, 0.9, 0.5]))
    entries = [dict(ent, p=rnd.random()) for ent in _dense_entries(m) if rnd.random() < keep]
    if draw(st.booleans()):
        rnd.shuffle(entries)
    edits = st.tuples(
        st.sampled_from(["set", "delete", "duplicate", "swap", "cut"]),
        st.integers(0, 10**6),
        st.sampled_from("ijkp"),
        st.one_of(st.sampled_from([-1, 0, 1, m, m + 1]), st.sampled_from(_ODD_FIELDS)),
    )
    for edit, at, key, value in draw(st.lists(edits, max_size=3)):
        if not entries:
            break
        at %= len(entries)
        ent = dict(entries[at])
        if edit == "set":
            ent[key] = value
        elif edit == "delete":
            ent.pop(key, None)
        elif edit == "duplicate":
            entries.insert(at, dict(ent))
        elif edit == "swap":
            ent["i"], ent["j"] = ent.get("j"), ent.get("i")
        else:
            entries = entries[:at]
            continue
        entries[at] = ent
    if draw(st.booleans()):
        entries = tuple(entries)
    return m, entries, draw(st.sampled_from(["tensor", "kernel"]))


@settings(max_examples=400, deadline=None)
@given(_entry_payloads())
def test_entries_match_reference(case):
    """The bulk path and the loop give the loop's array bits or its error."""
    want = _array_or_error(reference_entries_to_array, *case)
    assert _array_or_error(_entries_to_array, *case) == want
    m, entries, _ = case
    exact_indices = all(type(e.get(key)) is int for e in entries for key in "ijk")
    if len(entries) >= _BULK_MIN_ENTRIES and exact_indices and type(want[0]) is tuple:
        assert _bulk_entries_to_array(m, entries) is not None


class TestEntriesMatchReference:
    @pytest.mark.parametrize("m", [2, 3, 7, 12])
    def test_dense_and_sparse_tensors(self, m):
        rng = np.random.default_rng(m)
        for V in (rand_tensor(rng, m), rand_volterra_tensor(rng, m)):
            got = tensor_to_obj(V)["entries"]
            assert got == reference_array_to_entries(V.p)
            assert all(type(e["i"]) is int and type(e["p"]) is float for e in got)
            assert dumps(got) == reference_dumps(reference_array_to_entries(V.p))

    def test_randomly_zeroed_tensor(self):
        rng = np.random.default_rng(5)
        p = rng.random((6, 6, 6)) * (rng.random((6, 6, 6)) < 0.3)
        p[:, :, 0] += 1e-3  # every slice keeps some mass
        p = (p + p.transpose(1, 0, 2)) / 2.0
        p /= p.sum(axis=2, keepdims=True)
        V = QsoTensor(6, p)
        assert tensor_to_obj(V)["entries"] == reference_array_to_entries(V.p)


# one fault each in a bulk-sized m = 6 list; entry 6 is (1, 2, 1), and
# (1, 1, 0) would index one cell before the array's first
_ENTRY_EDITS = {
    "i > j": lambda e: e[6].update(i=2, j=1),
    "i zero": lambda e: e[6].update(i=0),
    "j above m": lambda e: e[6].update(j=7),
    "k zero": lambda e: e[0].update(k=0),
    "k above m": lambda e: e[6].update(k=7),
    "huge index": lambda e: e[6].update(k=10**400),
    "fractional index": lambda e: e[6].update(i=2.7),
    "bool index": lambda e: e[6].update(k=True),
    "integral float index": lambda e: e[6].update(i=1.0),
    "duplicate": lambda e: e.append(dict(e[6])),
    "missing p": lambda e: e[6].pop("p"),
    "p None": lambda e: e[6].update(p=None),
    "p text": lambda e: e[6].update(p="x"),
    "p numeric text": lambda e: e[6].update(p="0.5"),
    "p bool": lambda e: e[6].update(p=True),
    "p integer": lambda e: e[6].update(p=0),
    "p huge": lambda e: e[6].update(p=10**400),
    "not a dict": lambda e: e.__setitem__(6, [1, 2, 1, 0.5]),
}


class TestBulkEntries:
    @pytest.mark.parametrize("edit", sorted(_ENTRY_EDITS))
    def test_each_fault_matches_the_loop(self, edit):
        entries = _dense_entries(6)
        _ENTRY_EDITS[edit](entries)
        got = _array_or_error(_entries_to_array, 6, entries, "tensor")
        assert got == _array_or_error(reference_entries_to_array, 6, entries, "tensor")

    def test_fewer_entries_than_slices_above_the_cutover(self):
        # m = 12 has 78 slices i <= j; 70 distinct entries cannot cover them
        entries = _dense_entries(12)[:70]
        assert _BULK_MIN_ENTRIES <= 70
        with pytest.raises(NotStochastic, match="70 entries, fewer than the 78 slices"):
            _entries_to_array(12, entries, "tensor")

    @pytest.mark.parametrize("m", [5, 30])
    def test_dense_payload_takes_the_bulk_path(self, m):
        V = rand_tensor(np.random.default_rng(m), m)
        entries = json.loads(dumps(tensor_to_obj(V)))["entries"]
        p = _bulk_entries_to_array(m, entries)
        assert p is not None
        assert p.tobytes() == reference_entries_to_array(m, entries, "tensor").tobytes()
        assert np.array_equal(tensor_from_obj({"m": m, "entries": entries}).p, V.p)

    def test_huge_integer_is_a_typed_error_on_both_paths(self):
        for m in (2, 6):
            obj = tensor_to_obj(rand_tensor(np.random.default_rng(m), m))
            obj["entries"][-1]["p"] = 10**400
            with pytest.raises(QsoError, match="int too large to convert to float"):
                tensor_from_obj(obj)
            with pytest.raises(QsoError, match="int too large to convert to float"):
                kernel_from_obj({"n": m, "q": obj["entries"]})


class TestCoefficientsAreNumbers:
    """A coefficient is a JSON number: a bool or a string is refused, though float() reads it."""

    def test_text_and_bool_coefficients_are_refused(self):
        obj = {"m": 2, "entries": [
            {"i": 1, "j": 1, "k": 1, "p": "1"},
            {"i": 1, "j": 2, "k": 1, "p": True},
            {"i": 2, "j": 2, "k": 2, "p": "1e0"},
        ]}
        with pytest.raises(QsoError, match=r"^bad tensor entry .*'p': '1'}: p must be a num"):
            tensor_from_obj(obj)
        obj["entries"][0]["p"] = 1
        with pytest.raises(QsoError, match=r"'p': True}: p must be a number, got bool$"):
            tensor_from_obj(obj)
        with pytest.raises(QsoError, match=r"^bad kernel entry .*p must be a number, got bool$"):
            kernel_from_obj({"n": 2, "q": obj["entries"]})
        obj["entries"][1]["p"] = 0.0
        with pytest.raises(QsoError, match=r"'p': '1e0'}: p must be a number, got str$"):
            tensor_from_obj(obj)
        obj["entries"][1]["p"] = 1.0
        obj["entries"][2]["p"] = 1
        want = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]
        assert tensor_from_obj(obj).p.tolist() == want

    @pytest.mark.parametrize("value", ["0.5", True, False, None, [0.5]])
    @pytest.mark.parametrize("m", [11, 12])
    def test_bulk_path_leaves_them_to_the_loop(self, m, value):
        V = rand_tensor(np.random.default_rng(m), m)
        entries = json.loads(dumps(tensor_to_obj(V)))["entries"]
        assert _bulk_entries_to_array(m, entries) is not None
        entries[-1]["p"] = value
        assert _bulk_entries_to_array(m, entries) is None
        want = f"p must be a number, got {type(value).__name__}$"
        with pytest.raises(QsoError, match=rf"^bad tensor entry .*: {want}"):
            tensor_from_obj({"m": m, "entries": entries})
        with pytest.raises(QsoError, match=rf"^bad kernel entry .*: {want}"):
            kernel_from_obj({"n": m, "q": entries})

    @pytest.mark.parametrize("a", [[[0, "0"], ["0", 0]], [[0, False], [False, 0]],
                                   [[0.0, 0.5], [-0.5, None]], "00"])
    def test_skew_rows_must_hold_numbers(self, a):
        with pytest.raises(InvalidSkew, match="^skew matrix a must be a matrix of numbers$"):
            skew_from_obj({"m": 2, "a": a})

    def test_integer_and_float_skew_entries_still_read(self):
        a = skew_from_obj({"m": 2, "a": [[0, 1], [-1, 0.0]]}).a
        assert a.tolist() == [[0.0, 1.0], [-1.0, 0.0]]


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
        want = "at least 0, got -1" if m == -1 else f"an integer, got {m!r}"
        with pytest.raises(DimensionMismatch, match=f"^tensor m must be {re.escape(want)}$"):
            tensor_from_obj({"m": m, "entries": []})

    @pytest.mark.parametrize("n", [-1, 2.7])
    def test_bad_kernel_n_rejected(self, n):
        want = "at least 0, got -1" if n == -1 else f"an integer, got {n!r}"
        with pytest.raises(DimensionMismatch, match=f"^kernel n must be {re.escape(want)}$"):
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

    def test_size_cap_applies_once_every_slice_can_be_listed(self, monkeypatch):
        monkeypatch.setattr(serialize, "MAX_DIMENSION", 2)
        entries = [{"i": i, "j": j, "k": i, "p": 1.0} for i in (1, 2, 3) for j in range(i, 4)]
        with pytest.raises(NotStochastic, match="5 entries, fewer than the 6 slices"):
            tensor_from_obj({"m": 3, "entries": entries[:-1]})
        with pytest.raises(TooLarge, match="^tensor size is capped at 2, got 3$"):
            tensor_from_obj({"m": 3, "entries": entries})
        with pytest.raises(DimensionMismatch):  # a malformed skew matrix keeps its error
            skew_from_obj({"m": 3, "a": [[0.0]]})
        with pytest.raises(TooLarge, match="^skew matrix size is capped at 2, got 3$"):
            skew_from_obj({"m": 3, "a": np.zeros((3, 3)).tolist()})

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

    @pytest.mark.parametrize("a", [[[0, 10**400], [-1, 0]], [[0, "x"], [-1, 0]], [[0, 1], [-1]]])
    def test_skew_entries_must_be_numbers(self, a):
        with pytest.raises(InvalidSkew, match="matrix of numbers"):
            skew_from_obj({"m": 2, "a": a})

    def test_skew_m_must_be_integral(self):
        with pytest.raises(DimensionMismatch, match="^skew matrix m must be an integer, got 2.5$"):
            skew_from_obj({"m": 2.5, "a": [[0.0, 1.0], [-1.0, 0.0]]})


class TestOtherFormats:
    def test_point_round_trip(self):
        x = SimplexPoint([0.5, 0.5, 0.0])
        assert np.array_equal(point_from_obj(point_to_obj(x)).coords, x.coords)

    def test_measure_round_trip(self):
        mu = DiscreteMeasure([0.25, 0.75])
        assert np.array_equal(measure_from_obj(measure_to_obj(mu)).weights, mu.weights)

    @pytest.mark.parametrize("bad, kind", [
        ("0.5", "str"), (True, "bool"), (False, "bool"), (None, "NoneType"), ([0.5], "list"),
    ])
    @pytest.mark.parametrize("read, payload", [
        (point_from_obj, "point"), (measure_from_obj, "measure"),
    ])
    def test_coordinates_must_be_numbers(self, read, payload, bad, kind):
        # float() would read "0.5" and True; a coordinate is a JSON number or refused
        for x in ([bad, 0.5], [0.5, bad], [bad]):
            with pytest.raises(InvalidPoint) as exc:
                read({"x": x})
            assert str(exc.value) == (
                f"bad {payload} coordinate {bad!r}: x must hold numbers, got {kind}")

    @pytest.mark.parametrize("read, payload", [
        (point_from_obj, "point"), (measure_from_obj, "measure"),
    ])
    def test_coordinate_list_shapes_are_typed_errors(self, read, payload):
        with pytest.raises(InvalidPoint, match=f"^{payload} x must be a list, got str$"):
            read({"x": "0.5, 0.5"})
        with pytest.raises(InvalidPoint, match=f"^{payload} x must be a list, got dict$"):
            read({"x": {"a": 1}})
        with pytest.raises(InvalidPoint, match="too large to convert to float"):
            read({"x": [10**400, 0]})
        with pytest.raises(InvalidPoint, match="nonempty 1-d vector"):
            read({"x": []})

    def test_integer_and_float_coordinates_read_as_before(self):
        assert point_from_obj({"x": [1, 0]}).coords.tolist() == [1.0, 0.0]
        assert point_from_obj({"x": (0.25, 0.75)}).coords.tolist() == [0.25, 0.75]
        assert measure_from_obj({"x": [0, 1, 0.0]}).weights.tolist() == [0.0, 1.0, 0.0]

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


class TestIntegralIndices:
    """Index fields must be integral and not bool; nothing is truncated."""

    @staticmethod
    def payload(**bad):
        entries = [
            {"i": 1, "j": 1, "k": 1, "p": 1.0},
            {"i": 1, "j": 2, "k": 2, "p": 1.0},
            {"i": 2, "j": 2, "k": 2, "p": 1.0},
        ]
        entries[1].update(bad)
        return {"m": 2, "entries": entries}

    def test_integral_payload_accepted(self):
        assert tensor_from_obj(self.payload()).m == 2
        assert tensor_from_obj(self.payload(i=1.0, k=2.0)).m == 2

    @pytest.mark.parametrize("field", ["i", "j", "k"])
    @pytest.mark.parametrize("value", [1.7, True, "1", None])
    def test_non_integral_entry_index_rejected(self, field, value):
        with pytest.raises(QsoError, match="indices must be integers"):
            tensor_from_obj(self.payload(**{field: value}))

    def test_non_integral_kernel_index_rejected(self):
        obj = self.payload(j=1.7)
        with pytest.raises(QsoError, match="indices must be integers"):
            kernel_from_obj({"n": 2, "q": obj["entries"]})

    @pytest.mark.parametrize("sigma", [[2.9, 3.2, 1.7], [True, 2, 3], ["2", "3", "1"]])
    def test_non_integral_permutation_rejected(self, sigma):
        with pytest.raises(InvalidPermutation, match="must be integers"):
            perm_from_obj({"sigma": sigma})

    def test_integral_float_permutation_accepted(self):
        assert perm_from_obj({"sigma": [2.0, 3.0, 1.0]}) == Permutation.from_one_based([2, 3, 1])

    @pytest.mark.parametrize("family", [1.7, True, "1"])
    def test_non_integral_family_rejected(self, family):
        obj = {"family": family, "alpha": 0.1, "beta": 0.2, "gamma": 0.3}
        with pytest.raises(InvalidFamily, match="must be an integer"):
            spec_from_obj(obj)


def exact_entries(entries: list[dict]) -> bool:
    """Every entry holds exact ints at i, j, k and an exact float at p, in that key order."""
    return all(
        list(e) == ["i", "j", "k", "p"]
        and type(e["i"]) is type(e["j"]) is type(e["k"]) is int and type(e["p"]) is float
        for e in entries
    )


def zeroed(rng: np.random.Generator, m: int) -> np.ndarray:
    """A symmetric stochastic array with about 70 % of its entries zeroed at random."""
    p = rng.random((m, m, m)) * (rng.random((m, m, m)) < 0.3)
    p[:, :, 0] += 1e-3  # every slice keeps some mass
    p = (p + p.transpose(1, 0, 2)) / 2.0
    return p / p.sum(axis=2, keepdims=True)


class TestSmallAndLargeEntryEncoders:
    """Tensors and kernels up to m^3 = 512 (m <= 8) are encoded from Python floats,
    larger ones through np.nonzero; both give the reference entries."""

    @pytest.mark.parametrize("m", range(2, 10))
    def test_tensor_and_kernel_entries_match_reference(self, m):
        rng = np.random.default_rng(800 + m)
        tensors = [rand_tensor(rng, m), rand_volterra_tensor(rng, m), QsoTensor(m, zeroed(rng, m))]
        kernels = [rand_kernel(rng, m), rand_volterra_kernel(rng, m), FiniteKernel(m, zeroed(rng, m))]
        for V in tensors:
            got = tensor_to_obj(V)["entries"]
            assert got == reference_array_to_entries(V.p) and exact_entries(got)
        for K in kernels:
            got = kernel_to_obj(K)["q"]
            assert got == reference_array_to_entries(K.q) and exact_entries(got)

    @pytest.mark.parametrize("m", [2, 3, 8, 9])
    def test_negative_zeros_are_dropped(self, m):
        rng = np.random.default_rng(850 + m)
        p = rand_volterra_tensor(rng, m).p
        signed = np.where(p == 0.0, -0.0, p)
        assert np.signbit(signed).sum() > 0
        V = QsoTensor(m, signed)
        assert np.signbit(V.p).sum() > 0
        got = tensor_to_obj(V)["entries"]
        assert got == reference_array_to_entries(V.p) == tensor_to_obj(QsoTensor(m, p))["entries"]
        assert exact_entries(got)
        K = FiniteKernel(m, signed)
        assert kernel_to_obj(K)["q"] == reference_array_to_entries(K.q)

    def test_slot_tables_are_cached_for_small_sizes_only(self):
        _upper_slots.cache_clear()
        for m in range(2, 12):
            tensor_to_obj(rand_tensor(np.random.default_rng(m), m))
        assert _upper_slots.cache_info().currsize == 7  # m = 2..8
        assert 8**3 <= _SMALL_ENTRIES_MAX < 9**3


def _tensor_or_error(read):
    """The array's shape, dtype, bytes and write flag, or the error's type and message."""
    try:
        p = read().p
    except Exception as exc:  # the error's type and message are the result
        return (type(exc), str(exc))
    return (p.shape, p.dtype, p.tobytes(), p.flags.writeable)


def _decode_matches_validate(obj, mode="strict"):
    """``tensor_from_obj`` gives what ``validate`` makes of the loop's reference array."""
    m, entries = obj["m"], obj["entries"]
    want = _tensor_or_error(
        lambda: core_validate(reference_entries_to_array(m, entries, "tensor"), mode=mode))
    assert _tensor_or_error(lambda: tensor_from_obj(obj, mode=mode)) == want


def _slices_rescaled(entries):
    """The entries with each float p divided by the sum of the float p's listed for its (i, j)."""
    def slice_of(e):
        return repr((e.get("i"), e.get("j"))) if type(e.get("p")) is float else None

    sums = {}
    for e in entries:
        if isinstance(e, dict) and (key := slice_of(e)) is not None:
            sums[key] = sums.get(key, 0.0) + e["p"]
    return type(entries)(
        dict(e, p=e["p"] / sums[key])
        if isinstance(e, dict) and (key := slice_of(e)) is not None and sums[key] > 0.0 else e
        for e in entries
    )


@settings(max_examples=200, deadline=None)
@given(_entry_payloads(), st.sampled_from(["strict", "normalize"]))
def test_tensor_decode_matches_validate_of_the_reference(case, mode):
    """Each draw also with its slices rescaled to one, so that clean ones take the small path."""
    m, entries, _ = case
    for listed in (entries, _slices_rescaled(entries)):
        _decode_matches_validate({"m": m, "entries": listed}, mode)


def _family_payload(family, a, b, g):
    return json.loads(dumps(tensor_to_obj(op_family(OpFamilySpec(family, a, b, g)))))


def _off_by(offset):
    """The family-1 payload with its first diagonal entry 1.0 (alone in its slice) + offset."""
    obj = _family_payload(1, 0.3, 0.6, 0.9)
    ent = next(e for e in obj["entries"] if e["i"] == e["j"])
    assert ent["p"] == 1.0
    ent["p"] = 1.0 + offset
    return obj


def _with_entries(obj, *values):
    """The payload with each of ``values`` listed at one of its zero slots i <= j."""
    m = obj["m"]
    have = {(e["i"], e["j"], e["k"]) for e in obj["entries"]}
    free = [(i, j, k) for i in range(1, m + 1) for j in range(i, m + 1) for k in range(1, m + 1)
            if (i, j, k) not in have]
    obj["entries"] += [dict(zip("ijkp", at + (v,))) for at, v in zip(free, values)]
    return obj


def _as_tuple(obj):
    obj["entries"] = tuple(obj["entries"])
    return obj


def _edited(obj, at, **fields):
    obj["entries"][at].update(fields)
    return obj


def _without_slice(obj, i, j):
    """The payload without slice (i, j), padded with zeros elsewhere to its entry count."""
    kept = [e for e in obj["entries"] if (e["i"], e["j"]) != (i, j)]
    have = {(e["i"], e["j"], e["k"]) for e in kept}
    free = [(a, b, c) for a in (1, 2, 3) for b in range(a, 4) for c in (1, 2, 3)
            if (a, b) != (i, j) and (a, b, c) not in have]
    obj["entries"] = kept + [dict(zip("ijkp", f + (0.0,))) for f in free[:3]]
    assert len(obj["entries"]) >= 6
    return obj


def _dense_payload(m):
    V = core_validate(np.random.default_rng(900 + m).random((m, m, m)), "normalize")
    return json.loads(dumps(tensor_to_obj(V)))


_HALF = EPS_VAL / 2
_NUDGE = 2.0**-20

# name -> (payload, whether strict decoding skips validate; None: the loop raises first)
_SMALL_PATH_EDGES = {
    "negative zeros": (lambda: _with_entries(_family_payload(1, 0.3, 0.6, 0.9), -0.0, -0.0), True),
    "extra keys": (lambda: _edited(_family_payload(4, 0.2, 0.7, 0.1), 2, note="x", q=1), True),
    "integer coefficients": (lambda: _family_payload(2, 0.0, 1.0, 0.0), True),
    "dense m = 8": (lambda: _dense_payload(8), True),
    "clamped -1e-12": (lambda: _with_entries(_family_payload(1, 0.3, 0.6, 0.9), -1e-12), False),
    "off by EPS_VAL/2 (1 - 2^-20) up": (lambda: _off_by(_HALF * (1 - _NUDGE)), True),
    "off by EPS_VAL/2 (1 - 2^-20) down": (lambda: _off_by(-_HALF * (1 - _NUDGE)), True),
    "off by EPS_VAL/2 (1 + 2^-20) up": (lambda: _off_by(_HALF * (1 + _NUDGE)), False),
    "off by EPS_VAL/2 (1 + 2^-20) down": (lambda: _off_by(-_HALF * (1 + _NUDGE)), False),
    "off by EPS_VAL (1 - 2^-20)": (lambda: _off_by(EPS_VAL * (1 - _NUDGE)), False),
    "off by EPS_VAL (1 + 2^-20)": (lambda: _off_by(EPS_VAL * (1 + _NUDGE)), False),
    "missing slice": (lambda: _without_slice(_family_payload(3, 0.2, 0.4, 0.6), 1, 2), False),
    "integral float index": (lambda: _edited(_family_payload(1, 0.3, 0.6, 0.9), 0, i=1.0), False),
    "p NaN": (lambda: _edited(_family_payload(1, 0.3, 0.6, 0.9), 1, p=float("nan")), False),
    "p inf": (lambda: _edited(_family_payload(1, 0.3, 0.6, 0.9), 1, p=float("inf")), False),
    "p -inf": (lambda: _edited(_family_payload(1, 0.3, 0.6, 0.9), 1, p=float("-inf")), False),
    "p True": (lambda: _edited(_family_payload(1, 0.3, 0.6, 0.9), 1, p=True), None),
    "p 10**400": (lambda: _edited(_family_payload(1, 0.3, 0.6, 0.9), 1, p=10**400), None),
    "entries tuple": (lambda: _as_tuple(_family_payload(5, 0.7, 0.1, 0.35)), False),
    "dense m = 9": (lambda: _dense_payload(9), False),
    "m = 1": (lambda: {"m": 1, "entries": [{"i": 1, "j": 1, "k": 1, "p": 1.0}]}, False),
}


def _payload(name):
    return _SMALL_PATH_EDGES[name][0]()


@pytest.fixture
def validate_calls(monkeypatch):
    """The number of calls of ``serialize.validate`` so far, as a one-item list."""
    calls = [0]

    def spy(*args, **kwargs):
        calls[0] += 1
        return core_validate(*args, **kwargs)

    monkeypatch.setattr(serialize, "validate", spy)
    return calls


class TestSmallDecodePath:
    """Strict m <= 8 payloads that validate would return unchanged skip it, with its bits."""

    @pytest.mark.parametrize("name", sorted(_SMALL_PATH_EDGES))
    @pytest.mark.parametrize("mode", ["strict", "normalize"])
    def test_edge_matches_validate_of_the_reference(self, name, mode):
        _decode_matches_validate(_payload(name), mode)

    @pytest.mark.parametrize("name", sorted(_SMALL_PATH_EDGES))
    def test_edge_skips_validate_only_when_clean(self, name, validate_calls):
        skips = _SMALL_PATH_EDGES[name][1]
        try:
            tensor_from_obj(_payload(name))
            raised = False
        except QsoError:
            raised = True
        assert validate_calls[0] == (skips is False)
        if skips is not False:  # a clean payload decodes; the loop raises before validate
            assert raised is (skips is None)

    def test_negative_zeros_are_kept(self):
        obj = _payload("negative zeros")
        V = tensor_from_obj(obj)
        for e in obj["entries"][-2:]:
            i, j, k = e["i"] - 1, e["j"] - 1, e["k"] - 1
            assert np.signbit(V.p[i, j, k]) and np.signbit(V.p[j, i, k])
        assert np.signbit(V.p).sum() == sum(2 - (e["i"] == e["j"]) for e in obj["entries"][-2:])

    @pytest.mark.parametrize("family", range(1, 7))
    def test_op_family_payloads_skip_validate(self, family, validate_calls):
        rng = np.random.default_rng(family)
        params = [(0.0, 0.0, 0.0), (1.0, 0.5, 0.0), (0.5, 0.5, 0.5), *rng.random((5, 3)).tolist()]
        for a, b, g in params:
            obj = _family_payload(family, a, b, g)
            V = tensor_from_obj(obj)
            assert validate_calls[0] == 0
            assert V.p.tobytes() == op_family(OpFamilySpec(family, a, b, g)).p.tobytes()
            assert not V.p.flags.writeable and V.p.flags.c_contiguous and V.p.base is None
            _decode_matches_validate(obj)

    def test_normalize_mode_calls_validate_and_kernels_never_do(self, validate_calls):
        obj = _family_payload(1, 0.3, 0.6, 0.9)
        tensor_from_obj(obj, mode="normalize")
        assert validate_calls[0] == 1
        assert kernel_from_obj({"n": 3, "q": obj["entries"]}).n == 3
        assert validate_calls[0] == 1
