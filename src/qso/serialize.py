"""JSON formats for the value types, plus a deterministic JSON emitter.

All index fields in payloads are 1-based. Formats:

* tensor:      {"m": 3, "entries": [{"i": 1, "j": 1, "k": 3, "p": 1.0}, ...]}
               with i <= j; omitted entries are zero and the symmetric
               completion p[j, i, k] = p[i, j, k] is implied.
* kernel:      {"n": 3, "q": [{"i": ..., "j": ..., "k": ..., "p": ...}]}
               same conventions as the tensor format.
* point:       {"x": [0.5, 0.5, 0.0]}   (also used for measures)
* skew matrix: {"m": 3, "a": [[...], [...], [...]]} with the full matrix.
* family spec: {"family": 1, "alpha": 0.3, "beta": 0.6, "gamma": 0.9}
* permutation: {"sigma": [2, 3, 1]}     (images of 1..m)

``dumps`` renders with sorted keys and floats at 17 significant digits so
identical inputs always produce byte-identical output; strings are escaped
as ``json.dumps(..., ensure_ascii=False)`` escapes them (quote, backslash
and the control characters U+0000-U+001F), so every output is valid JSON.
An entry list (a list of plain dicts sharing one set of str keys, each key
holding only ints or only floats) is written with one ``%`` format over its
columns. ``_read_entries`` reads a well-formed entry list of size m > 8
column by column and falls back to the per-entry loop, the only source of
its error messages, for anything its bulk checks refuse. Sizes m <= 8 take
the loop, which builds the array from one list of Python floats. A strict
tensor payload of that size skips ``validate`` when it is clean: exact-int
indices, values >= 0 and slice sums within ``EPS_VAL / 2`` of one, a case
in which validate would return its values unchanged (see ``_is_clean``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring as _fmt_str
from operator import itemgetter
from typing import TYPE_CHECKING, Any

import numpy as np

from .core import EPS_VAL, QsoTensor, SimplexPoint, _integer, as_integer, validate
from .errors import (
    DimensionMismatch,
    InvalidPoint,
    InvalidSkew,
    NotStochastic,
    QsoError,
    TooLarge,
)

if TYPE_CHECKING:
    # the ``*_from_obj`` functions import these where they build them, so
    # decoding a tensor loads only ``core`` and ``errors``
    from .conjugacy import Permutation
    from .kernel import DiscreteMeasure, FiniteKernel
    from .orthopreserve import OpFamilySpec
    from .volterra import SkewMatrix


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


# row template field for each exact column type; "%.17g" % x and
# format(x, ".17g") are the same conversion, as are "%d" % n and str(n)
_COLUMN_FORMATS = {int: "%d", float: "%.17g"}


@lru_cache(maxsize=64)
def _row_template(keys: tuple[str, ...], types: tuple[type, ...]) -> str | None:
    """The ``%`` template of one record with these sorted keys and column types.

    Keys are escaped and their ``%`` doubled; None if a type has no format.
    """
    fields = []
    for key, t in zip(keys, types):
        if (spec := _COLUMN_FORMATS.get(t)) is None:
            return None
        fields.append(_fmt_str(key).replace("%", "%%") + ":" + spec)
    return "{" + ",".join(fields) + "}"


def _dumps_records(rows: list) -> str | None:
    """A list of records in one ``%`` format, or None if it is not one.

    A record list is non-empty, its items are exact dicts with the same
    exact-str keys, and each key's values are all exact ints or all exact
    floats. One row template (keys sorted and escaped, ``%`` doubled; built
    once per key and type set) is repeated and filled from the flattened
    columns.
    """
    if not rows or set(map(type, rows)) != {dict}:
        return None
    first = rows[0]
    if not all(type(k) is str for k in first) or set(map(len, rows)) != {len(first)}:
        return None
    keys = tuple(sorted(first))
    types = []
    columns = []
    try:
        for key in keys:
            column = list(map(itemgetter(key), rows))
            column_types = set(map(type, column))
            if len(column_types) != 1:
                return None
            types.append(column_types.pop())
            columns.append(column)
    except KeyError:  # a row lacks a key of the first row
        return None
    row = _row_template(keys, tuple(types))
    if row is None:
        return None
    text = ",".join([row] * len(rows)) % tuple(chain.from_iterable(zip(*columns)))
    return "[" + text + "]"


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    An exact float, int or str (also as a dict key) is written straight
    from its type, and an exact list of records (see ``_dumps_records``)
    with one ``%`` format; any other list, and everything else, numpy
    scalars and subclasses included, goes through the ``isinstance``
    chain, which gives all of these the same text.
    """
    t = type(obj)
    if t is float:
        return format(obj, ".17g")
    if t is int:
        return str(obj)
    if t is str:
        return _fmt_str(obj)
    if t is list and (text := _dumps_records(obj)) is not None:
        return text
    if isinstance(obj, dict):
        return "{" + ",".join([
            f"{_fmt_str(k) if type(k) is str else dumps(str(k))}:{dumps(v)}"
            for k, v in sorted(obj.items())
        ]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([dumps(v) for v in obj]) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _fmt_str(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _require(obj: dict, key: str, payload: str):
    if not isinstance(obj, dict) or key not in obj:
        raise QsoError(f"{payload} payload must be an object with a {key!r} field")
    return obj[key]


def _dimension(obj: dict, key: str, payload: str) -> int:
    """The size field ``key`` of a payload: an integer of at least 0."""
    return _integer(f"{payload} {key}", _require(obj, key, payload), DimensionMismatch, low=0)


#: Largest size m (or n) a tensor, kernel or skew payload decodes to. Each
#: becomes an m^3 array while the file grows only as m^2: one ``qso volterra
#: check`` process on a Volterra payload peaked at ~55 MB RSS at m = 100,
#: ~224 MB at m = 200 and ~675 MB at m = 300 (2-core x86-64 VM). A larger
#: size raises :class:`TooLarge` before the array is allocated, once the
#: payload lists enough entries to be read; the value types take any size.
MAX_DIMENSION = 200


def _check_dimension(m: int, payload: str) -> None:
    if m > MAX_DIMENSION:
        raise TooLarge(f"{payload} size is capped at {MAX_DIMENSION}, got {m}")


# the types of a JSON number; a coefficient or coordinate of any other type
# (a bool, a string) is refused, though ``float`` would read it
_NUMBER_TYPES = frozenset((int, float))

#: Largest m^3 whose entries are encoded and decoded on Python floats (m <= 8).
_SMALL_ENTRIES_MAX = 512

# entry lists of a larger size that are shorter than this are read by the
# per-entry loop: below it the bulk path's fixed numpy cost outweighs what it
# saves per entry (at m <= 8 the loop is the faster one at any length)
_BULK_MIN_ENTRIES = 64


def _bulk_entries_to_array(m: int, entries) -> np.ndarray | None:
    """The array of a well-formed entry list, or None to leave it to the loop.

    Well formed means: exact-int indices with 1 <= i <= j <= m and
    1 <= k <= m, int or float values that ``float`` takes, no (i, j, k)
    twice, and at least one entry per slice i <= j. The loop judges
    everything else and words every error, so an error names the first bad
    entry in list order. Lists shorter than ``_BULK_MIN_ENTRIES`` go to the
    loop, which is the faster of the two there.
    """
    n = len(entries)
    if n < max(m * (m + 1) // 2, _BULK_MIN_ENTRIES):
        return None
    try:
        columns = [list(map(itemgetter(key), entries)) for key in "ijkp"]
        if any(set(map(type, column)) != {int} for column in columns[:3]):
            return None
        if not set(map(type, columns[3])) <= _NUMBER_TYPES:
            return None
        i, j, k = (np.fromiter(column, np.int64, n) - 1 for column in columns[:3])
        values = np.fromiter(columns[3], float, n)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    # with i <= j throughout, min(i) >= 1 and max(j) <= m bound i and j
    if i.min() < 0 or j.max() >= m or k.min() < 0 or k.max() >= m or (i > j).any():
        return None
    upper = (i * m + j) * m + k
    ordered = np.sort(upper)  # np.unique would import numpy.ma (~1 MB) on first use
    if (ordered[1:] == ordered[:-1]).any():  # an (i, j, k) twice
        return None
    return _scatter(m, upper, (j * m + i) * m + k, values)


def _scatter(m: int, upper: np.ndarray, lower: np.ndarray, values: np.ndarray) -> np.ndarray:
    """An m x m x m array of zeros with ``values`` at the flat slots ``upper`` and ``lower``."""
    p = np.zeros(m**3)
    p[upper] = values
    p[lower] = values
    return p.reshape(m, m, m)


@lru_cache(maxsize=8)
def _mirror_slots(m: int) -> tuple[int, ...]:
    """The flat slot of (j, i, k) at the flat slot of each (i, j, k); m^3 <= ``_SMALL_ENTRIES_MAX``."""
    return tuple((j * m + i) * m + k for i in range(m) for j in range(m) for k in range(m))


@lru_cache(maxsize=8)
def _upper_slices(m: int) -> tuple[slice, ...]:
    """The flat slots of each slice (i, j, :) with i <= j; m^3 <= ``_SMALL_ENTRIES_MAX``."""
    return tuple(slice((i * m + j) * m, (i * m + j + 1) * m) for i in range(m) for j in range(i, m))


def _read_entries(m: int, entries, payload: str) -> tuple[np.ndarray, list | None]:
    """The array of an entry payload, and its values as a flat list when it is small.

    A payload of size m^3 <= ``_SMALL_ENTRIES_MAX`` (m <= 8), and a longer
    one that ``_bulk_entries_to_array`` refuses, goes through the per-entry
    loop, which words every error and maps the flat slot of each (i, j, k)
    to its value. A small payload's array is then one ``np.array`` of the
    m^3 Python floats, both halves written; that list comes with it if the
    payload is a list with exact-int indices, else None. A large one is
    scattered into zeros by index arrays, as the bulk path does.
    """
    if not isinstance(entries, (list, tuple)):
        raise QsoError(f"{payload} entries must be a list, got {type(entries).__name__}")
    need = m * (m + 1) // 2
    if len(entries) >= need:  # shorter lists fail the slice count below
        _check_dimension(m, payload)
    small = m**3 <= _SMALL_ENTRIES_MAX
    if not small and (p := _bulk_entries_to_array(m, entries)) is not None:
        return p, None
    plain = type(entries) is list
    base = (m + 1) * m + 1  # (i, j, k) = (1, 1, 1) is flat slot 0
    values = {}
    for ent in entries:
        try:
            i, j, k, v = ent["i"], ent["j"], ent["k"], ent["p"]
            if type(v) is not float:
                if type(v) is not int:
                    raise TypeError(f"p must be a number, got {type(v).__name__}")
                v = float(v)
        except (KeyError, TypeError, OverflowError) as exc:
            raise QsoError(f"bad {payload} entry {ent!r}: {exc}") from exc
        if not type(i) is type(j) is type(k) is int:  # JSON integers need no further check
            i, j, k = as_integer(i), as_integer(j), as_integer(k)
            if None in (i, j, k):
                raise QsoError(f"bad {payload} entry {ent!r}: indices must be integers")
            plain = False
        if not (1 <= i <= j <= m and 1 <= k <= m):
            if not (1 <= i <= m and 1 <= j <= m and 1 <= k <= m):
                raise QsoError(f"{payload} entry indices {(i, j, k)} outside 1..{m}")
            raise QsoError(f"{payload} entries must have i <= j, got {(i, j, k)}")
        slot = (i * m + j) * m + k - base
        if slot in values:
            raise QsoError(f"duplicate {payload} entry for {(i, j, k)}")
        values[slot] = v
    # every (i <= j) slice must sum to one, so each needs an entry; checking
    # the count before allocating also refuses a huge size with few entries
    if len(values) < need:
        raise NotStochastic(
            f"{payload} lists {len(values)} entries, fewer than the {need} slices i <= j "
            f"of size {m}"
        )
    if small:
        flat = [0.0] * m**3
        mirror = _mirror_slots(m)
        for slot, v in values.items():
            flat[slot] = flat[mirror[slot]] = v
        p = np.array(flat, float)
        p.shape = (m, m, m)
        return p, flat if plain else None
    n = len(values)
    upper = np.fromiter(values, np.int64, n)
    i, rest = divmod(upper, m * m)
    j, k = divmod(rest, m)
    return _scatter(m, upper, (j * m + i) * m + k, np.fromiter(values.values(), float, n)), None


def _entries_to_array(m: int, entries, payload: str) -> np.ndarray:
    return _read_entries(m, entries, payload)[0]


#: How far from one the Python sum of a slice of a clean small payload may be:
#: half of ``EPS_VAL``, so that the few ulps by which numpy's order of
#: summation differs keep strict ``validate``'s sum within ``EPS_VAL``
_CLEAN_SUM_MARGIN = EPS_VAL / 2


def _is_clean(m: int, flat: list[float]) -> bool:
    """Whether strict ``validate`` returns the array of ``flat`` with its values unchanged.

    ``flat`` holds both halves of an m x m x m array in C order. Clean means
    m >= 2, no value below 0.0 (-0.0 passes) and the Python sum of every
    slice within ``_CLEAN_SUM_MARGIN`` of one, which a NaN or inf in it is
    not. Values >= 0 whose sum is at most 1 + margin are each at most that,
    so none is above one. Then validate finds no asymmetry, clamps nothing,
    rescales nothing, and (v + v) / 2 is v: its array has these bits.
    """
    if m < 2 or not min(flat) >= 0.0:
        return False
    lo, hi = 1.0 - _CLEAN_SUM_MARGIN, 1.0 + _CLEAN_SUM_MARGIN
    return all(lo <= sum(flat[s]) <= hi for s in _upper_slices(m))


@lru_cache(maxsize=8)
def _upper_slots(m: int) -> tuple[tuple[int, int, int, int], ...]:
    """(flat index, i, j, k) of each slot i <= j, indices 1-based, in (i, j, k) order.

    Only sizes with m^3 <= ``_SMALL_ENTRIES_MAX`` are asked for; the tables
    of m = 1..8 together hold under 0.1 MB.
    """
    return tuple(
        ((i * m + j) * m + k, i + 1, j + 1, k + 1)
        for i in range(m) for j in range(i, m) for k in range(m)
    )


def _array_to_entries(p: np.ndarray) -> list[dict]:
    """Nonzero entries with i <= j, in (i, j, k) order, as 1-based dicts.

    Up to m^3 = ``_SMALL_ENTRIES_MAX`` the array is read once as Python
    floats and walked along the cached slot table of its size, which skips
    numpy's per-call cost; a larger one goes through ``np.nonzero``. Both
    drop -0.0 with the zeros and give exact ints and floats.
    """
    m = p.shape[0]
    if m ** 3 <= _SMALL_ENTRIES_MAX:
        q = p.ravel().tolist()
        return [
            {"i": i, "j": j, "k": k, "p": v}
            for n, i, j, k in _upper_slots(m) if (v := q[n]) != 0.0
        ]
    upper = np.arange(m)[:, None, None] <= np.arange(m)[None, :, None]  # slices i <= j
    i, j, k = np.nonzero((p != 0.0) & upper)
    return [
        {"i": a, "j": b, "k": c, "p": v}
        for a, b, c, v in zip((i + 1).tolist(), (j + 1).tolist(), (k + 1).tolist(),
                              p[i, j, k].tolist())
    ]


def tensor_to_obj(V: QsoTensor) -> dict:
    return {"m": V.m, "entries": _array_to_entries(V.p)}


def tensor_from_obj(obj: dict, mode: str = "strict") -> QsoTensor:
    """The tensor of a payload: its entry array through ``validate(p, mode)``.

    A small strict payload (m <= 8, read by the per-entry loop as a list
    with exact-int indices) that ``_is_clean`` accepts skips validate: with
    every value >= 0 and every slice's Python sum within ``EPS_VAL / 2`` of
    one, validate would return the same values, so the array is wrapped as
    it is, with validate's bits. Every other payload, a large one and
    normalize mode included, goes through validate.
    """
    m = _dimension(obj, "m", "tensor")
    p, flat = _read_entries(m, obj.get("entries", []), "tensor")
    if mode == "strict" and flat is not None and _is_clean(m, flat):
        return QsoTensor._trusted(m, p)
    return validate(p, mode=mode)


def kernel_to_obj(K: FiniteKernel) -> dict:
    return {"n": K.n, "q": _array_to_entries(K.q)}


def kernel_from_obj(obj: dict) -> FiniteKernel:
    from .kernel import FiniteKernel

    n = _dimension(obj, "n", "kernel")
    return FiniteKernel(n, _entries_to_array(n, obj.get("q", []), "kernel"))


def point_to_obj(x: SimplexPoint) -> dict:
    return {"x": [float(c) for c in x.coords]}


def _coords_from_obj(obj: dict, payload: str) -> list[float]:
    """The "x" field of a point or measure payload, read as tensor coefficients are."""
    x = _require(obj, "x", payload)
    if not isinstance(x, (list, tuple)):
        raise InvalidPoint(f"{payload} x must be a list, got {type(x).__name__}")
    coords = []
    for v in x:
        try:
            if type(v) not in _NUMBER_TYPES:
                raise TypeError(f"x must hold numbers, got {type(v).__name__}")
            coords.append(float(v))
        except (TypeError, OverflowError) as exc:
            raise InvalidPoint(f"bad {payload} coordinate {v!r}: {exc}") from exc
    return coords


def point_from_obj(obj: dict) -> SimplexPoint:
    return SimplexPoint(_coords_from_obj(obj, "point"))


# a measure is a simplex point, so it has the point format
measure_to_obj = point_to_obj


def measure_from_obj(obj: dict) -> DiscreteMeasure:
    from .kernel import DiscreteMeasure

    return DiscreteMeasure(_coords_from_obj(obj, "measure"))


def skew_to_obj(a: SkewMatrix) -> dict:
    return {"m": a.m, "a": [[float(v) for v in row] for row in a.a]}


def skew_from_obj(obj: dict) -> SkewMatrix:
    from .volterra import SkewMatrix

    m = _dimension(obj, "m", "skew matrix")
    rows = _require(obj, "a", "skew matrix")
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSkew(f"skew matrix a must be a matrix of numbers: {exc}") from exc
    # asarray also reads "0" and false as numbers; every element must be a JSON number
    if not set(map(type, np.asarray(rows, dtype=object).flat)) <= _NUMBER_TYPES:
        raise InvalidSkew("skew matrix a must be a matrix of numbers")
    skew = SkewMatrix(m, a)
    _check_dimension(m, "skew matrix")  # from_canonical makes it an m^3 tensor
    return skew


def spec_to_obj(spec: OpFamilySpec) -> dict:
    return {
        "family": spec.family,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "gamma": spec.gamma,
    }


def spec_from_obj(obj: dict) -> OpFamilySpec:
    from .orthopreserve import OpFamilySpec

    return OpFamilySpec(
        _require(obj, "family", "family spec"),
        _require(obj, "alpha", "family spec"),
        _require(obj, "beta", "family spec"),
        _require(obj, "gamma", "family spec"),
    )


def perm_to_obj(perm: Permutation) -> dict:
    return {"sigma": list(perm.one_based)}


def perm_from_obj(obj: dict) -> Permutation:
    from .conjugacy import Permutation

    return Permutation.from_one_based(_require(obj, "sigma", "permutation"))
