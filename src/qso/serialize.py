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
identical inputs always produce byte-identical output.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .conjugacy import Permutation
from .core import QsoTensor, SimplexPoint, validate
from .errors import DimensionMismatch, NotStochastic, QsoError
from .kernel import DiscreteMeasure, FiniteKernel
from .orthopreserve import OpFamilySpec
from .volterra import SkewMatrix


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = ",".join(f"{dumps(str(k))}:{dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _require(obj: dict, key: str, payload: str):
    if not isinstance(obj, dict) or key not in obj:
        raise QsoError(f"{payload} payload must be an object with a {key!r} field")
    return obj[key]


def _dimension(obj: dict, key: str, payload: str) -> int:
    """The nonnegative integer size field ``key`` of a payload."""
    value = _require(obj, key, payload)
    try:
        m = int(value)
        integral = not isinstance(value, bool) and m == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or m < 0:
        raise DimensionMismatch(f"{payload} {key} must be a nonnegative integer, got {value!r}")
    return m


def _entries_to_array(m: int, entries, payload: str) -> np.ndarray:
    if not isinstance(entries, (list, tuple)):
        raise QsoError(f"{payload} entries must be a list, got {type(entries).__name__}")
    values = {}
    for ent in entries:
        try:
            i, j, k, v = int(ent["i"]), int(ent["j"]), int(ent["k"]), float(ent["p"])
        except (KeyError, TypeError, ValueError) as exc:
            raise QsoError(f"bad {payload} entry {ent!r}: {exc}") from exc
        if not (1 <= i <= m and 1 <= j <= m and 1 <= k <= m):
            raise QsoError(f"{payload} entry indices {(i, j, k)} outside 1..{m}")
        if i > j:
            raise QsoError(f"{payload} entries must have i <= j, got {(i, j, k)}")
        if (i, j, k) in values:
            raise QsoError(f"duplicate {payload} entry for {(i, j, k)}")
        values[i, j, k] = v
    # every (i <= j) slice must sum to one, so each needs an entry; checking
    # the count before allocating also refuses a huge size with few entries
    need = m * (m + 1) // 2
    if len(values) < need:
        raise NotStochastic(
            f"{payload} lists {len(values)} entries, fewer than the {need} slices i <= j "
            f"of size {m}"
        )
    p = np.zeros((m, m, m))
    for (i, j, k), v in values.items():
        p[i - 1, j - 1, k - 1] = v
        p[j - 1, i - 1, k - 1] = v
    return p


def _array_to_entries(p: np.ndarray) -> list[dict]:
    m = p.shape[0]
    entries = []
    for i in range(m):
        for j in range(i, m):
            for k in range(m):
                if p[i, j, k] != 0.0:
                    entries.append({"i": i + 1, "j": j + 1, "k": k + 1, "p": float(p[i, j, k])})
    return entries


def tensor_to_obj(V: QsoTensor) -> dict:
    return {"m": V.m, "entries": _array_to_entries(V.p)}


def tensor_from_obj(obj: dict, mode: str = "strict") -> QsoTensor:
    m = _dimension(obj, "m", "tensor")
    return validate(_entries_to_array(m, obj.get("entries", []), "tensor"), mode=mode)


def kernel_to_obj(K: FiniteKernel) -> dict:
    return {"n": K.n, "q": _array_to_entries(K.q)}


def kernel_from_obj(obj: dict) -> FiniteKernel:
    n = _dimension(obj, "n", "kernel")
    return FiniteKernel(n, _entries_to_array(n, obj.get("q", []), "kernel"))


def point_to_obj(x: SimplexPoint) -> dict:
    return {"x": [float(c) for c in x.coords]}


def point_from_obj(obj: dict) -> SimplexPoint:
    return SimplexPoint(_require(obj, "x", "point"))


def measure_to_obj(mu: DiscreteMeasure) -> dict:
    return {"x": [float(w) for w in mu.weights]}


def measure_from_obj(obj: dict) -> DiscreteMeasure:
    return DiscreteMeasure(_require(obj, "x", "measure"))


def skew_to_obj(a: SkewMatrix) -> dict:
    return {"m": a.m, "a": [[float(v) for v in row] for row in a.a]}


def skew_from_obj(obj: dict) -> SkewMatrix:
    m = _dimension(obj, "m", "skew matrix")
    return SkewMatrix(m, np.asarray(_require(obj, "a", "skew matrix"), dtype=float))


def spec_to_obj(spec: OpFamilySpec) -> dict:
    return {
        "family": spec.family,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "gamma": spec.gamma,
    }


def spec_from_obj(obj: dict) -> OpFamilySpec:
    return OpFamilySpec(
        int(_require(obj, "family", "family spec")),
        float(_require(obj, "alpha", "family spec")),
        float(_require(obj, "beta", "family spec")),
        float(_require(obj, "gamma", "family spec")),
    )


def perm_to_obj(perm: Permutation) -> dict:
    return {"sigma": list(perm.one_based)}


def perm_from_obj(obj: dict) -> Permutation:
    return Permutation.from_one_based(_require(obj, "sigma", "permutation"))
