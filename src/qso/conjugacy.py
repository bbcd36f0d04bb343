"""Permutation action on operators and the conjugacy classes of OP families.

Two operators V and W are conjugate when W = T^-1 o V o T for a coordinate
permutation T. Conjugation amounts to relabeling species, so it preserves
every structural property studied here (Volterra, orthogonality
preservation, associativity of the induced algebra).

An OP operator is a vertex permutation sigma applied to a Volterra tensor,
and conjugating it by T conjugates sigma by T (and relabels the Volterra
tensor). So two OP families are conjugate iff their permutations are
conjugate in S_3, i.e. have the same cycle type: the classes are the
identity {2}, the transpositions {1, 3, 5} and the 3-cycles {4, 6}, read
off ``FAMILY_VERTEX_IMAGES`` without building a tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .core import QsoTensor, SimplexPoint, _integer, as_integer
from .errors import DimensionMismatch, InvalidPermutation
from .orthopreserve import FAMILY_VERTEX_IMAGES, OpFamilySpec


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., m-1} stored as the image array ``sigma``.

    The induced coordinate map sends a vector v to the vector with
    coordinates v[sigma[k]]; JSON payloads carry the 1-based images.
    """

    sigma: tuple[int, ...]

    def __post_init__(self):
        sigma = tuple(_integer("permutation image", s, InvalidPermutation) for s in self.sigma)
        if sorted(sigma) != list(range(len(sigma))):
            raise InvalidPermutation(f"{sigma} is not a bijection of 0..{len(sigma) - 1}")
        object.__setattr__(self, "sigma", sigma)

    @property
    def m(self) -> int:
        return len(self.sigma)

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        """The identity of {0, ..., m-1}; ``m`` is integral and >= 0."""
        return cls(tuple(range(_integer("permutation size", m, DimensionMismatch, low=0))))

    @classmethod
    def from_one_based(cls, images: Sequence[int]) -> "Permutation":
        """The permutation with these 1-based images; an error names them 1-based too."""
        sigma = [as_integer(i) for i in images]
        if None in sigma:
            raise InvalidPermutation(f"images must be integers, got {list(images)}")
        if sorted(sigma) != list(range(1, len(sigma) + 1)):
            raise InvalidPermutation(f"{sigma} is not a bijection of 1..{len(sigma)}")
        return cls(tuple(i - 1 for i in sigma))

    @property
    def one_based(self) -> tuple[int, ...]:
        return tuple(s + 1 for s in self.sigma)

    def inverse(self) -> "Permutation":
        return Permutation(tuple(int(i) for i in np.argsort(self.sigma)))

    def compose(self, other: "Permutation") -> "Permutation":
        """The permutation mapping k to other.sigma[self.sigma[k]].

        Chosen so that conjugating twice telescopes:
        conjugate(conjugate(V, p), q) == conjugate(V, p.compose(q)).
        """
        if self.m != other.m:
            raise DimensionMismatch(f"size mismatch: {self.m} vs {other.m}")
        return Permutation(tuple(other.sigma[s] for s in self.sigma))


def permute_point(perm: Permutation, x: SimplexPoint) -> SimplexPoint:
    """Coordinate permutation of x: result_k = x[sigma[k]]."""
    if perm.m != x.m:
        raise DimensionMismatch(f"permutation size {perm.m} vs point size {x.m}")
    return SimplexPoint(x.coords[list(perm.sigma)])


@lru_cache(maxsize=64)
def _inverse_index(sigma: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inverse images of ``sigma`` as an index for p[i, j, k]: on i, j and k.

    The three arrays are broadcast views of one read-only array of m intp,
    so the cache holds at most 64 of them: 512 m bytes of indices at size
    m (64 KiB at m = 128), beside their m-tuple keys.
    """
    m = len(sigma)
    inv = np.empty(m, dtype=np.intp)
    inv[list(sigma)] = np.arange(m)
    inv.flags.writeable = False
    return inv[:, None, None], inv[:, None], inv


def conjugate(V: QsoTensor, perm: Permutation) -> QsoTensor:
    """The conjugated operator T^-1 o V o T for the coordinate map T of ``perm``.

    Realized entrywise: the result's entry at (i, j, k) is the input's
    entry at the inverse-permuted indices, one gather through the
    broadcast inverse images, cached per permutation. A gather keeps the
    input's bits, and the same permutation on i and j keeps the (i, j)
    symmetry exact.
    """
    if perm.m != V.m:
        raise DimensionMismatch(f"permutation size {perm.m} vs operator size {V.m}")
    return QsoTensor._trusted(V.m, V.p[_inverse_index(perm.sigma)])


def _cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    """Sorted cycle lengths of the permutation with these 1-based images."""
    lengths, seen = [], set()
    for start in range(1, len(images) + 1):
        k, n = start, 0
        while k not in seen:
            seen.add(k)
            k, n = images[k - 1], n + 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths))


def conjugacy_classes(
    families: Iterable[int] = range(1, 7),
    params: tuple[float, float, float] = (0.3, 0.6, 0.9),
) -> list[frozenset[int]]:
    """Partition the given OP family indices into conjugacy classes.

    Groups the families by the cycle type of their vertex permutation in
    ``FAMILY_VERTEX_IMAGES`` (see the module docstring). ``params`` is
    validated and otherwise ignored: each family is named by
    ``OpFamilySpec(f, *params)`` only so that a bad family or parameter
    raises as it does there, and the classes never depend on it. It is kept
    for callers that pass it. Classes are returned sorted by their smallest
    member.
    """
    classes: dict[tuple[int, ...], set[int]] = {}
    for f in {OpFamilySpec(f, *params).family for f in families}:
        classes.setdefault(_cycle_type(FAMILY_VERTEX_IMAGES[f]), set()).add(f)
    return sorted((frozenset(c) for c in classes.values()), key=min)
