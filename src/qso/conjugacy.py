"""Permutation action on operators and the conjugacy classes of OP families.

Two operators V and W are conjugate when W = T^-1 o V o T for a coordinate
permutation T. Conjugation amounts to relabeling species, so it preserves
every structural property studied here (Volterra, orthogonality
preservation, associativity of the induced algebra).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import QsoTensor, SimplexPoint, as_integer
from .errors import DimensionMismatch, InvalidPermutation
from .orthopreserve import OpFamilySpec, classify_op, op_family


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., m-1} stored as the image array ``sigma``.

    The induced coordinate map sends a vector v to the vector with
    coordinates v[sigma[k]]; JSON payloads carry the 1-based images.
    """

    sigma: tuple[int, ...]

    def __post_init__(self):
        m = len(self.sigma)
        if sorted(self.sigma) != list(range(m)):
            raise InvalidPermutation(f"{self.sigma} is not a bijection of 0..{m - 1}")
        object.__setattr__(self, "sigma", tuple(int(s) for s in self.sigma))

    @property
    def m(self) -> int:
        return len(self.sigma)

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(m)))

    @classmethod
    def from_one_based(cls, images: Sequence[int]) -> "Permutation":
        sigma = tuple(as_integer(i) for i in images)
        if None in sigma:
            raise InvalidPermutation(f"images must be integers, got {list(images)}")
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


def conjugate(V: QsoTensor, perm: Permutation) -> QsoTensor:
    """The conjugated operator T^-1 o V o T for the coordinate map T of ``perm``.

    Realized entrywise: the result's entry at (i, j, k) is the input's
    entry at the inverse-permuted indices.
    """
    if perm.m != V.m:
        raise DimensionMismatch(f"permutation size {perm.m} vs operator size {V.m}")
    inv = list(perm.inverse().sigma)
    return QsoTensor(V.m, V.p[np.ix_(inv, inv, inv)])


def conjugacy_classes(
    families: Iterable[int] = range(1, 7),
    params: tuple[float, float, float] = (0.3, 0.6, 0.9),
) -> list[frozenset[int]]:
    """Partition the given OP family indices into conjugacy classes.

    Conjugates one member of each family (at ``params``) by all 6
    coordinate permutations of S_3 and classifies the results; the
    families reached form the member's orbit, and families with the same
    orbit form one class. A member's family is read off its vertex
    permutation alone, and conjugation acts on that permutation by
    conjugation in S_3, so ``params`` never changes the result.
    Classes are returned sorted by their smallest member.
    """
    classes: dict[frozenset[int], set[int]] = {}
    for f in sorted(set(int(f) for f in families)):
        V = op_family(OpFamilySpec(f, *params))
        orbit = frozenset(
            classify_op(conjugate(V, Permutation(sigma))).family
            for sigma in itertools.permutations(range(3))
        )
        classes.setdefault(orbit, set()).add(f)
    return sorted((frozenset(c) for c in classes.values()), key=min)
