"""One support threshold: the Volterra, kernel and OP verdicts agree with each other.

Each draw is the Volterra tensor of a random skew matrix at m = 3..6 with
mass f moved from an allowed entry of one slice (i, j) to a forbidden one,
p[i, j, k] with k outside {i, j}. f is log-uniform in [1e-14, 1e-7], or
``EPS_VAL`` times 1 - 2^-20, 1 or 1 + 2^-20, so the draws straddle the
threshold at which every verdict puts a coefficient in the support. The
paper's main result makes every Volterra operator OP (sigma = id), and
``classify_op`` succeeds exactly on the OP tensors of S^2.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from helpers import rand_skew
from qso import (
    EPS_VAL,
    FiniteKernel,
    NotOrthogonalityPreserving,
    Permutation,
    QsoTensor,
    classify_op,
    conjugate,
    from_canonical,
    is_orthogonality_preserving,
    is_volterra,
    kernel_is_volterra,
    kernel_volterra_oracle,
    volterra_certificate,
)

#: How f is drawn: log-uniform in [1e-14, 1e-7], or at ``THRESHOLD_FACTORS``.
REGIMES = ("log-uniform", "threshold")
#: Multiples of ``EPS_VAL`` on and just either side of the threshold.
THRESHOLD_FACTORS = (1.0 - 2.0**-20, 1.0, 1.0 + 2.0**-20)


def draw_mass(rng: np.random.Generator, regime: str) -> float:
    """A forbidden mass f drawn as ``regime`` names."""
    if regime == "log-uniform":
        return 10.0 ** rng.uniform(-14.0, -7.0)
    return EPS_VAL * THRESHOLD_FACTORS[rng.integers(len(THRESHOLD_FACTORS))]


def near_volterra(rng: np.random.Generator, m: int, f: float) -> QsoTensor:
    """A random Volterra tensor with one forbidden entry pair set to f."""
    p = from_canonical(rand_skew(rng, m)).p.copy()
    i, j = sorted(int(c) for c in rng.integers(m, size=2))
    k = int(rng.choice([c for c in range(m) if c not in (i, j)]))
    payer = i if p[i, j, i] >= p[i, j, j] else j  # at least 1/2, so it can pay f
    for a, b in {(i, j), (j, i)}:
        p[a, b, payer] -= f
        p[a, b, k] = f
    return QsoTensor(m, p)


def verdicts(V: QsoTensor) -> dict[str, bool]:
    """Every default-threshold verdict on V; the OP ones at m = 3 only."""
    K = FiniteKernel.from_tensor(V)
    out = {
        "is_volterra": is_volterra(V),
        "certificate": volterra_certificate(V),
        "kernel_is_volterra": kernel_is_volterra(K),
        "oracle": kernel_volterra_oracle(K),
    }
    if V.m == 3:
        out["op"] = is_orthogonality_preserving(V)
        try:
            classify_op(V)
        except NotOrthogonalityPreserving:  # VertexImageNotVertex too
            out["classified"] = False
        else:
            out["classified"] = True
    return out


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_verdicts_agree_across_the_threshold(m, regime):
    rng = np.random.default_rng([360 + m, REGIMES.index(regime)])
    seen = set()
    for _ in range(150):
        f = draw_mass(rng, regime)
        V = near_volterra(rng, m, f)
        got = verdicts(V)
        volterra = got["is_volterra"]
        assert volterra == (f <= EPS_VAL), f
        assert got["certificate"] == got["kernel_is_volterra"] == got["oracle"] == volterra, f
        if m == 3:
            assert got["op"] or not volterra, f  # Volterra implies OP
            assert got["classified"] == got["op"], f
            for sigma in itertools.permutations(range(3)):
                assert verdicts(conjugate(V, Permutation(sigma))) == got, (f, sigma)
            seen.add(got["op"])
        seen.add(volterra)
    assert seen == {True, False}  # both sides of the threshold were drawn
