"""Trajectory iteration, stop detection, and export."""

from __future__ import annotations

import io
import itertools

import numpy as np
import pytest

from helpers import rand_simplex, rand_skew, rand_tensor, rand_volterra_tensor, reference_iterate
from qso import (
    OpFamilySpec,
    Permutation,
    SimplexPoint,
    SkewMatrix,
    apply,
    conjugate,
    fixed_points_on_vertices,
    from_canonical,
    iterate,
    op_family,
    permute_point,
    validate,
    write_trajectory_csv,
)
from qso.errors import DimensionMismatch, ParameterOutOfRange


def rock_paper_scissors() -> np.ndarray:
    a = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    return from_canonical(SkewMatrix(3, a))


class TestIterate:
    def test_identity_converges_immediately(self):
        V = from_canonical(SkewMatrix(3, np.zeros((3, 3))))
        traj = iterate(V, SimplexPoint([0.2, 0.3, 0.5]))
        assert traj.status == "converged"
        assert traj.iterations == 1
        assert np.allclose(traj.points[0].coords, traj.points[1].coords, atol=1e-15)

    def test_volterra_fixes_vertices(self):
        rng = np.random.default_rng(80)
        V = rand_volterra_tensor(rng, 3)
        traj = iterate(V, SimplexPoint.vertex(3, 2))
        assert traj.status == "converged"
        assert traj.iterations == 1
        assert np.array_equal(traj.final.coords, SimplexPoint.vertex(3, 2).coords)

    def test_swap_operator_two_cycle(self):
        V = op_family(OpFamilySpec(1, 0.5, 0.5, 0.5))
        traj = iterate(V, SimplexPoint([0.7, 0.1, 0.2]))
        assert traj.status == "cycle"
        assert traj.cycle_length == 2
        assert traj.status_label == "cycle(2)"

    def test_budget_exhaustion(self):
        traj = iterate(rock_paper_scissors(), SimplexPoint([0.5, 0.3, 0.2]), max_iter=25)
        assert traj.status == "budget_exhausted"
        assert traj.iterations == 25
        assert len(traj.points) == 26

    def test_consecutive_points_consistent(self):
        rng = np.random.default_rng(81)
        V = rand_tensor(rng, 3)
        traj = iterate(V, rand_simplex(rng, 3), max_iter=50)
        for prev, nxt in zip(traj.points, traj.points[1:]):
            assert np.abs(apply(V, prev).coords - nxt.coords).max() <= 1e-12

    def test_points_stay_on_simplex(self):
        rng = np.random.default_rng(82)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            traj = iterate(rand_tensor(rng, m), rand_simplex(rng, m), max_iter=200)
            for pt in traj.points:
                assert pt.coords.min() >= 0.0
                assert abs(pt.coords.sum() - 1.0) <= 1e-10

    def test_volterra_support_monotone(self):
        # supports at exactly zero: a thresholded support can flicker when a
        # positive coordinate decays below the threshold and regrows
        rng = np.random.default_rng(83)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            V = rand_volterra_tensor(rng, m)
            x0 = rand_simplex(rng, m, n_zeros=int(rng.integers(0, m)))
            traj = iterate(V, x0, max_iter=200)
            for prev, nxt in zip(traj.points, traj.points[1:]):
                assert set(np.nonzero(nxt.coords > 0)[0]) <= set(np.nonzero(prev.coords > 0)[0])

    def test_conjugated_dynamics_commute(self):
        rng = np.random.default_rng(84)
        for _ in range(20):
            V = rand_tensor(rng, 3)
            perm = Permutation(tuple(int(i) for i in rng.permutation(3)))
            x0 = rand_simplex(rng, 3)
            base = iterate(V, x0, max_iter=50)
            conj = iterate(conjugate(V, perm), permute_point(perm.inverse(), x0), max_iter=50)
            assert conj.status == base.status
            assert len(conj.points) == len(base.points)
            for p, q in zip(base.points, conj.points):
                expected = permute_point(perm.inverse(), p)
                assert np.abs(q.coords - expected.coords).max() <= 1e-10

    def test_parameter_validation(self):
        V = rand_tensor(np.random.default_rng(0), 3)
        with pytest.raises(ValueError):
            iterate(V, SimplexPoint.barycenter(3), max_iter=0)
        with pytest.raises(ValueError):
            iterate(V, SimplexPoint.barycenter(3), tol=0.0)
        with pytest.raises(DimensionMismatch):
            iterate(V, SimplexPoint.barycenter(4))

    def test_bad_budget_and_tolerance_are_typed_errors(self):
        V = rand_tensor(np.random.default_rng(0), 3)
        x0 = SimplexPoint.barycenter(3)
        for kwargs in ({"max_iter": 0}, {"max_iter": -5}, {"tol": 0.0}, {"tol": -1.0},
                       {"tol": float("nan")}):
            with pytest.raises(ParameterOutOfRange):
                iterate(V, x0, **kwargs)


HETEROCLINIC = from_canonical(
    SkewMatrix(3, 0.05 * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]))
)


def reference_cases():
    """(operator, start, budget, tol) covering convergence, cycles and budget runs."""
    rng = np.random.default_rng(86)
    cases = []
    for family in (1, 2, 4):
        for params in itertools.product((0.0, 0.5, 1.0), repeat=3):
            V = op_family(OpFamilySpec(family, *params))
            cases.append((V, rand_simplex(rng, 3), 120, 1e-10))
    for x0 in ([0.5, 0.3, 0.2], [0.1, 0.1, 0.8]):
        cases.append((HETEROCLINIC, SimplexPoint(x0), 300, 1e-10))
    for _ in range(4):
        cases.append((from_canonical(rand_skew(rng, 10)), rand_simplex(rng, 10), 150, 1e-10))
        m = int(rng.integers(2, 6))
        cases.append((rand_tensor(rng, m), rand_simplex(rng, m), 150, 1e-10))
    # at step 3 both lag 2 and lag 3 are within tol; the smallest lag must win
    multi = (op_family(OpFamilySpec(4, 0.02, 0.92, 0.6)), SimplexPoint([0.3, 0.36, 0.34]), 10, 0.077)
    cases.append(multi)
    return cases


class TestIterateMatchesReference:
    """The ring-buffer scan reproduces the per-lag loop exactly."""

    @pytest.mark.parametrize("window", [0, 1, 3, 64])
    def test_same_stop_and_points(self, window):
        statuses = set()
        for V, x0, budget, tol in reference_cases():
            got = iterate(V, x0, max_iter=budget, tol=tol, window=window)
            want = reference_iterate(V, x0, budget, tol, window=window)
            assert (got.status, got.cycle_length, got.iterations) == (
                want.status, want.cycle_length, want.iterations)
            assert len(got.points) == len(want.points)
            for p, q in zip(got.points, want.points):
                assert np.array_equal(p.coords, q.coords)
            statuses.add(got.status)
        expected = {"converged", "budget_exhausted"} | ({"cycle"} if window >= 2 else set())
        assert statuses == expected

    def test_smallest_matching_lag_wins(self):
        V, x0, budget, tol = reference_cases()[-1]
        traj = iterate(V, x0, max_iter=budget, tol=tol)
        pts = [pt.coords for pt in traj.points]
        t = traj.iterations
        lags = [d for d in range(1, t + 1) if np.abs(pts[t] - pts[t - d]).max() <= tol]
        assert lags == [2, 3]
        assert (traj.status, traj.cycle_length) == ("cycle", 2)
        ref = reference_iterate(V, x0, budget, tol)
        assert (ref.status, ref.cycle_length, ref.iterations) == ("cycle", 2, t)


class TestFixedVertices:
    def test_volterra_fixes_all_vertices(self):
        rng = np.random.default_rng(85)
        for m in (2, 3, 4):
            V = rand_volterra_tensor(rng, m)
            assert fixed_points_on_vertices(V) == frozenset(range(1, m + 1))

    def test_family1_fixes_only_second_vertex(self):
        V = op_family(OpFamilySpec(1, 0.3, 0.6, 0.9))
        assert fixed_points_on_vertices(V) == frozenset({2})

    def test_uniform_kernel_fixes_none(self):
        V = validate(np.full((3, 3, 3), 1.0 / 3.0))
        assert fixed_points_on_vertices(V) == frozenset()


class TestCsvExport:
    def test_header_rows_and_final_status(self):
        V = op_family(OpFamilySpec(1, 0.5, 0.5, 0.5))
        traj = iterate(V, SimplexPoint([0.7, 0.1, 0.2]))
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "iter,x1,x2,x3,status"
        assert len(lines) == len(traj.points) + 1
        assert lines[1].startswith("0,") and lines[1].endswith(",")
        assert lines[-1].endswith(",cycle(2)")
