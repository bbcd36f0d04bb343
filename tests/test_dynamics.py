"""Trajectory iteration, stop detection, and export."""

from __future__ import annotations

import io
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    rand_simplex,
    rand_skew,
    rand_tensor,
    rand_volterra_tensor,
    reference_fixed_points,
    reference_iterate,
    sparse_operator,
)
from qso import (
    FiniteKernel,
    OpFamilySpec,
    Permutation,
    QsoTensor,
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
from qso import dynamics
from qso.errors import DimensionMismatch, NegativeCoefficient, NotStochastic, ParameterOutOfRange


RPS_SKEW = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


def rock_paper_scissors() -> np.ndarray:
    return from_canonical(SkewMatrix(3, RPS_SKEW))


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
                       {"tol": float("nan")}, {"max_iter": 2.5}, {"max_iter": True},
                       {"max_iter": None}, {"max_iter": "10"}, {"window": 2.5},
                       {"window": None}, {"window": False}):
            with pytest.raises(ParameterOutOfRange):
                iterate(V, x0, **kwargs)

    def test_integral_floats_and_negative_window_are_accepted(self):
        V = rock_paper_scissors()
        x0 = SimplexPoint([0.5, 0.3, 0.2])
        traj = iterate(V, x0, max_iter=np.int64(7), window=-3)
        assert (traj.status, traj.iterations, len(traj.points)) == ("budget_exhausted", 7, 8)
        assert type(traj.iterations) is int
        assert iterate(V, x0, max_iter=7.0).iterations == 7
        # a negative window detects convergence only, as window 0 and 1 do
        swap = op_family(OpFamilySpec(1, 0.5, 0.5, 0.5))
        start = SimplexPoint([0.7, 0.1, 0.2])
        assert iterate(swap, start, max_iter=40, window=-1).status == "budget_exhausted"
        assert iterate(swap, start, max_iter=40).status == "cycle"


HETEROCLINIC = from_canonical(SkewMatrix(3, 0.05 * RPS_SKEW))


def start_on(rng, m: int, support: int) -> SimplexPoint:
    return SimplexPoint(np.r_[rand_simplex(rng, support).coords, np.zeros(m - support)])


def reference_cases():
    """(operator, start, budget, tol) covering convergence, cycles and budget runs.

    They cover both sides of the rule for ``iterate``'s float step (at most
    7 species and 56 nonzero coefficients, C order): see
    ``test_cases_cover_both_sides_of_the_float_rule``.
    """
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
    # every family at its corners: coefficients and starts full of exact 0s and 1s
    starts = ([1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.25, 0.0, 0.75])
    corners = itertools.product(range(1, 7), itertools.product((0.0, 1.0), repeat=3))
    for n, (family, params) in enumerate(corners):
        cases.append((op_family(OpFamilySpec(family, *params)), SimplexPoint(starts[n % 3]), 60,
                      1e-10))
    # 30 coefficients on 5 coordinates, plus one per slice off them: float
    # steps at m = 6 and 7 (41 and 54 terms), the sparse step at m = 8, where
    # numpy sums the 8 image coordinates pairwise
    for m in (6, 7, 8):
        V = sparse_operator(rng, m, 5, lambda i, j: 2 if i == j else 1)
        cases.append((V, start_on(rng, m, 5), 150, 1e-10))
        cases.append((rand_tensor(rng, m), rand_simplex(rng, m), 150, 1e-10))
    # 56 coefficients step on floats, 57 on the einsum
    for extra in (0, 1):
        V = sparse_operator(rng, 4, 4, lambda i, j: 4 if i != j else 2 + extra * (i == 0))
        cases.append((V, rand_simplex(rng, 4), 150, 1e-10))
    # the constructor and validate both read a Fortran-ordered array in C order
    p = np.asfortranarray(rand_tensor(rng, 3).p)
    cases.append((QsoTensor(3, p), rand_simplex(rng, 3), 150, 1e-10))
    cases.append((validate(p), rand_simplex(rng, 3), 150, 1e-10))
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

    def test_cases_cover_both_sides_of_the_float_rule(self):
        sides = {(V.m, int(np.count_nonzero(V.p)), dynamics._orbit_step(V.p)[0] == "float")
                 for V, *_ in reference_cases()}
        assert {(6, 41, True), (7, 54, True), (8, 69, False),
                (6, 216, False), (7, 343, False),
                (4, 56, True), (4, 57, False), (3, 27, True)} <= sides

    def test_fortran_ordered_input_steps_on_floats(self):
        rng = np.random.default_rng(24)
        V = rand_tensor(rng, 3)
        x0 = rand_simplex(rng, 3)
        want = iterate(V, x0, max_iter=150)
        for W in (validate(np.asfortranarray(V.p)),
                  FiniteKernel(3, np.asfortranarray(V.p)).to_tensor()):
            assert W.p.flags.c_contiguous and dynamics._orbit_step(W.p)[0] == "float"
            got = iterate(W, x0, max_iter=150)
            for other in (want, reference_iterate(W, x0, 150, dynamics.DEFAULT_TOL)):
                assert (got.status, got.cycle_length, got.iterations) == (
                    other.status, other.cycle_length, other.iterations)
                assert [p.coords.tobytes() for p in got.points] == [
                    p.coords.tobytes() for p in other.points]

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


def dominant_species(m: int, c: float = 0.02) -> QsoTensor:
    """Volterra operator in which species 1 beats every other species by c.

    From a start with x_1 > 1/2 every coordinate moves monotonically and the
    step gaps max|x_t - x_{t-1}| fall strictly, so any step can be made the
    stop step by choosing tol.
    """
    a = np.zeros((m, m))
    a[0, 1:], a[1:, 0] = c, -c
    return from_canonical(SkewMatrix(m, a))


def dominant_start(m: int) -> SimplexPoint:
    x = np.full(m, 0.4 / (m - 1))
    x[0] = 0.6
    return SimplexPoint(x)


def stop_tolerances(V, x0, window: int, horizon: int) -> dict:
    """{t: tol} for the steps t at which ``iterate(..., tol)`` stops.

    D_t, the smallest max-norm distance from x_t to the points within the
    lag window, stops the orbit at t with tol = D_t when it is below every
    earlier D_s.
    """
    pts = np.array([pt.coords for pt in reference_iterate(V, x0, horizon, 0.0, window=0).points])
    tols, best = {}, np.inf
    for t in range(1, len(pts)):
        back = pts[t - max(1, min(window, t)):t]
        d = np.abs(back - pts[t]).max(axis=1).min()
        if 0 < d < best:
            tols[t] = d
        best = min(best, d)
    return tols


def assert_same_run(V, x0, budget, tol, window):
    """iterate and reference_iterate agree bit for bit; the trajectory."""
    got = iterate(V, x0, max_iter=budget, tol=tol, window=window)
    assert_same_trajectory(got, reference_iterate(V, x0, budget, tol, window=window))
    return got


def assert_same_trajectory(got, want):
    assert (got.status, got.cycle_length, got.iterations) == (
        want.status, want.cycle_length, want.iterations)
    assert len(got.points) == len(want.points)
    for p, q in zip(got.points, want.points):
        assert p.coords.tobytes() == q.coords.tobytes()


# chunks of 4, 8, 16, 32, 64, 64, ... steps end at these steps
CHUNK_EDGES = (4, 12, 28, 60, 124, 188)
STOP_STEPS = sorted({1, 2} | {e + d for e in CHUNK_EDGES for d in (-1, 0, 1)})


class TestChunkedScan:
    """Stops on, next to and between chunk edges match the per-lag loop."""

    @pytest.mark.parametrize("window", [0, 1, 2, 3, 63, 64, 65, 200])
    def test_stops_at_chunk_edges(self, window):
        tols = {}
        for i, t in enumerate(STOP_STEPS):
            m = 2 + i % 9
            V, x0 = dominant_species(m), dominant_start(m)
            if m not in tols:
                tols[m] = stop_tolerances(V, x0, window, STOP_STEPS[-1])
            assert t in tols[m]
            traj = assert_same_run(V, x0, t + i % 5, tols[m][t], window)
            assert (traj.status, traj.iterations) == ("converged", t)

    @pytest.mark.parametrize("window", [0, 1, 2, 3, 63, 64, 65, 200])
    def test_budgets_off_the_chunk_grid(self, window):
        for i, budget in enumerate((1, 2, 3, 5, 11, 13, 29, 61, 126, 190)):
            m = 2 + i % 9
            traj = assert_same_run(dominant_species(m), dominant_start(m), budget, 1e-300, window)
            assert (traj.status, traj.iterations) == ("budget_exhausted", budget)

    def test_cycle_stops(self):
        rng = np.random.default_rng(87)
        statuses = set()
        for family in (1, 4):
            for _ in range(2):
                V = op_family(OpFamilySpec(family, *rng.random(3)))
                x0 = rand_simplex(rng, 3)
                for window in (2, 65):
                    for t, tol in stop_tolerances(V, x0, window, 130).items():
                        if t in STOP_STEPS:
                            statuses.add(assert_same_run(V, x0, 130, tol, window).status)
        assert "cycle" in statuses

    def test_small_chunks_match(self, monkeypatch):
        # a window too wide for a 64-step chunk shrinks the chunk: to one
        # step, or to 448 // (64 m) steps (at least one) for window 64
        for V, x0, budget, tol in reference_cases():
            for window in (1, 64):
                want = reference_iterate(V, x0, budget, tol, window=window)
                for elements in (1, 448):
                    monkeypatch.setattr(dynamics, "_SCAN_ELEMENTS", elements)
                    assert_same_trajectory(iterate(V, x0, budget, tol, window=window), want)

    def test_tiny_negative_coefficients_are_clamped_by_validate(self):
        # the constructor refuses them; validate clamps them to exact zeros,
        # so the dead coordinates of a Volterra orbit stay exactly zero
        rng = np.random.default_rng(88)
        for m in range(2, 11):
            p = from_canonical(rand_skew(rng, m)).p.copy()
            p[p == 0.0] = -1e-10
            with pytest.raises(NegativeCoefficient):
                QsoTensor(m, p)
            V = validate(p)
            assert V.p.min() == 0.0
            x0 = rand_simplex(rng, m, n_zeros=m // 2)
            traj = assert_same_run(V, x0, 150, 1e-10, 64)
            assert all(pt.coords.min() >= 0.0 for pt in traj.points)
            dead = x0.coords == 0.0
            assert all((pt.coords[dead] == 0.0).all() for pt in traj.points)

    def test_operators_that_leave_the_simplex_are_refused(self):
        # a slice that sums past one would take an orbit off the simplex; the
        # constructor refuses the array, naming the slice
        rng = np.random.default_rng(89)
        for m in range(2, 11):
            p = rand_tensor(rng, m).p.copy()
            i, j = sorted(rng.choice(m, 2, replace=False))
            p[i, j, 0] += 1e-3  # one off-diagonal slice sums past one
            p[j, i, 0] = p[i, j, 0]
            with pytest.raises(NotStochastic, match=rf"^slice \({i + 1}, {j + 1}\) sums to "):
                QsoTensor(m, p)
        # e1 -> e2 -> (e1 + e2)/2, whose image would sum to 1 + 5e-4
        q = np.zeros((3, 3, 3))
        q[0, 0] = [0.0, 1.0, 0.0]
        q[1, 1] = [0.5, 0.5, 0.0]
        q[0, 1] = q[1, 0] = [0.5 + 1e-3, 0.5, 0.0]
        q[2, :] = q[:, 2] = [0.0, 0.0, 1.0]
        for p, message in ((q, "slice (1, 2) sums to 1.001; off by 1.000e-03"),
                           (leaving_array(), "slice (3, 3) sums to 1.5; off by 5.000e-01")):
            with pytest.raises(NotStochastic, match=f"^{re.escape(message)}$"):
                QsoTensor(3, p)

    def test_work_is_bounded_by_twice_the_stop_step(self, monkeypatch):
        # images counts the images of each image routine: m = 3 steps on the
        # compiled float runner (one call per chunk, so its rows are
        # counted), the m = 8 Volterra operator over its nonzeros, and a
        # dense blend of it on the einsum (one call per step)
        images = []

        def counted_image(*args, image=dynamics._image, **kwargs):
            images.append("_image")
            return image(*args, **kwargs)

        def counted_maker(*key, maker=dynamics._step_maker):
            def make(*coeffs):
                run = maker(*key)(*coeffs)

                def counted(x, n):
                    rows = run(x, n)
                    images.extend(["float step"] * len(rows))
                    return rows

                return counted

            return make

        def counted_sparse(p, sparse=dynamics._sparse_step):
            step = sparse(p)

            def counted(x):
                images.append("sparse step")
                return step(x)

            return counted

        monkeypatch.setattr(dynamics, "_image", counted_image)
        monkeypatch.setattr(dynamics, "_step_maker", counted_maker)
        monkeypatch.setattr(dynamics, "_sparse_step", counted_sparse)
        dense = QsoTensor(8, 0.99 * dominant_species(8).p + 0.01 / 8)
        for V, name in ((dominant_species(3), "float step"), (dominant_species(8), "sparse step"),
                        (dense, "_image")):
            x0 = dominant_start(V.m)
            for t, tol in stop_tolerances(V, x0, 64, 200).items():
                images.clear()
                assert iterate(V, x0, max_iter=10_000, tol=tol).iterations == t
                assert len(images) <= 2 * t + 8
                assert set(images) == {name}
            for budget in (1, 5, 13, 100):
                images.clear()
                iterate(V, x0, max_iter=budget, tol=1e-300)
                assert images == [name] * budget


class TestTableBound:
    """One chunk's (step, lag) table over all m coordinates stays near 2^16 entries."""

    def test_long_window_at_large_m_stays_small(self):
        # the buffer, its sorted copy and a one-step table hold m x window
        # doubles each; chunks bounded by steps and lags alone held 4-6 steps
        rng = np.random.default_rng(25)
        m, window = 100, 10_000
        V = validate(rng.random((m, m, m)), "normalize")
        x0 = rand_simplex(rng, m)
        tracemalloc.start()
        try:
            traj = iterate(V, x0, max_iter=window, window=window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.status == "converged"
        assert peak < 4 * m * window * 8

    @pytest.mark.parametrize("m, window", [(17, 64), (20, 64), (30, 64), (10, 200), (40, 500)])
    def test_shortened_chunks_match_reference(self, m, window):
        assert dynamics._SCAN_ELEMENTS // (m * window) < dynamics._CHUNK_MAX
        rng = np.random.default_rng(m * window)
        statuses = set()
        for V, x0, tol in ((rand_tensor(rng, m), rand_simplex(rng, m), 1e-10),
                           (from_canonical(rand_skew(rng, m)), rand_simplex(rng, m), 1e-10),
                           (shift_operator(m), rand_simplex(rng, m), 1e-9)):
            got = iterate(V, x0, max_iter=150, tol=tol, window=window)
            assert_same_trajectory(got, reference_iterate(V, x0, 150, tol, window=window))
            statuses.add(got.status)
        assert statuses == {"converged", "cycle", "budget_exhausted"}


def shift_operator(L: int) -> QsoTensor:
    """The linear operator x'_k = x_{k-1} (indices mod L): every orbit has period L.

    p[i, j, k] is 1/2 for k = i + 1 and 1/2 for k = j + 1, so x'_k is
    x_{k-1} times the coordinate sum: exact at a vertex, within rounding
    elsewhere, so x_t and x_{t-L} match within any tol above it.
    """
    p = np.zeros((L, L, L))
    for i in range(L):
        p[i, :, (i + 1) % L] += 0.5
        p[:, i, (i + 1) % L] += 0.5
    return QsoTensor(L, p)


class TestSortedGapReject:
    """The scan skips a chunk's table only when no pair can match."""

    @pytest.mark.parametrize("L", [2, 3, 5, 8, 9])
    def test_close_pairs_beyond_the_window_are_no_stop(self, L):
        # every coordinate repeats at lag L, so every sorted coordinate has a
        # close pair and the table runs; with window L - 1 it finds nothing
        rng = np.random.default_rng(95)
        V = shift_operator(L)
        for x0 in (SimplexPoint.vertex(L, 1), rand_simplex(rng, L), rand_simplex(rng, L)):
            traj = assert_same_run(V, x0, 150, 1e-10, L - 1)
            assert (traj.status, traj.iterations) == ("budget_exhausted", 150)
            assert assert_same_run(V, x0, 150, 1e-10, L).status_label == f"cycle({L})"

    @pytest.mark.parametrize("L", [2, 3, 5, 8, 9])
    def test_a_match_at_lag_window_stops(self, L):
        rng = np.random.default_rng(96)
        V = shift_operator(L)
        for x0 in (SimplexPoint.vertex(L, 2), rand_simplex(rng, L)):
            for window in (L, L + 1, 64):
                traj = assert_same_run(V, x0, 150, 1e-10, window)
                assert (traj.status, traj.cycle_length, traj.iterations) == ("cycle", L, L)

    @pytest.mark.parametrize("window", [2, 3, 4, 64, 200])
    def test_stops_in_the_nan_padded_first_chunks(self, window):
        # until step window - 1 some columns before x0 are NaN
        for m in (3, 8):
            V, x0 = dominant_species(m), dominant_start(m)
            tols = stop_tolerances(V, x0, window, 8)
            for t in (1, 2, 3, 4):
                traj = assert_same_run(V, x0, 100, tols[t], window)
                assert (traj.status, traj.iterations) == ("converged", t)
        rng = np.random.default_rng(97)
        for L in range(2, min(window, 4) + 1):
            traj = assert_same_run(shift_operator(L), rand_simplex(rng, L), 100, 1e-10, window)
            assert (traj.status, traj.cycle_length, traj.iterations) == ("cycle", L, L)

    @pytest.mark.parametrize("window", [-3, 0, 1])
    def test_window_at_most_one_finds_only_convergence(self, window):
        rng = np.random.default_rng(98)
        for L in (2, 3, 5):
            traj = assert_same_run(shift_operator(L), rand_simplex(rng, L), 70, 1e-10, window)
            assert (traj.status, traj.iterations) == ("budget_exhausted", 70)
        for m in (3, 8):
            V, x0 = dominant_species(m), dominant_start(m)
            for t, tol in stop_tolerances(V, x0, 1, 70).items():
                traj = assert_same_run(V, x0, 100, tol, window)
                assert (traj.status, traj.iterations) == ("converged", t)


def reference_stop(traj):
    """(step, lag) of a reference trajectory's stop, or None if it ran out its budget."""
    if traj.status == "budget_exhausted":
        return None
    return traj.iterations, traj.cycle_length or 1


def scan_in_chunks(x0: SimplexPoint, rows: np.ndarray, window: int, tol: float, rng):
    """(step, lag) of the first stop ``_StopScan`` finds in ``rows`` fed in random chunks.

    Also returns the coordinate tried first after each chunk that has no stop.
    """
    size, cap = max(window, 1), int(rng.integers(1, 65))
    scan = dynamics._StopScan(x0.coords, size, tol, cap)
    t, fronts = 0, []
    while t < len(rows):
        n = int(rng.integers(1, cap + 1))
        stop = scan.feed(rows[t:t + n])
        if stop is not None:
            r, lag = stop
            return (t + r + 1, lag), fronts
        fronts.append(scan._order[0])
        t += n
    return None, fronts


class TestStopScan:
    """Fed an orbit's rows in any chunks, the scan returns the per-lag loop's first stop."""

    @pytest.mark.parametrize("window", [0, 1, 3, 64])
    def test_random_chunkings_match_reference(self, window):
        rng = np.random.default_rng(26)
        stops = set()
        for V, x0, budget, tol in reference_cases():
            want = reference_iterate(V, x0, budget, tol, window=window)
            for _ in range(3):
                got, _ = scan_in_chunks(x0, want.coords[1:], window, tol, rng)
                assert got == reference_stop(want)
            stops.add(want.status)
        assert len(stops) == 3 - (window < 2)

    def test_the_separating_coordinate_changes_mid_orbit(self):
        # a slow m = 10 Volterra orbit passes near different vertices, so the
        # coordinate that rules the chunk out changes as it goes
        rng = np.random.default_rng(27)
        moved = 0
        for _ in range(4):
            V = from_canonical(rand_skew(rng, 10))
            x0 = rand_simplex(rng, 10)
            want = reference_iterate(V, x0, 400, 1e-10)
            got, fronts = scan_in_chunks(x0, want.coords[1:], 64, 1e-10, rng)
            assert got == reference_stop(want)
            moved += sum(a != b for a, b in zip(fronts, fronts[1:]))
        assert moved >= 4

    @pytest.mark.parametrize("window", [2, 3, 64])
    def test_stops_among_the_nan_columns(self, window):
        # until the window fills, the scan's first columns stand for steps
        # before x0; stops at steps 1 to 4 and cycles of length 2 to 4
        rng = np.random.default_rng(28)
        for m in (3, 8):
            V, x0 = dominant_species(m), dominant_start(m)
            tols = stop_tolerances(V, x0, window, 8)
            for t in (1, 2, 3, 4):
                want = reference_iterate(V, x0, 100, tols[t], window=window)
                assert reference_stop(want) == (t, 1)
                for _ in range(4):
                    assert scan_in_chunks(x0, want.coords[1:], window, tols[t], rng)[0] == (t, 1)
        for L in range(2, min(window, 4) + 1):
            x0 = rand_simplex(rng, L)
            want = reference_iterate(shift_operator(L), x0, 100, 1e-10, window=window)
            assert reference_stop(want) == (L, L)
            for _ in range(4):
                assert scan_in_chunks(x0, want.coords[1:], window, 1e-10, rng)[0] == (L, L)


def float_constants(code) -> set:
    """Every float constant of a code object and of the code objects inside it."""
    found = set()
    for c in code.co_consts:
        if isinstance(c, float):
            found.add(c)
        elif hasattr(c, "co_consts"):
            found |= float_constants(c)
    return found


def edge_leak(amount: float) -> QsoTensor:
    """The heteroclinic operator with ``amount`` of slice (1, 2) moved from output 1 to 3."""
    p = HETEROCLINIC.p.copy()
    for i, j in ((0, 1), (1, 0)):
        p[i, j, 2] = amount
        p[i, j, 0] -= amount
    return QsoTensor(3, p)


class TestCompiledStep:
    """The float step is compiled per coefficient pattern and holds no coefficient values."""

    def test_operators_sharing_a_pattern_get_their_own_values(self):
        rng = np.random.default_rng(90)
        pairs = [
            (op_family(OpFamilySpec(1, 0.2, 0.7, 0.4)), op_family(OpFamilySpec(1, 0.9, 0.1, 0.6))),
            (HETEROCLINIC, from_canonical(SkewMatrix(3, 0.15 * RPS_SKEW))),
            (edge_leak(1e-10), edge_leak(0.25)),
        ]
        dynamics._step_maker.cache_clear()
        for a, b in pairs:
            assert np.array_equal(np.flatnonzero(a.p), np.flatnonzero(b.p))
            assert not np.array_equal(a.p, b.p)
        starts = [rand_simplex(rng, 3) for _ in range(2)] + [SimplexPoint([0.5, 0.5, 0.0])]
        for _ in range(2):
            for (a, b), x0 in zip(pairs, starts):
                for V in (a, b):
                    assert dynamics._orbit_step(V.p)[0] == "float"
                    want = reference_iterate(V, x0, 150, 1e-10)
                    assert_same_trajectory(iterate(V, x0, max_iter=150), want)
        info = dynamics._step_maker.cache_info()
        # one compile per pattern: family 1, heteroclinic, edge leak
        assert info.misses == 3 and info.hits > 0
        assert info.maxsize == dynamics._STEP_CACHE_SIZE > 0

    @pytest.mark.parametrize("m, compiled", [(7, True), (8, False)])
    def test_one_nonzero_per_slice_compiles_up_to_m_7(self, m, compiled):
        # the fewest nonzeros an m-species tensor can have: m^2, which is 64
        # at m = 8, past the term cap
        i, j = np.indices((m, m))
        p = np.zeros((m, m, m))
        p[i, j, np.maximum(i, j)] = 1.0
        V = QsoTensor(m, p)
        assert np.count_nonzero(V.p) == m * m
        assert (dynamics._orbit_step(V.p)[0] == "float") == compiled
        x0 = rand_simplex(np.random.default_rng(95), m)
        assert_same_trajectory(iterate(V, x0, max_iter=50), reference_iterate(V, x0, 50, 1e-10))

    def test_compiled_code_holds_no_coefficient(self):
        V = op_family(OpFamilySpec(2, 0.3, 0.6, 0.9))
        make = dynamics._step_maker(tuple(np.flatnonzero(V.p).tolist()), 3)
        assert float_constants(make.__code__) == {0.0}  # the zeroed sums, no tolerance


def op_tensor(rng, m: int) -> QsoTensor:
    """An OP operator: a random Volterra tensor with its outputs permuted by a random sigma."""
    return QsoTensor(m, rand_volterra_tensor(rng, m).p[:, :, rng.permutation(m)])


def symmetric_sparse_tensor(rng, m: int, density: float) -> QsoTensor:
    """A random operator with about ``density`` + 1/m of its coefficients nonzero."""
    keep = rng.random((m, m, m)) < 1.0 - np.sqrt(1.0 - density)
    keep |= keep.transpose(1, 0, 2)
    i, j = np.indices((m, m))
    keep[i, j, np.maximum(i, j)] = True  # no empty slice
    return validate(rng.random((m, m, m)) * keep, mode="normalize")


def last_species_never_made(m: int) -> QsoTensor:
    """A Volterra-like operator whose output m is always zero, so bincount's output is short."""
    p = np.zeros((m, m, m))
    for i in range(m):
        for j in range(m):
            ks = sorted({i, j} - {m - 1}) or [0]
            p[i, j, ks] = 1.0 / len(ks)
    return QsoTensor(m, p)


def sparse_cases():
    """(operator, starts): every operator here takes the sparse step."""
    rng = np.random.default_rng(97)
    operators = [from_canonical(rand_skew(rng, m)) for m in (8, 10, 16)]
    operators += [rand_volterra_tensor(rng, 31), op_tensor(rng, 10), op_tensor(rng, 20)]
    operators += [symmetric_sparse_tensor(rng, m, d)
                  for m, d in ((12, 0.02), (14, 0.08), (16, 0.15), (18, 0.18))]
    operators.append(last_species_never_made(9))
    cases = []
    for V in operators:
        m = V.m
        tiny = rand_simplex(rng, m).coords.copy()
        tiny[:4] = [5e-324, 1e-310, 2.5e-308, 1e-300]  # three subnormals
        starts = [rand_simplex(rng, m), rand_simplex(rng, m, n_zeros=m // 3),
                  SimplexPoint.vertex(m, m), SimplexPoint(tiny / tiny.sum())]
        cases.append((V, starts))
    return cases


class TestSparseStep:
    """Operators with at most m^3 / 4 nonzeros step over them alone, with the einsum's bits."""

    def test_matches_the_einsum_byte_for_byte(self):
        for V, starts in sparse_cases():
            step = dynamics._sparse_step(V.p)
            for x0 in starts:
                x = x0.coords
                for _ in range(60):
                    got, want = step(x), dynamics._image(V.p, x)
                    assert got.tobytes() == want.tobytes()
                    assert got is not x
                    x = want

    def test_iterate_matches_reference(self):
        statuses = set()
        for V, starts in sparse_cases():
            assert dynamics._orbit_step(V.p)[0] == "sparse"
            for x0 in starts:
                for window, tol in ((64, 1e-10), (2, 1e-3)):
                    statuses.add(assert_same_run(V, x0, 150, tol, window).status)
        assert statuses == {"converged", "cycle", "budget_exhausted"}

    def test_step_choice(self):
        rng = np.random.default_rng(98)

        def two_outputs(m, extra=0):
            # slice (i, j) split over outputs max(i, j) and max(i, j) + 1 mod m;
            # ``extra`` diagonal slices get a third output
            p = np.zeros((m, m, m))
            i, j = np.indices((m, m))
            top = np.maximum(i, j)
            p[i, j, top] = p[i, j, (top + 1) % m] = 0.5
            for d in range(extra):
                p[d, d, [d, (d + 1) % m, (d + 2) % m]] = [0.25, 0.25, 0.5]
            return QsoTensor(m, p)

        def float_at_56():
            p = np.zeros((7, 7, 7))
            i, j = np.indices((7, 7))
            p[i, j, np.maximum(i, j)] = 1.0
            for d in range(7):
                p[d, d, [d, (d + 1) % 7]] = 0.5
            return QsoTensor(7, p)

        cases = [
            (float_at_56(), 56, "float"),
            (from_canonical(rand_skew(rng, 8)), 120, "sparse"),
            (from_canonical(rand_skew(rng, 10)), 190, "sparse"),
            (rand_tensor(rng, 10), 1000, "einsum"),
            (two_outputs(8), 128, "sparse"),  # 4n = m^3
            (two_outputs(8, extra=1), 129, "einsum"),
        ]
        for V, n, kind in cases:
            assert np.count_nonzero(V.p) == n
            assert dynamics._orbit_step(V.p)[0] == kind
            x0 = rand_simplex(rng, V.m)
            assert_same_run(V, x0, 40, 1e-10, 64)


class TestPairwiseSum:
    """The sparse step's compiled sum is ``np.add.reduce``, bit for bit, at every length."""

    @staticmethod
    def vectors(rng, n: int):
        """Signed values of magnitude 5e-324 to 1, about a fifth of them exact zeros."""
        for _ in range(6):
            v = rng.uniform(0.5, 1.0, n) * 2.0 ** rng.integers(-1074, 1, n)
            v[rng.random(n) < 0.2] = 0.0
            yield v * rng.choice([-1.0, 1.0], n)
        yield np.abs(v)
        yield np.full(n, -0.0)

    def test_every_length_matches_numpy(self):
        rng = np.random.default_rng(29)
        for n in [*range(1, 301), 511, 1024, 4096, 9000]:
            total = dynamics._sum_maker(n)
            for v in self.vectors(rng, n):
                got, want = total(*v.tolist()), np.add.reduce(v)
                assert np.float64(got).tobytes() == want.tobytes(), (n, got, want)

    def test_compiled_code_holds_no_value(self):
        assert float_constants(dynamics._sum_maker(200).__code__) == {0.0}


def one_nonzero_per_slice(m: int) -> QsoTensor:
    """Slice (i, j) all on output max(i, j): m^2 nonzeros, 49 at m = 7."""
    i, j = np.indices((m, m))
    p = np.zeros((m, m, m))
    p[i, j, np.maximum(i, j)] = 1.0
    return QsoTensor(m, p)


def runner_starts(rng, m: int) -> list:
    """An interior, a face, a vertex and a subnormal start."""
    tiny = rand_simplex(rng, m).coords.copy()
    tiny[:2] = [5e-324, 1e-310]
    return [rand_simplex(rng, m), rand_simplex(rng, m, n_zeros=max(1, m // 3)),
            SimplexPoint.vertex(m, m), SimplexPoint(tiny / tiny.sum())]


class TestRunner:
    """``run(x, n)`` returns the next n images as rows, each ``_image`` of the one before."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(99)
        float_ops = [HETEROCLINIC, rand_tensor(rng, 3), rand_volterra_tensor(rng, 4),
                     one_nonzero_per_slice(7)]
        cases = [(V, "float", runner_starts(rng, V.m)) for V in float_ops]
        cases += [(V, "sparse", starts) for V, starts in sparse_cases()]
        cases += [(rand_tensor(rng, m), "einsum", runner_starts(rng, m)) for m in (8, 10)]
        return cases

    @pytest.mark.parametrize("n", [1, 2, 63, 64])
    def test_returns_n_images_as_rows(self, n):
        for V, kind, starts in self.cases():
            got_kind, run = dynamics._orbit_step(V.p)
            assert got_kind == kind
            for x0 in starts:
                rows = run(x0.coords, n)
                assert rows.shape == (n, V.m) and rows.dtype == float
                assert rows.flags.c_contiguous
                before = x0.coords
                for image in rows:
                    assert image.tobytes() == dynamics._image(V.p, before).tobytes()
                    before = image

    def test_runs_continue_where_they_stopped(self):
        # two chunks of 5 and 7, the second from the last row of the first,
        # are the images of one run of 12
        for V, _, starts in self.cases():
            _, run = dynamics._orbit_step(V.p)
            first = run(starts[0].coords, 5)
            parts = np.concatenate((first, run(first[-1], 7)))
            assert run(starts[0].coords, 12).tobytes() == parts.tobytes()


class TestPointsStayImmutable:
    @pytest.mark.parametrize(
        "V", [HETEROCLINIC,
              QsoTensor(10, 0.999 * from_canonical(rand_skew(np.random.default_rng(91), 10)).p
                        + 0.0001),
              from_canonical(rand_skew(np.random.default_rng(91), 10))],
        ids=["float step", "einsum", "sparse step"])
    def test_every_point_is_read_only(self, V):
        x0 = rand_simplex(np.random.default_rng(92), V.m)
        traj = iterate(V, x0, max_iter=100)
        assert traj.iterations == 100 and len(traj.points) == 101
        for pt in traj.points:
            assert not pt.coords.flags.writeable
            with pytest.raises(ValueError):
                pt.coords[0] = 0.5


def leaving_array() -> np.ndarray:
    """A Volterra array in which species 3 about doubles each step, with slice (3, 3) at 1.5.

    Its images would sum to 1 + x_3^2 / 2 and leave the simplex once x_3
    passed ~4.5e-5; no tensor holds it.
    """
    a = np.array([[0.0, 0.3, -1.0], [-0.3, 0.0, -1.0], [1.0, 1.0, 0.0]])
    p = from_canonical(SkewMatrix(3, a)).p.copy()
    p[2, 2] *= 1.5
    return p


class TestOrbitArray:
    """The orbit is one read-only array; ``points`` wraps its rows on access."""

    @pytest.mark.parametrize("V, x0, status", [
        (op_family(OpFamilySpec(2, 0.3, 0.6, 0.9)), SimplexPoint([0.5, 0.3, 0.2]), "converged"),
        (op_family(OpFamilySpec(1, 0.5, 0.5, 0.5)), SimplexPoint([0.7, 0.1, 0.2]), "cycle"),
        (HETEROCLINIC, SimplexPoint([0.5, 0.3, 0.2]), "budget_exhausted"),
        (from_canonical(rand_skew(np.random.default_rng(93), 10)),
         rand_simplex(np.random.default_rng(94), 10), "budget_exhausted"),
        (QsoTensor(10, 0.999 * from_canonical(rand_skew(np.random.default_rng(93), 10)).p
                   + 0.0001), rand_simplex(np.random.default_rng(94), 10), "budget_exhausted"),
    ], ids=["converged", "cycle", "budget", "einsum budget", "dense budget"])
    def test_points_view_matches_reference(self, V, x0, status):
        got = iterate(V, x0, max_iter=300)
        want = reference_iterate(V, x0, 300, dynamics.DEFAULT_TOL)
        assert got.status == status
        assert_same_trajectory(got, want)
        n = got.iterations + 1
        assert got.coords.shape == (n, V.m) and got.coords.dtype == float
        assert got.coords.tobytes() == want.coords.tobytes()
        pts = got.points
        assert len(pts) == n
        for k in (0, 1, n // 2, n - 1, -1, -n):
            pt = pts[k]
            assert type(pt) is SimplexPoint and pt.m == V.m
            assert pt.coords.tobytes() == want.points[k].coords.tobytes()
            assert np.shares_memory(pt.coords, got.coords)
        assert pts[0].coords.tobytes() == x0.coords.tobytes()
        for sl in (slice(1, None), slice(None, None, 3), slice(-5, None), slice(n, None)):
            assert [p.coords.tobytes() for p in pts[sl]] == [
                p.coords.tobytes() for p in list(want.points)[sl]]
        assert b"".join(p.coords.tobytes() for p in pts) == want.coords.tobytes()
        assert got.final.coords.tobytes() == got.coords[-1].tobytes() == pts[-1].coords.tobytes()
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                pts[bad]
        with pytest.raises(TypeError):
            pts[1.0]

    def test_writes_raise(self):
        traj = iterate(HETEROCLINIC, SimplexPoint([0.5, 0.3, 0.2]), max_iter=50)
        for target in (traj.coords, traj.points[7].coords, traj.points[-1].coords,
                       traj.final.coords, next(iter(traj.points[3:])).coords):
            assert not target.flags.writeable
            with pytest.raises(ValueError):
                target[0] = 0.5
        assert traj.coords[7].tobytes() == traj.points[7].coords.tobytes()

    def test_orbit_memory_is_its_array(self):
        # no per-point objects: a 10^4-step m = 3 orbit holds 240 kB of
        # coordinates, where 10^4 SimplexPoint objects took ~1.9 MB
        x0 = SimplexPoint([0.5, 0.3, 0.2])
        tracemalloc.start()
        try:
            traj = iterate(HETEROCLINIC, x0, max_iter=10_000, tol=1e-300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.iterations == 10_000
        assert peak < 3 * traj.coords.nbytes

    @pytest.mark.parametrize("m", [3, 10])
    def test_orbit_is_held_once(self, m):
        # the rows go into one growing buffer that becomes the orbit's array;
        # per-chunk arrays joined at the stop peaked at ~2.2x the array
        cyclic = np.roll(np.eye(m), 1, axis=1)
        V = from_canonical(SkewMatrix(m, 0.05 * (cyclic - cyclic.T)))
        x0 = SimplexPoint(np.arange(1.0, m + 1.0) / (m * (m + 1) / 2))
        tracemalloc.start()
        try:
            traj = iterate(V, x0, max_iter=20_000, tol=1e-300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.status == "budget_exhausted"
        assert peak < 1.5 * traj.coords.nbytes


class TestFixedVertices:
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_bad_tolerance_is_a_typed_error(self, tol):
        V = op_family(OpFamilySpec(1, 0.3, 0.6, 0.9))
        with pytest.raises(ParameterOutOfRange, match="tol must be positive"):
            fixed_points_on_vertices(V, tol=tol)

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

    def test_matches_reference(self):
        rng = np.random.default_rng(86)
        ops = [op_family(OpFamilySpec(family, *corner)) for family in range(1, 7)
               for corner in itertools.product((0.0, 0.5, 1.0), repeat=3)]
        for m in range(2, 14):
            ops += [rand_volterra_tensor(rng, m), rand_tensor(rng, m), vertex_slices_off_one(m)]
        ops += [with_negative_zeros(V) for V in ops]
        for V in ops:
            for tol in (1e-10, 1e-3, 0.5):
                assert fixed_points_on_vertices(V, tol) == reference_fixed_points(V, tol)

    def test_slices_off_one_are_divided_by_their_sums(self):
        # apply divides p[k, k, :] by its sum 1 + 4e-10, so every vertex is fixed exactly
        assert fixed_points_on_vertices(vertex_slices_off_one(5)) == frozenset(range(1, 6))

    def test_a_vertex_at_exactly_tol_is_fixed(self):
        # the distances are apply's bit for bit: a vertex at distance d is
        # fixed at tol = d and not one step of d below
        rng = np.random.default_rng(87)
        for m in (2, 3, 8, 13):
            for V in (rand_tensor(rng, m), near_vertex_fixer(m, 3e-11), near_vertex_fixer(m, 0.2)):
                for W in (V, with_negative_zeros(V)):
                    for k in range(1, m + 1):
                        e = SimplexPoint.vertex(m, k)
                        d = np.abs(apply(W, e).coords - e.coords).max()
                        assert d > 0
                        assert k in fixed_points_on_vertices(W, tol=d)
                        assert k not in fixed_points_on_vertices(W, tol=np.nextafter(d, 0.0))


def vertex_slices_off_one(m: int) -> QsoTensor:
    """The a = 0 Volterra operator with each p[k, k, k] at 1 + 4e-10, within ``EPS_VAL``."""
    p = from_canonical(SkewMatrix(m, np.zeros((m, m)))).p.copy()
    p[range(m), range(m), range(m)] += 4e-10
    return QsoTensor(m, p)


def near_vertex_fixer(m: int, leak: float) -> QsoTensor:
    """The a = 0 Volterra operator with ``leak`` of each slice (k, k) moved to output k + 1 (mod m)."""
    p = from_canonical(SkewMatrix(m, np.zeros((m, m)))).p.copy()
    k = np.arange(m)
    p[k, k, k] = 1.0 - leak
    p[k, k, (k + 1) % m] = leak
    return QsoTensor(m, p)


def with_negative_zeros(V: QsoTensor) -> QsoTensor:
    """The operator with every zero coefficient stored as -0.0."""
    p = V.p.copy()
    p[p == 0.0] = -0.0
    return QsoTensor(V.m, p)


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
