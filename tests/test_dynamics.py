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
from qso.errors import DimensionMismatch, InvalidPoint, ParameterOutOfRange


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


HETEROCLINIC = from_canonical(
    SkewMatrix(3, 0.05 * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]))
)


def sparse_operator(rng, m: int, support: int, outputs) -> QsoTensor:
    """An m-species operator, built by the public constructor, on its first coordinates.

    Each slice (i, j) with i, j < ``support`` splits its mass over
    ``outputs(i, j)`` random outputs below ``support``; every other slice is
    zero. An orbit from a start on those coordinates stays on them.
    """
    p = np.zeros((m, m, m))
    for i in range(support):
        for j in range(i, support):
            ks = rng.choice(support, outputs(i, j), replace=False)
            w = rng.exponential(size=ks.size)
            p[i, j, ks] = p[j, i, ks] = w / w.sum()
    return QsoTensor(m, p)


def start_on(rng, m: int, support: int) -> SimplexPoint:
    return SimplexPoint(np.r_[rand_simplex(rng, support).coords, np.zeros(m - support)])


def reference_cases():
    """(operator, start, budget, tol) covering convergence, cycles and budget runs.

    They cover both sides of the rule for ``iterate``'s float step (at most
    7 species and 32 nonzero coefficients, C order): see
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
    # 30 coefficients on 5 coordinates: float steps at m = 6 and 7, einsum at m = 8,
    # where numpy sums the 8 image coordinates pairwise
    for m in (6, 7, 8):
        V = sparse_operator(rng, m, 5, lambda i, j: 2 if i == j else 1)
        cases.append((V, start_on(rng, m, 5), 150, 1e-10))
        cases.append((rand_tensor(rng, m), rand_simplex(rng, m), 150, 1e-10))
    # 32 coefficients step on floats, 33 on the einsum
    for extra in (0, 1):
        V = sparse_operator(rng, 4, 4, lambda i, j: 2 + extra * (i == j == 0))
        cases.append((V, rand_simplex(rng, 4), 150, 1e-10))
    # the constructor copies a Fortran-ordered array to C order; validate keeps
    # a layout that is not C-contiguous, which takes the einsum
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
        sides = {(V.m, int(np.count_nonzero(V.p)), V.p.flags.c_contiguous,
                  dynamics._float_terms(V.p) is not None) for V, *_ in reference_cases()}
        assert {(6, 30, True, True), (7, 30, True, True), (8, 30, True, False),
                (6, 216, True, False), (7, 343, True, False),
                (4, 32, True, True), (4, 33, True, False),
                (3, 27, True, True), (3, 27, False, False)} <= sides

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
    """iterate and reference_iterate agree bit for bit, or raise the same error."""
    try:
        want = reference_iterate(V, x0, budget, tol, window=window)
    except InvalidPoint as exc:
        with pytest.raises(InvalidPoint) as got:
            iterate(V, x0, max_iter=budget, tol=tol, window=window)
        assert str(got.value) == str(exc)
        return None
    got = iterate(V, x0, max_iter=budget, tol=tol, window=window)
    assert_same_trajectory(got, want)
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
        # step, or to 7 steps for window 64
        for V, x0, budget, tol in reference_cases():
            for window in (1, 64):
                want = reference_iterate(V, x0, budget, tol, window=window)
                for elements in (1, 448):
                    monkeypatch.setattr(dynamics, "_SCAN_ELEMENTS", elements)
                    assert_same_trajectory(iterate(V, x0, budget, tol, window=window), want)

    def test_tiny_negative_coefficients_take_the_clamp_path(self):
        rng = np.random.default_rng(88)
        for m in range(2, 11):
            p = from_canonical(rand_skew(rng, m)).p.copy()
            p[p == 0.0] = -1e-10
            V = QsoTensor(m, p)
            x0 = rand_simplex(rng, m, n_zeros=m // 2)
            traj = assert_same_run(V, x0, 150, 1e-10, 64)
            # without the clamp the dead coordinates would turn negative
            assert all(pt.coords.min() >= 0.0 for pt in traj.points)
            dead = x0.coords == 0.0
            assert all((pt.coords[dead] == 0.0).all() for pt in traj.points)

    def test_leaving_the_simplex_raises_at_the_same_step(self):
        rng = np.random.default_rng(89)
        raised = 0
        for m in range(2, 11):
            p = rand_tensor(rng, m).p.copy()
            i, j = rng.choice(m, 2, replace=False)
            p[i, j, 0] += 1e-3  # one off-diagonal slice sums past one
            p[j, i, 0] = p[i, j, 0]
            x0 = SimplexPoint.vertex(m, int(i) + 1)
            for budget in (1, 3, 6, 40):
                raised += assert_same_run(QsoTensor(m, p), x0, budget, 1e-10, 64) is None
        assert raised

    @staticmethod
    def _stop_then_leave() -> tuple[QsoTensor, SimplexPoint]:
        """e1 -> e2 -> (e1 + e2)/2, whose image sums to 1 + 5e-4 at step 3."""
        p = np.zeros((3, 3, 3))
        p[0, 0] = [0.0, 1.0, 0.0]
        p[1, 1] = [0.5, 0.5, 0.0]
        p[0, 1] = p[1, 0] = [0.5 + 1e-3, 0.5, 0.0]
        p[2, :] = p[:, 2] = [0.0, 0.0, 1.0]
        return QsoTensor(3, p), SimplexPoint.vertex(3, 1)

    def test_stop_before_a_failing_step_in_the_same_chunk_wins(self):
        V, x0 = self._stop_then_leave()
        traj = assert_same_run(V, x0, 10, 0.9, 64)
        assert (traj.status, traj.iterations, len(traj.points)) == ("converged", 2, 3)
        assert assert_same_run(V, x0, 10, 0.1, 64) is None  # no stop first: it raises
        with pytest.raises(InvalidPoint, match="sums to"):
            iterate(V, x0, max_iter=10, tol=0.1)

    def test_work_is_bounded_by_twice_the_stop_step(self, monkeypatch):
        # images counts the calls of either image routine by name: m = 3
        # steps on floats, m = 8 on the einsum
        images = []
        for name in ("_image", "_float_image"):
            def counted(*args, step=getattr(dynamics, name), name=name):
                images.append(name)
                return step(*args)

            monkeypatch.setattr(dynamics, name, counted)
        for m, name in ((3, "_float_image"), (8, "_image")):
            V, x0 = dominant_species(m), dominant_start(m)
            for t, tol in stop_tolerances(V, x0, 64, 200).items():
                images.clear()
                assert iterate(V, x0, max_iter=10_000, tol=tol).iterations == t
                assert len(images) <= 2 * t + 8
                assert set(images) == {name}
            for budget in (1, 5, 13, 100):
                images.clear()
                iterate(V, x0, max_iter=budget, tol=1e-300)
                assert images == [name] * budget


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
