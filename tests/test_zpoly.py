import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import exact_model, protocol_data, residual_scale
import zerosheet.zpoly
from zerosheet import (
    Image,
    RootFindingError,
    UniPoly,
    ZeroPolynomialError,
    convolve,
    deflate_roots,
    elementary_symmetric_coeffs,
    find_roots,
    matrix_from_image,
    slice_in_v,
    slice_roots,
    synth_blur,
    synth_image,
    unit_point,
    ztransform,
)
from zerosheet.zpoly import (
    _NEWTON_MAX_ITER,
    CLUSTER_TOL,
    ROOT_TOL,
    BivariatePoly,
    _coeff_rows,
    _evaluate,
    _min_separation,
    _polish,
    _polygon_guesses,
    _repulsion,
)

ONES2 = Image([[1.0, 1.0], [1.0, 1.0]])
EPS = np.finfo(float).eps


def bivariate_eval(P: BivariatePoly, u: complex, v: complex) -> complex:
    """Nested Horner evaluation of P at (u, v), outer in u, inner in v."""
    # rows of coeffs[:, ::-1].T run from the highest power of v down
    per_x = np.polyval(P.coeffs[:, ::-1].T, v)
    return complex(np.polyval(per_x[::-1], u))


def separated_roots(seed: int, count: int, min_sep: float = 0.2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    while True:
        roots = rng.uniform(-1.5, 1.5, count) + 1j * rng.uniform(-1.5, 1.5, count)
        if count == 1:
            return roots
        d = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > min_sep:
            return roots


class TestZtransform:
    def test_single_pixel_constant(self):
        P = ztransform(Image([[1.0, 0.0], [0.0, 0.0]]))
        for u, v in [(0j, 0j), (1 + 1j, -2j), (0.5, 3.0)]:
            assert bivariate_eval(P, u, v) == pytest.approx(0.25)

    def test_ones_factorization(self):
        P = ztransform(ONES2)
        assert bivariate_eval(P, 1.0, 1.0) == pytest.approx(1.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = complex(*rng.uniform(-1, 1, 2))
            v = complex(*rng.uniform(-1, 1, 2))
            assert bivariate_eval(P, u, v) == pytest.approx((1 + u) * (1 + v) / 4)

    def test_degrees_and_prefactor(self):
        img = synth_image(6, 4, 3)
        P = ztransform(img)
        assert P.coeffs.shape == (6, 4)
        assert P.coeffs[2, 1] == img.pixels[1, 2] / 24

    def test_convolution_multiplies_transforms(self):
        # evaluation oracle: transforms of the factors, times the ratio of
        # the per-image 1/(width*height) prefactors
        f, h, g = exact_model(seed=5, fw=7, fh=6, m=3, n=2)
        Pf, Ph, Pg = ztransform(f), ztransform(h), ztransform(g)
        const = (f.width * f.height) * (h.width * h.height) / (g.width * g.height)
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = complex(*rng.uniform(-0.9, 0.9, 2))
            v = complex(*rng.uniform(-0.9, 0.9, 2))
            lhs = bivariate_eval(Pg, u, v)
            rhs = bivariate_eval(Pf, u, v) * bivariate_eval(Ph, u, v) * const
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-3)


class TestSliceInV:
    def test_at_one(self):
        p = slice_in_v(ztransform(ONES2), 1.0)
        assert p.effective_degree == 1
        assert np.allclose(p.coeffs, [0.5, 0.5])

    def test_degenerate_at_minus_one(self):
        with pytest.raises(ZeroPolynomialError):
            slice_in_v(ztransform(ONES2), -1.0)

    def test_degenerate_near_minus_one(self):
        # floating-point unit-circle point never hits -1 exactly; the factor
        # (1 + u) still collapses every coefficient relative to the grid
        with pytest.raises(ZeroPolynomialError):
            slice_in_v(ztransform(ONES2), unit_point(np.pi))

    def test_at_zero_keeps_first_row(self):
        img = synth_image(5, 4, 9)
        P = ztransform(img)
        p = slice_in_v(P, 0.0)
        assert np.allclose(p.coeffs, P.coeffs[0])

    def test_trailing_trim(self):
        # top v-row cancels at u = 1: coefficients (x + y-independent) trick
        coeffs = np.zeros((2, 3), complex)
        coeffs[:, 0] = [1.0, 2.0]
        coeffs[:, 1] = [3.0, 1.0]
        coeffs[:, 2] = [1.0, -1.0]  # (1 - 1) at u = 1
        p = slice_in_v(BivariatePoly(coeffs), 1.0)
        assert p.effective_degree == 1


class TestFindRoots:
    def test_quadratic_pm1(self):
        roots, _ = find_roots(UniPoly([-1.0, 0.0, 1.0]))
        assert np.allclose(roots, [-1.0, 1.0])

    def test_quadratic_two_three(self):
        roots, _ = find_roots(UniPoly([6.0, -5.0, 1.0]))
        assert np.allclose(roots, [2.0, 3.0])

    def test_requires_degree_one(self):
        with pytest.raises(ValueError):
            find_roots(UniPoly([3.0]))

    @pytest.mark.parametrize("coeffs", [[1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    def test_rejects_zero_leading_coefficient(self, coeffs, monkeypatch):
        # UniPoly does not trim; a zero a_d would divide by zero in the
        # Vieta check (a warning, hence an error here) after a full solve
        monkeypatch.setattr(zerosheet.zpoly, "_solve", lambda *a: pytest.fail("solved"))
        with pytest.raises(ValueError, match="non-zero leading coefficient"):
            find_roots(UniPoly(coeffs))

    def test_deterministic_order(self):
        p = UniPoly(elementary_symmetric_coeffs(separated_roots(3, 6)))
        r1, _ = find_roots(p)
        r2, _ = find_roots(p)
        assert np.array_equal(r1, r2)
        assert np.all(np.diff(r1.real) >= 0)

    def test_protocol_scale_slice(self):
        # degree-44 slice of the three-blur image: all roots polished below
        # the relative residual bound, checked by independent Horner evaluation
        _, _, observed = protocol_data()
        P = ztransform(observed)
        u = unit_point(0.3)
        p = slice_in_v(P, u)
        assert p.effective_degree == 44
        rs = slice_roots(P, u)
        assert rs.count == 44
        for root, res in zip(rs.roots, rs.residuals):
            # independent Horner evaluation as the residual oracle; both it
            # and the recorded residual must sit below the bound
            bound = ROOT_TOL * residual_scale(p.coeffs, root)
            assert abs(np.polyval(p.coeffs[::-1], root)) <= bound
            assert res <= ROOT_TOL

    def test_multiple_root_with_multiplicity(self):
        # (v - 1)^2 (v + 2) = v^3 - 3v + 2
        roots, _ = find_roots(UniPoly([2.0, -3.0, 0.0, 1.0]))
        assert len(roots) == 3
        assert sorted(np.round(roots.real, 4).tolist()) == [-2.0, 1.0, 1.0]

    def test_root_at_zero(self):
        # a_0 = 0 is a root at exactly z = 0, with relative residual 0
        roots, residuals = find_roots(UniPoly([0.0, -1.0, 1.0]))
        assert roots.tolist() == [0.0, 1.0] and residuals.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_low_order_coefficients(self, k, monkeypatch):
        # k zero low-order coefficients are a k-fold root at 0, returned
        # exactly with residual 0; the other roots solve by Aberth alone,
        # cold and from guesses whose k smallest in modulus are dropped
        others = separated_roots(6, 5)
        p = UniPoly(np.concatenate([np.zeros(k), elementary_symmetric_coeffs(others)]))
        guesses = np.concatenate([1e-3 * np.arange(1, k + 1), others * (1 + 1e-4)])
        cold_starts = []
        polygon = zerosheet.zpoly._polygon_guesses
        monkeypatch.setattr(zerosheet.zpoly, "_polygon_guesses",
                            lambda c: cold_starts.append(len(c)) or polygon(c))
        patch, eigen = count_eigen_solves()
        with patch:
            solved = [find_roots(p), find_roots(p, guesses=guesses)]
        assert eigen == [] and cold_starts == [6]
        for roots, residuals in solved:
            zero = roots == 0
            assert zero.sum() == k and np.all(residuals[zero] == 0)
            assert np.abs(np.sort_complex(roots[~zero]) - np.sort_complex(others)).max() <= 1e-12

    def test_all_roots_at_zero(self):
        roots, residuals = find_roots(UniPoly([0.0, 0.0, 0.0, 2.0]))
        assert roots.tolist() == [0.0] * 3 and residuals.tolist() == [0.0] * 3

    def test_cluster_flag(self):
        g = np.array([0.5, 0.5 + 1e-8, -1.0])
        rs_coeffs = elementary_symmetric_coeffs(g)
        img_like = BivariatePoly(rs_coeffs.reshape(1, -1))
        rs = slice_roots(img_like, 0.7)
        assert rs.clustered

    def test_roots_spread_over_a_wide_modulus_range(self):
        # 300 polynomials of degree 60-128 whose roots are log-uniform in
        # modulus from 0.01 to 50: every one solves within the bound
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = int(rng.integers(60, 129))
            modulus = np.exp(rng.uniform(np.log(0.01), np.log(50), d))
            roots = modulus * np.exp(2j * np.pi * rng.uniform(size=d))
            found, residuals = find_roots(UniPoly(elementary_symmetric_coeffs(roots)))
            assert len(found) == d and np.all(residuals <= ROOT_TOL)

    def test_degree_zero_slice_has_no_roots(self):
        # a one-row image has degree 0 in v at every u
        P = ztransform(Image([[1.0, 2.0, 3.0, 4.0]]))
        u = unit_point(0.3)
        rs = slice_roots(P, u)
        assert rs.count == 0 and not rs.clustered
        assert rs.roots.dtype == np.complex128 and rs.residuals.shape == (0,)
        assert rs.leading_coeff == slice_in_v(P, u).coeffs[0]


def count_eigen_solves():
    """Patch ``np.roots`` to record each call; returns the patch and the list."""
    calls = []
    real = np.roots

    def counting(c):
        calls.append(len(c))
        return real(c)

    return mock.patch.object(np, "roots", counting), calls


class TestWarmStart:
    @settings(max_examples=40, deadline=None)
    @given(degree=st.integers(1, 128), seed=st.integers(0, 2**32 - 1))
    def test_matches_cold_solve(self, degree, seed):
        # random complex coefficients keep the roots well conditioned at
        # every degree; guesses are the roots moved by 1e-10 to 1e-2 relative
        rng = np.random.default_rng(seed)
        p = UniPoly(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
        cold, _ = find_roots(p)
        assume(_min_separation(cold) > 1e-3)
        size = 10 ** rng.uniform(-10, -2, degree)
        guesses = cold * (1 + size * np.exp(2j * np.pi * rng.uniform(size=degree)))
        patch, eigen = count_eigen_solves()
        with patch:
            warm, _ = find_roots(p, guesses=rng.permutation(guesses))
        assert eigen == []
        assert np.all(np.abs(warm - cold) <= 1e-9 * np.abs(cold))

    @pytest.mark.parametrize("kind", ["short", "long", "all_equal", "nan", "duplicated_pair"])
    def test_bad_guesses_fall_back_to_the_cold_solve(self, kind):
        p = UniPoly(elementary_symmetric_coeffs(separated_roots(5, 8)))
        cold, _ = find_roots(p)
        guesses = {
            "short": cold[:-1],
            "long": np.append(cold, 0.5),
            "all_equal": np.full(8, cold[2]),
            "nan": np.where(np.arange(8) == 3, np.nan, cold),
            "duplicated_pair": np.append(cold[:-1], cold[0]),
        }[kind]
        patch, eigen = count_eigen_solves()
        with patch:
            warm, _ = find_roots(p, guesses=guesses)
        # the cold solve starts from the Newton-polygon guesses and needs no
        # eigenvalues; bad guesses lead to exactly that solve
        assert eigen == []
        assert np.array_equal(warm, cold)

    def test_double_root_clustered_cold_and_warm(self):
        # the halves of a double root may split by up to about sqrt(ROOT_TOL)
        # and still meet the bound, so the flag holds whichever start the
        # solve took, and Aberth's result stands without an eigenvalue solve:
        # (v - 0.5)^2 (v + 1), alone and with 20 random roots of modulus 1.5-3
        rng = np.random.default_rng(4)
        for extra in (0, 20):
            far = rng.uniform(1.5, 3.0, extra) * np.exp(2j * np.pi * rng.random(extra))
            g = np.concatenate([[0.5, 0.5, -1.0], far])
            P = BivariatePoly(elementary_symmetric_coeffs(g).reshape(1, -1))
            moved = g * (1 + 1e-3 * np.exp(2j * np.pi * np.arange(len(g)) / len(g)))
            patch, eigen = count_eigen_solves()
            with patch:
                solved = [slice_roots(P, 0.7), slice_roots(P, 0.7, guesses=moved)]
            assert eigen == []
            for rs in solved:
                assert rs.clustered
                assert np.abs(rs.roots[:, None] - g[None, :]).min(axis=0).max() <= CLUSTER_TOL


class TestRepulsion:
    def test_matches_the_double_loop(self):
        # S_k = sum_{j != k} 1 / (z_k - z_j) against the explicit double loop
        # (terms summed exactly by fsum), on 40 sets of 2-127 roots with
        # pairs 1e-6 and 1e-9 apart and a third of the roots scaled by 1e5,
        # for all roots and for a random subset; the error stays within
        # d eps max|z| sum_j 1 / |z_k - z_j|^2
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = int(rng.integers(2, 128))
            z = rng.normal(size=d) + 1j * rng.normal(size=d)
            if d >= 4:
                z[1] = z[0] + 1e-6 * np.exp(2j * np.pi * rng.random())
                z[3] = z[2] + 1e-9 * np.exp(2j * np.pi * rng.random())
            z[rng.permutation(d)[: d // 3]] *= 1e5
            subset = np.sort(rng.permutation(d)[: int(rng.integers(1, d + 1))])
            for active in (np.arange(d), subset):
                got = _repulsion(z, active)
                assert got.shape == (len(active),)
                for s, k in zip(got, active):
                    terms = [1 / (z[k] - z[j]) for j in range(d) if j != k]
                    loop = complex(math.fsum(t.real for t in terms),
                                   math.fsum(t.imag for t in terms))
                    weight = sum(1 / abs(z[k] - z[j]) ** 2 for j in range(d) if j != k)
                    assert abs(s - loop) <= d * EPS * np.abs(z).max() * weight

    def test_coinciding_estimates_are_not_finite(self):
        z = np.array([0.5 + 0.5j, 0.5 + 0.5j, -1.0])
        with np.errstate(all="ignore"):
            got = _repulsion(z, np.arange(3))
        assert not np.isfinite(got[:2]).any() and np.isfinite(got[2])


def horner_pair(coeffs, z):
    """Reference oracle: value and first derivative in one scalar Horner pass."""
    b = 0j
    db = 0j
    for a in coeffs[::-1]:
        db = db * z + b
        b = b * z + a
    return complex(b), complex(db)


def relative_step(coeffs, z):
    """Reference oracle: relative residual |p(z)| / sum_y |a_y| |z|^y and
    Newton step p(z) / p'(z) by scalar Horner, on the reversed polynomial
    r(w) = sum_y a_{d-y} w^y at w = 1/z outside the unit circle.  The step
    is None where its denominator vanishes."""
    if abs(z) <= 1:
        pv, dv = horner_pair(coeffs, z)
        return abs(pv) / residual_scale(coeffs, z), (pv / dv if dv else None)
    w, rev = 1 / z, coeffs[::-1]
    rv, drv = horner_pair(rev, w)
    denom = (len(coeffs) - 1) * rv - w * drv
    return abs(rv) / residual_scale(rev, w), (z * rv / denom if denom else None)


def newton_polish(coeffs, z, tol_rel):
    """Reference oracle: the scalar Newton polish of one root, root by root.
    Returns the best iterate, its relative residual and the number of steps
    taken."""
    best_z, best_res = z, float("inf")
    for steps in range(_NEWTON_MAX_ITER):
        res, step = relative_step(coeffs, z)
        if res < best_res:
            best_z, best_res = z, res
        if res <= tol_rel or step is None:
            return best_z, best_res, steps
        if not (np.isfinite(step.real) and np.isfinite(step.imag)):
            return best_z, best_res, steps
        z = z - step
    res = relative_step(coeffs, z)[0]
    if res < best_res:
        best_z, best_res = z, res
    return best_z, best_res, _NEWTON_MAX_ITER


@st.composite
def perturbed_polynomials(draw):
    """Ascending coefficients of a degree 1-64 polynomial whose roots lie
    around the unit circle, well separated, in close pairs, or in exact
    double pairs, plus start guesses perturbed from those roots by 1e-10 to
    1e-3 relative, so that Newton has to take steps."""
    kind = draw(st.sampled_from(["separated", "clustered", "double"]))
    degree = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = degree if kind == "separated" else (degree + 1) // 2
    phases = 2 * np.pi * (np.arange(count) + rng.uniform(-0.3, 0.3, count)) / count
    roots = rng.uniform(0.7, 1.3, count) * np.exp(1j * phases)
    if kind != "separated":
        gap = 0.0 if kind == "double" else 10 ** rng.uniform(-6, -2)
        partners = roots * (1 + gap * np.exp(2j * np.pi * rng.uniform(size=count)))
        roots = np.concatenate([roots, partners])[:degree]
    size = 10 ** rng.uniform(-10, -3, degree)
    guesses = roots * (1 + size * np.exp(2j * np.pi * rng.uniform(size=degree)))
    return elementary_symmetric_coeffs(roots), guesses


def dim_row_transform(dim):
    """Transform of synth_image(128, 128, 12) with its bottom row scaled by dim."""
    pixels = synth_image(128, 128, 12).pixels.copy()
    pixels[-1] *= dim
    return ztransform(Image(pixels))


class TestPolish:
    def test_matches_scalar_oracle(self):
        stepped = []

        @settings(max_examples=200, deadline=None)
        @given(perturbed_polynomials())
        def check(drawn):
            coeffs, guesses = drawn
            roots, residuals = _polish(_coeff_rows(coeffs), guesses, ROOT_TOL)
            degree = len(coeffs) - 1
            for z0, z, res in zip(guesses, roots, residuals):
                # a sum of degree + 1 products rounds by at most about
                # degree * eps of the scale, in the matrix products as in
                # Horner, so the two relative residuals at one point agree
                # to that
                assert abs(res - relative_step(coeffs, complex(z))[0]) <= 2 * degree * EPS
                ref_z, ref_res, steps = newton_polish(coeffs, complex(z0), ROOT_TOL)
                ref_scale = residual_scale(coeffs, ref_z)
                assert (res <= ROOT_TOL) == (ref_res <= ROOT_TOL)
                # numpy's vector complex arithmetic may round differently
                # from the scalar oracle (fused multiply-add); a Horner
                # rounding error of degree * eps * scale in p(z) moves a
                # Newton step by that over |p'(z)|, which is negligible for
                # simple roots but reaches ~6e-12 beside a close or double pair
                rounding = degree * EPS * ref_scale / abs(horner_pair(coeffs, ref_z)[1])
                assert abs(z - ref_z) <= 1e-12 * max(1.0, abs(ref_z)) + 4 * rounding
                stepped.append(steps > 0)

        check()
        assert any(stepped)

    def test_keeps_best_iterate_of_a_newton_cycle(self):
        # Newton on z^3 - 2z + 2 cycles 0 -> 1 -> 0 exactly; z = 1 has the
        # smaller relative residual (1/5 against 2/2), and the last iterate
        # (z = 0) must not win
        coeffs = np.array([2.0, -2.0, 0.0, 1.0], dtype=complex)
        roots, residuals = _polish(_coeff_rows(coeffs), np.array([0j]), ROOT_TOL)
        assert (roots[0], residuals[0]) == (1.0, 0.2)
        assert newton_polish(coeffs, 0j, ROOT_TOL) == (1.0, 0.2, _NEWTON_MAX_ITER)

    def test_reaches_roots_whose_powers_overflow(self):
        # a dim bottom row shrinks the leading slice coefficient, so the
        # largest roots have |z|^127 above the float range (1e308^(1/127)
        # ~ 266); the solver never forms such a power, and the roots are
        # still accurate
        for dim in (2.5e-3, 1e-6):
            P, u = dim_row_transform(dim), unit_point(0.3)
            rs = slice_roots(P, u)
            coeffs = slice_in_v(P, u).coeffs
            assert rs.count == 127
            assert np.abs(rs.roots).max() > 1e308 ** (1 / 127)
            assert np.all(rs.residuals <= ROOT_TOL)
            # independent check by the scalar oracle, which also evaluates
            # the reversed polynomial at 1/z outside the unit circle
            assert all(relative_step(coeffs, complex(z))[0] <= ROOT_TOL for z in rs.roots)

    def test_rejects_a_moved_root_of_any_modulus(self, monkeypatch):
        # the exact roots of the 2.5e-3 slice pass one evaluation, but any one
        # root outside the unit circle moved by 1e-6 relative must miss the
        # bound, the largest (|z| ~ 304, where sum_y |a_y| |z|^y overflows)
        # included; each root set is injected in place of the Aberth run,
        # with the residuals of its one evaluation
        P, u = dim_row_transform(2.5e-3), unit_point(0.3)
        p, roots = slice_in_v(P, u), slice_roots(P, u).roots

        def inject(z):
            return lambda basis, guesses, tol: (z, _evaluate(basis, z)[0])

        monkeypatch.setattr(zerosheet.zpoly, "_aberth", inject(roots))
        find_roots(p)
        outside = np.flatnonzero(np.abs(roots) > 1)
        assert np.abs(roots[outside]).max() > 300
        for k in outside:
            moved = roots.copy()
            moved[k] *= 1 + 1e-6
            monkeypatch.setattr(zerosheet.zpoly, "_aberth", inject(moved))
            with pytest.raises(RootFindingError):
                find_roots(p)

    def test_unmet_bound_raises(self, monkeypatch):
        monkeypatch.setattr(zerosheet.zpoly, "ROOT_TOL", 1e-30)
        with pytest.raises(RootFindingError, match="relative residual"):
            find_roots(UniPoly([-2.0, 0.0, 1.0]))


class TestSlopes:
    """``RootSlice.slopes`` is dv/du along each root's zero sheet."""

    @pytest.mark.parametrize("dim", [1.0, 2.5e-3, 1e-6])
    def test_match_central_differences(self, dim):
        # the slice roots at u e^(+-ih), solved warm from those at u, move
        # by the slope times the step in u; dim rows put roots far outside
        # the unit circle, where |z|^127 overflows
        P, u, h = dim_row_transform(dim), unit_point(0.3), 1e-6
        rs = slice_roots(P, u)
        ahead = slice_roots(P, u * cmath.rect(1.0, h), guesses=rs.roots)
        behind = slice_roots(P, u * cmath.rect(1.0, -h), guesses=rs.roots)

        def nearest(other):
            idx = np.argmin(np.abs(other.roots[None, :] - rs.roots[:, None]), axis=1)
            assert len(set(idx.tolist())) == rs.count
            return other.roots[idx]

        diff = (nearest(ahead) - nearest(behind)) / (ahead.u - behind.u)
        modulus = np.abs(rs.roots)
        assert (modulus < 1).any() and (modulus > 1).any()
        if dim < 1e-3:
            assert modulus.max() > 1e308 ** (1 / 127)
        assert np.all(np.abs(diff - rs.slopes) <= 1e-5 * np.abs(rs.slopes))

    def test_linear_sheet(self):
        # G = v - u^2 has the root v = u^2 with slope 2u at every u
        P = BivariatePoly(np.array([[0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]]))
        for u in (0.5, unit_point(0.3), 3.0 - 1j):
            rs = slice_roots(P, u)
            assert rs.u == u and rs.roots == pytest.approx([u * u])
            assert rs.slopes == pytest.approx([2 * u])

    def test_degree_zero_slice_has_no_slopes(self):
        rs = slice_roots(ztransform(Image([[1.0, 2.0, 3.0]])), unit_point(0.3))
        assert rs.slopes.shape == (0,)


class TestVietaGuard:
    """Small relative residuals do not make a root set; the root sum must
    match -a_{d-1} / a_d, whichever start the roots came from."""

    @staticmethod
    def pseudo_root_case(monkeypatch):
        # 126 roots of modulus e^(+-0.2) plus 0.5 and 0.6: from the
        # Newton-polygon start, Aberth without its Vieta check converges,
        # every residual within the bound, to roots out to |z| ~ 1.8 that
        # are not the polynomial's (their sum is off by 3.7%)
        rng = np.random.default_rng(3)
        roots = np.exp(rng.uniform(-0.2, 0.2, 126) + 2j * np.pi * rng.random(126))
        p = UniPoly(elementary_symmetric_coeffs(np.concatenate([roots, [0.5, 0.6]])))
        basis = _coeff_rows(p.coeffs)
        with monkeypatch.context() as patched:
            patched.setattr(zerosheet.zpoly, "_VIETA_TOL", np.inf)
            pseudo, _ = zerosheet.zpoly._aberth(basis, _polygon_guesses(p.coeffs), ROOT_TOL)
        assert np.abs(pseudo).max() > 1.7 > np.exp(0.2)
        residuals, _ = _evaluate(basis, pseudo)
        assert residuals.max() <= ROOT_TOL
        return p, pseudo

    def test_eigenvalue_path_rejects_a_pseudo_root_set(self, monkeypatch):
        # both Aberth starts fail their Vieta check, so the eigenvalues
        # serve; made to be the pseudo-roots, they pass the residual bound
        # but not the root sum
        p, pseudo = self.pseudo_root_case(monkeypatch)
        eigen = []
        monkeypatch.setattr(np, "roots", lambda c: eigen.append(len(c)) or pseudo.copy())
        with pytest.raises(RootFindingError, match="do not sum"):
            find_roots(p)
        assert eigen == [len(p.coeffs)]

    def test_eigenvalues_polished_into_one_root_are_separated(self, monkeypatch):
        # two eigenvalue estimates beside one root would polish into it and
        # lose its neighbour; the Aberth run from the eigenvalues repels them
        roots = separated_roots(5, 8)
        p = UniPoly(elementary_symmetric_coeffs(roots))
        eigen = roots.copy()
        eigen[1] = roots[0] + 1e-7
        monkeypatch.setattr(zerosheet.zpoly, "_polygon_guesses", lambda c: np.empty(0))
        monkeypatch.setattr(np, "roots", lambda c: eigen.copy())
        found, _ = find_roots(p)
        assert np.allclose(np.sort_complex(found), np.sort_complex(roots), rtol=0, atol=1e-12)


class TestDeflateRoots:
    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3), (3, 1)])
    def test_leaves_the_roots_of_the_other_factor(self, m, n):
        # the slice of f * h at u holds f's roots and h's n - 1; dividing h
        # out leaves f's, whichever order they come in
        f, h = synth_image(12, 12, 5), synth_blur(m, n, 77)
        u = unit_point(0.3)
        blurred = slice_roots(ztransform(convolve(f, h)), u).roots
        sharp = slice_roots(ztransform(f), u).roots
        left = deflate_roots(blurred[::-1], u, matrix_from_image(h))
        assert len(blurred) == len(sharp) + n - 1 and len(left) == len(sharp)
        assert np.abs(left[:, None] - sharp[None, :]).min(axis=0).max() <= 1e-9


class TestElementarySymmetric:
    def test_single_root(self):
        assert np.allclose(elementary_symmetric_coeffs([2.0]), [-2.0, 1.0])

    def test_two_roots(self):
        assert np.allclose(elementary_symmetric_coeffs([2.0, 3.0]), [6.0, -5.0, 1.0])

    def test_empty(self):
        assert np.allclose(elementary_symmetric_coeffs([]), [1.0])

    def test_leading_is_exactly_one(self):
        c = elementary_symmetric_coeffs(separated_roots(11, 7))
        assert c[-1] == 1.0 + 0j

    @given(st.integers(0, 10**6), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_product_evaluation(self, seed, count):
        # oracle: evaluate the monic product directly at probe points
        roots = separated_roots(seed, count, min_sep=0.0)
        c = elementary_symmetric_coeffs(roots)
        rng = np.random.default_rng(seed + 1)
        for _ in range(4):
            v = complex(*rng.uniform(-2, 2, 2))
            direct = np.prod([v - g for g in roots])
            horner = np.polyval(c[::-1], v)
            scale = max(abs(direct), abs(horner), 1.0)
            assert abs(direct - horner) <= 1e-12 * scale

    def test_matches_numpy_poly(self):
        roots = separated_roots(21, 6)
        ours = elementary_symmetric_coeffs(roots)
        ref = np.poly(roots)[::-1]  # ascending
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 10**6), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_vieta_closure(self, seed, count):
        roots = separated_roots(seed, count)
        c = elementary_symmetric_coeffs(roots)
        got, _ = find_roots(UniPoly(c))
        err = np.max(np.abs(np.sort_complex(got) - np.sort_complex(roots)))
        assert err <= 1e-8


class TestZeroSubset:
    def test_blur_roots_inside_image_roots(self):
        # roots of the blur slice must reappear among the observed image's
        # slice roots at any sample point
        f, h, g = exact_model(seed=17, fw=10, fh=9, m=2, n=3)
        Pg, Ph = ztransform(g), ztransform(h)
        for k in range(5):
            u = unit_point(0.25 + 0.6 * k)
            hr = slice_roots(Ph, u).roots
            gr = slice_roots(Pg, u).roots
            worst = max(min(abs(a - b) for b in gr) for a in hr)
            assert worst <= 1e-6

    def test_scale_invariance_of_roots(self):
        img = synth_image(9, 8, 4)
        u = unit_point(0.4)
        base = slice_roots(ztransform(img), u).roots
        for s in (1000.0, 1e-3, 7.5):
            scaled = slice_roots(ztransform(img.scaled(s)), u).roots
            assert np.max(np.abs(scaled - base)) <= 1e-10

    def test_synth_image_slice_has_roots(self):
        rs = slice_roots(ztransform(synth_image(40, 40, 7)), unit_point(0.3))
        assert rs.count >= 1


class TestEval:
    def test_constant(self):
        P = BivariatePoly(np.array([[0.25 + 0j]]))
        assert bivariate_eval(P, 3 + 2j, -1j) == 0.25

    def test_ones_at_one_one(self):
        assert bivariate_eval(ztransform(ONES2), 1.0, 1.0) == pytest.approx(1.0)

    def test_vanishes_at_slice_roots(self):
        img = synth_image(8, 8, 6)
        P = ztransform(img)
        u = unit_point(0.3)
        p = slice_in_v(P, u)
        rs = slice_roots(P, u)
        for root in rs.roots:
            assert abs(bivariate_eval(P, u, root)) <= ROOT_TOL * residual_scale(p.coeffs, root)
