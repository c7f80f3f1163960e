"""Exact multivariate polynomial calculus over complex coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfactor.polynomials import Polynomial, weyl_product
from reference import random_polynomial


def poly_strategy(nvars=2, max_degree=3):
    coefficient = st.complex_numbers(
        max_magnitude=10.0, allow_nan=False, allow_infinity=False
    )
    exponent = st.tuples(*(st.integers(0, max_degree) for _ in range(nvars)))
    return st.dictionaries(exponent, coefficient, max_size=6).map(
        lambda coeffs: Polynomial(nvars, coeffs)
    )


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): 0.0, (0, 1): 2.0})
        assert (1, 0) not in p.coeffs
        assert p.coeffs[(0, 1)] == 2.0

    def test_duplicate_exponents_accumulate(self):
        p = Polynomial(1, {(2,): 1.5}) + Polynomial(1, {(2,): 2.5})
        assert p.coeffs[(2,)] == 4.0

    def test_rejects_wrong_arity_exponents(self):
        with pytest.raises(ValueError, match="exponent"):
            Polynomial(2, {(1,): 1.0})

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError, match="exponent"):
            Polynomial(1, {(-1,): 1.0})

    def test_degree_of_zero_polynomial(self):
        assert Polynomial(3).degree() == -1
        assert Polynomial(3).is_zero

    def test_constant_and_variable_builders(self):
        c = Polynomial.constant(2, 4.0)
        x1 = Polynomial.variable(2, 1)
        assert c.degree() == 0
        assert x1.degree() == 1
        assert (c * x1).coeffs == {(0, 1): 4.0}


class TestRingAxioms:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_multiplication_distributes(self, p, q, r):
        left = p * (q + r)
        right = p * q + p * r
        assert left.max_coeff_diff(right) <= 1e-12 * max(left.max_abs(), 1.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(poly_strategy(), poly_strategy())
    def test_multiplication_commutes(self, p, q):
        # Accumulation order differs between the two products, so allow
        # last-ulp rounding differences.
        left = p * q
        assert left.max_coeff_diff(q * p) <= 1e-13 * max(left.max_abs(), 1.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_multiplication_associates(self, p, q, r):
        left = (p * q) * r
        right = p * (q * r)
        assert left.max_coeff_diff(right) <= 1e-10 * max(left.max_abs(), 1.0)

    def test_scalar_operations(self):
        x = Polynomial.variable(1, 0)
        assert (2.0 * x - x).coeffs == {(1,): 1.0}
        assert (x + 1.0).coeffs == {(1,): 1.0, (0,): 1.0}
        assert (1.0 - x).coeffs == {(0,): 1.0, (1,): -1.0}


class TestCalculus:
    def test_derivative_of_monomial(self):
        # d/dx (x^3 y) = 3 x^2 y
        p = Polynomial(2, {(3, 1): 2.0})
        assert p.diff(0).coeffs == {(2, 1): 6.0}
        assert p.diff(1).coeffs == {(3, 0): 2.0}

    def test_derivative_kills_constants(self):
        assert Polynomial.constant(2, 5.0).diff(0).is_zero

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(poly_strategy(), poly_strategy())
    def test_product_rule(self, p, q):
        left = (p * q).diff(0)
        right = p.diff(0) * q + p * q.diff(0)
        assert left.max_coeff_diff(right) <= 1e-11 * max(left.max_abs(), 1.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(poly_strategy(), poly_strategy())
    def test_mixed_partials_commute(self, p, q):
        # The exponent factors multiply in a different order on each path,
        # which can shift the last bit of a coefficient.
        r = p * q
        left = r.diff(0).diff(1)
        right = r.diff(1).diff(0)
        assert left.max_coeff_diff(right) <= 1e-12 * max(left.max_abs(), 1.0)

    def test_evaluate_known_point(self):
        p = Polynomial(2, {(2, 0): 1.0, (0, 1): -3.0, (0, 0): 0.5})
        assert p.evaluate([2.0, 1.0]) == pytest.approx(4.0 - 3.0 + 0.5)

    def test_evaluate_respects_arity(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0).evaluate([1.0])


class TestSubstitution:
    def test_substitution_composes_with_evaluation(self, rng):
        # Substituting linear forms then evaluating must agree with
        # evaluating the original at the transformed point.
        for _ in range(20):
            p = random_polynomial(rng, 3, 3, max_terms=6)
            forms = rng.normal(size=(3, 4))
            q = p.substitute_linear(forms)
            point = rng.normal(size=4)
            direct = p.evaluate(forms @ point)
            assert q.evaluate(point) == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_identity_substitution_is_identity(self, rng):
        p = random_polynomial(rng, 3, 3, max_terms=6)
        q = p.substitute_linear(np.eye(3))
        assert p.max_coeff_diff(q) <= 1e-12 * max(p.max_abs(), 1.0)

    def test_variable_count_can_change(self):
        x = Polynomial.variable(1, 0)
        # x -> u + 2 w over three new variables.
        q = (x * x).substitute_linear([[1.0, 0.0, 2.0]])
        assert q.nvars == 3
        assert q.coeffs == {(2, 0, 0): 1.0, (1, 0, 1): 4.0, (0, 0, 2): 4.0}

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0).substitute_linear(np.eye(3))


class TestMaxCoeffDiff:
    # Plain max keeps its running value when the next gap is NaN, so a
    # NaN gap after a finite one used to read as 0.0.
    def test_nan_gap_kept_in_any_position(self):
        coeffs = {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0, (2, 3): 4.0}
        p = Polynomial(2, coeffs)
        for key in coeffs:
            q = Polynomial(2, {**coeffs, key: math.nan})
            assert math.isnan(p.max_coeff_diff(q))
            assert math.isnan(q.max_coeff_diff(p))

    def test_equal_polynomials_give_zero(self):
        p = Polynomial(2, {(1, 0): 2.0, (0, 1): -1.0j})
        assert p.max_coeff_diff(p) == 0.0
        assert Polynomial(2).max_coeff_diff(Polynomial(2)) == 0.0


class TestMaxAbs:
    # Tests use max_abs as a tolerance scale; a NaN scale must not read as
    # the largest finite coefficient.
    def test_nan_coefficient_kept_in_any_position(self):
        coeffs = {(0, 0): 1.0, (1, 0): -2.0, (0, 1): 3.0j}
        assert Polynomial(2, coeffs).max_abs() == 3.0
        for key in coeffs:
            assert math.isnan(Polynomial(2, {**coeffs, key: math.nan}).max_abs())


class TestRandomPolynomial:
    def test_respects_bounds(self, rng):
        for _ in range(20):
            p = random_polynomial(rng, 4, 3, max_terms=5)
            assert p.nvars == 4
            assert p.degree() <= 3
            assert len(p.coeffs) <= 5

    def test_deterministic_under_seed(self):
        a = random_polynomial(np.random.default_rng(3), 2, 3)
        b = random_polynomial(np.random.default_rng(3), 2, 3)
        assert a == b


def apply_operator(operator: Polynomial, f: Polynomial) -> Polynomial:
    """Apply a normal-ordered operator over 2m variables to f over m, by diff and * alone."""
    m = f.nvars
    out = Polynomial(m)
    for exps, value in operator.coeffs.items():
        term = f
        for i, order in enumerate(exps[m:]):
            for _ in range(order):
                term = term.diff(i)
        out = out + Polynomial(m, {exps[:m]: value}) * term
    return out


class TestWeylProduct:
    def test_product_acts_as_composition(self, rng):
        # Independent oracle: (A B) f must equal A (B f) for every f.
        for _ in range(40):
            a = random_polynomial(rng, 6, 2, max_terms=5)
            b = random_polynomial(rng, 6, 2, max_terms=5)
            f = random_polynomial(rng, 3, 4, max_terms=8)
            left = apply_operator(weyl_product(a, b), f)
            right = apply_operator(a, apply_operator(b, f))
            assert left.max_coeff_diff(right) <= 1e-13 * max(right.max_abs(), 1.0)

    @pytest.mark.parametrize("a", range(4))
    @pytest.mark.parametrize("b", range(4))
    def test_derivative_past_coordinate_closed_form(self, a, b):
        # d^b x^a = sum_k C(b, k) a!/(a - k)! x^(a - k) d^(b - k), exactly.
        derivative = Polynomial(2, {(0, b): 1.0})
        coordinate = Polynomial(2, {(a, 0): 1.0})
        expected = Polynomial(
            2, {(a - k, b - k): math.comb(b, k) * math.perm(a, k) for k in range(min(a, b) + 1)}
        )
        assert weyl_product(derivative, coordinate) == expected

    def test_canonical_commutator(self):
        # [d_i, x_j] = delta_ij over two coordinates.
        for i in range(2):
            for j in range(2):
                d = Polynomial.variable(4, 2 + i)
                x = Polynomial.variable(4, j)
                commutator = weyl_product(d, x) - weyl_product(x, d)
                assert commutator == Polynomial.constant(4, 1.0 if i == j else 0.0)

    def test_normal_ordered_pairs_multiply_as_polynomials(self, rng):
        # Coordinates on the left or derivatives on the right never cross.
        for _ in range(10):
            coords = random_polynomial(rng, 3, 3, max_terms=4).substitute_linear(np.eye(3, 6))
            other = random_polynomial(rng, 6, 3, max_terms=4)
            assert weyl_product(coords, other) == coords * other
            derivs = random_polynomial(rng, 3, 3, max_terms=4).substitute_linear(np.eye(3, 6, 3))
            assert weyl_product(other, derivs) == other * derivs

    def test_rejects_odd_or_mismatched_variable_counts(self):
        with pytest.raises(ValueError, match="even"):
            weyl_product(Polynomial.variable(3, 0), Polynomial.variable(3, 0))
        with pytest.raises(ValueError, match="even"):
            weyl_product(Polynomial.variable(2, 0), Polynomial.variable(4, 0))
