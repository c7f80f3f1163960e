"""Embedded spin matrices: exact algebra, measured structure constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfactor.spin import (
    commutator_table,
    embed_spin,
    pauli,
    product_identity_residual,
    spin_dot,
)

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


class TestPauli:
    def test_exact_entries(self):
        assert np.array_equal(pauli(1), SIGMA_1)
        assert np.array_equal(pauli(2), SIGMA_2)
        assert np.array_equal(pauli(3), SIGMA_3)

    def test_invalid_axis(self):
        for axis in (0, 4, -1):
            with pytest.raises(ValueError):
                pauli(axis)

    def test_returns_copies(self):
        a = pauli(1)
        a[0, 0] = 99.0
        assert pauli(1)[0, 0] == 0


class TestEmbedSpin:
    def test_single_site_is_plain_matrix(self):
        for axis in (1, 2, 3):
            assert np.array_equal(embed_spin(axis, 1, 1), pauli(axis))

    def test_second_site_matches_kron_sandwich(self):
        assert np.array_equal(embed_spin(1, 2, 2), np.kron(np.eye(2), SIGMA_1))
        assert np.array_equal(embed_spin(3, 1, 2), np.kron(SIGMA_3, np.eye(2)))

    def test_three_site_sandwich(self):
        expected = np.kron(np.kron(np.eye(2), SIGMA_2), np.eye(2))
        assert np.array_equal(embed_spin(2, 2, 3), expected)

    def test_traceless_idempotent_hermitian_everywhere(self):
        for nsites in (1, 2, 3, 4):
            identity = np.eye(2**nsites)
            for axis in (1, 2, 3):
                for site in range(1, nsites + 1):
                    m = embed_spin(axis, site, nsites)
                    assert np.trace(m) == 0
                    assert np.array_equal(m @ m, identity)
                    assert np.array_equal(m, m.conj().T)

    def test_site_bounds(self):
        with pytest.raises(ValueError):
            embed_spin(1, 0, 2)
        with pytest.raises(ValueError):
            embed_spin(1, 3, 2)

    def test_site_count_guard(self):
        with pytest.raises(ValueError):
            embed_spin(1, 1, 5)


class TestSpinDot:
    def test_matches_component_sum(self, rng):
        v = rng.normal(size=3)
        expected = sum(v[i] * embed_spin(i + 1, 2, 3) for i in range(3))
        assert np.abs(spin_dot(v, 2, 3) - expected).max() <= 1e-15

    def test_linearity(self, rng):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        left = spin_dot(2.0 * u + v, 1, 2)
        right = 2.0 * spin_dot(u, 1, 2) + spin_dot(v, 1, 2)
        assert np.abs(left - right).max() <= 1e-14

    def test_rejects_bad_vector(self):
        with pytest.raises(ValueError):
            spin_dot([1.0, 2.0], 1, 1)


class TestProductIdentity:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
    )
    def test_residual_small_at_every_width(self, nsites, alpha, beta):
        for site in range(1, nsites + 1):
            residual = product_identity_residual(np.array(alpha), np.array(beta), site, nsites)
            assert residual <= 1e-12 * max(1.0, np.abs(alpha).max() * np.abs(beta).max())

    def test_same_vector_reduces_to_norm_square(self, rng):
        # (s . v)^2 = |v|^2 I, the scalar-matrix special case.
        v = rng.normal(size=3)
        m = spin_dot(v, 1, 2)
        expected = float(v @ v) * np.eye(4)
        assert np.abs(m @ m - expected).max() <= 1e-14 * float(v @ v)


class TestCommutatorTable:
    def test_cross_site_commutators_vanish_exactly(self):
        report = commutator_table(3)
        for entry in report.entries:
            if entry.site_j != entry.site_k:
                assert entry.residual == 0.0
                assert entry.coefficient == 0

    def test_same_site_factor_is_two(self):
        for nsites in (1, 2, 3):
            report = commutator_table(nsites)
            assert report.same_site_factor == 2.0

    def test_measured_coefficients_close_cyclically(self):
        report = commutator_table(2)
        for entry in report.entries:
            if entry.site_j == entry.site_k and entry.axis_a != entry.axis_b:
                assert entry.target_axis is not None
                assert entry.residual == 0.0
                assert abs(entry.coefficient) == pytest.approx(2.0)

    def test_same_axis_commutators_vanish(self):
        report = commutator_table(2)
        for entry in report.entries:
            if entry.site_j == entry.site_k and entry.axis_a == entry.axis_b:
                assert entry.residual == 0.0

    def test_note_documents_convention(self):
        report = commutator_table(1)
        assert "2i" in report.note
        assert "S = s/2" in report.note

    def test_entry_count(self):
        # 3 x 3 axis pairs over nsites^2 site pairs.
        assert len(commutator_table(2).entries) == 36

    def test_round_trip_dict(self):
        data = commutator_table(1).to_dict()
        assert data["nsites"] == 1
        assert data["same_site_factor"] == 2.0
        assert data["max_residual"] == 0.0
        assert len(data["entries"]) == 9
        sample = data["entries"][1]
        assert set(sample) == {
            "axis_a",
            "axis_b",
            "site_j",
            "site_k",
            "coefficient",
            "target_axis",
            "residual",
        }
        assert isinstance(sample["coefficient"], list)
