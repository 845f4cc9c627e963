"""Unit tests for the programmable decoder bank."""

import pytest

from repro.core.decoder import DecoderIntegrityError, ProgrammableDecoderBank


@pytest.fixture
def bank() -> ProgrammableDecoderBank:
    return ProgrammableDecoderBank(num_rows=4, num_clusters=2, pi_bits=3)


class TestSearch:
    def test_cold_bank_misses(self, bank):
        assert not bank.search(0, 0b101).hit

    def test_programmed_value_found(self, bank):
        bank.program(0, 1, 0b101)
        match = bank.search(0, 0b101)
        assert match.hit and match.cluster == 1

    def test_search_is_per_row(self, bank):
        bank.program(0, 0, 0b101)
        assert not bank.search(1, 0b101).hit

    def test_search_counts(self, bank):
        bank.search(0, 0)
        bank.search(1, 1)
        assert bank.searches == 2


class TestProgram:
    def test_reprogram_replaces_old_value(self, bank):
        bank.program(0, 0, 0b001)
        bank.program(0, 0, 0b010)
        assert not bank.search(0, 0b001).hit
        assert bank.search(0, 0b010).hit

    def test_same_value_same_cluster_is_noop(self, bank):
        bank.program(0, 0, 0b001)
        bank.program(0, 0, 0b001)
        assert bank.search(0, 0b001).cluster == 0

    def test_duplicate_value_rejected(self, bank):
        """Uniqueness: 'The two PIs must be different to maintain unique
        address decoding' (Figure 1)."""
        bank.program(0, 0, 0b001)
        with pytest.raises(DecoderIntegrityError):
            bank.program(0, 1, 0b001)

    def test_same_value_in_other_row_allowed(self, bank):
        bank.program(0, 0, 0b001)
        bank.program(1, 0, 0b001)  # different row: fine

    def test_value_width_checked(self, bank):
        with pytest.raises(ValueError):
            bank.program(0, 0, 0b1000)

    def test_program_counts(self, bank):
        bank.program(0, 0, 1)
        bank.program(0, 1, 2)
        assert bank.programs == 2


class TestInvalidate:
    def test_invalidate_frees_value(self, bank):
        bank.program(0, 0, 0b011)
        bank.invalidate(0, 0)
        assert not bank.search(0, 0b011).hit
        bank.program(0, 1, 0b011)  # value is reusable

    def test_invalidate_idempotent(self, bank):
        bank.invalidate(0, 0)
        bank.invalidate(0, 0)

    def test_invalid_clusters(self, bank):
        assert bank.invalid_clusters(0) == [0, 1]
        bank.program(0, 0, 1)
        assert bank.invalid_clusters(0) == [1]

    def test_flush(self, bank):
        bank.program(0, 0, 1)
        bank.program(2, 1, 3)
        bank.flush()
        assert bank.occupancy() == 0.0


class TestIntegrity:
    def test_clean_bank_passes(self, bank):
        bank.program(0, 0, 1)
        bank.program(0, 1, 2)
        bank.check_integrity()

    def test_corruption_detected(self, bank):
        bank.program(0, 0, 1)
        bank.program(0, 1, 2)
        # Corrupt internals directly to simulate a fault.
        bank._values[0 * bank.num_clusters + 1] = 1
        with pytest.raises(DecoderIntegrityError):
            bank.check_integrity()

    def test_occupancy(self, bank):
        assert bank.occupancy() == 0.0
        bank.program(0, 0, 1)
        assert bank.occupancy() == pytest.approx(1 / 8)


class TestValueAt:
    def test_value_at(self, bank):
        assert bank.value_at(0, 0) is None
        bank.program(0, 0, 5)
        assert bank.value_at(0, 0) == 5
        assert bank.is_valid(0, 0)
        assert not bank.is_valid(0, 1)


class TestConstruction:
    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ProgrammableDecoderBank(0, 1, 1)
        with pytest.raises(ValueError):
            ProgrammableDecoderBank(1, 0, 1)
        with pytest.raises(ValueError):
            ProgrammableDecoderBank(1, 1, -1)
