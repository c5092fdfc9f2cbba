"""Tests for the configuration error metrics (Fig. 3): the shift metric
the selection unit computes and the exact-division reference."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.selection_netlist import hardwired_shifts
from repro.errors import CircuitError
from repro.fabric.configuration import (
    CONFIG_FLOATING,
    CONFIG_INTEGER,
    CONFIG_MEMORY,
    Configuration,
)
from repro.steering.error_metric import exact_error
from repro.steering.selection import ConfigurationSelectionUnit

_COUNTS = st.tuples(*[st.integers(0, 7)] * 5)
#: a configured count whose Fig. 3(c) control selects each shift.
_COUNT_FOR_SHIFT = {0: 1, 1: 2, 2: 4}


def _errors(required, counts=(1, 1, 1, 1, 1)) -> tuple[int, ...]:
    """The selection unit's shift-metric errors, current first."""
    return ConfigurationSelectionUnit().select_required(required, counts).errors


class TestHardwiredShifts:
    def test_integer_config(self):
        # avail incl. FFUs: IALU 5, IMDU 3, LSU 1, FPALU 1, FPMDU 1
        assert hardwired_shifts(CONFIG_INTEGER) == (2, 1, 0, 0, 0)

    def test_memory_config(self):
        # avail: IALU 3, IMDU 2, LSU 5, FPALU 1, FPMDU 1
        assert hardwired_shifts(CONFIG_MEMORY) == (1, 1, 2, 0, 0)

    def test_floating_config(self):
        # avail: IALU 2, IMDU 1, LSU 2, FPALU 2, FPMDU 2
        assert hardwired_shifts(CONFIG_FLOATING) == (1, 0, 1, 1, 1)

    def test_no_ffus(self):
        empty = Configuration("none", {})
        assert hardwired_shifts(empty, ffu_counts={}) == (0, 0, 0, 0, 0)


class TestCemError:
    """The current candidate's CEM under live counts chosen per shift."""

    def test_zero_required_zero_error(self):
        assert _errors((0, 0, 0, 0, 0), (4, 4, 4, 4, 4))[0] == 0

    def test_matches_shift_sum(self):
        required = (6, 2, 1, 0, 0)
        counts = (4, 2, 1, 1, 1)  # shifts (2, 1, 0, 0, 0)
        assert _errors(required, counts)[0] == (6 >> 2) + (2 >> 1) + 1

    @given(_COUNTS, st.tuples(*[st.integers(0, 2)] * 5))
    def test_equals_sum_of_shifted_terms(self, required, shifts):
        counts = tuple(_COUNT_FOR_SHIFT[s] for s in shifts)
        assert _errors(required, counts)[0] == sum(
            r >> s for r, s in zip(required, shifts)
        )

    def test_wrong_arity_rejected(self):
        with pytest.raises(CircuitError):
            _errors((1, 2, 3))


class TestExactError:
    def test_true_division(self):
        assert exact_error((6, 0, 0, 0, 0), (3, 1, 1, 1, 1)) == pytest.approx(2.0)

    def test_zero_available_penalised(self):
        assert exact_error((2, 0, 0, 0, 0), (0, 1, 1, 1, 1)) == pytest.approx(16.0)

    @given(_COUNTS)
    def test_cem_approximates_exact_from_above_half(self, required):
        """The shifter divides by a power of two <= avail, so the CEM is an
        *over*-estimate of exact division, by at most a factor of 2 per term
        (ignoring floor)."""
        avail = (5, 3, 1, 1, 1)  # integer config totals
        approx = _errors(required)[1]  # candidate 1: the integer config
        exact = exact_error(required, avail)
        assert approx >= int(exact) - 5  # floor slack: one unit per term


class TestGenerator:
    def test_predefined_generator_uses_hardwired_shifts(self):
        for required in ((7, 7, 7, 7, 7), (5, 3, 6, 2, 4), (1, 2, 3, 4, 5)):
            errors = _errors(required)
            for k, config in enumerate((CONFIG_INTEGER, CONFIG_MEMORY, CONFIG_FLOATING)):
                shifts = hardwired_shifts(config)
                assert errors[k + 1] == sum(r >> s for r, s in zip(required, shifts))

    def test_current_generator_needs_live_counts(self):
        with pytest.raises(ValueError):
            _errors((0,) * 5, ())

    def test_current_generator_tracks_counts(self):
        # counts (5,1,1,1,1): IALU divides by 4, everything else by 1
        assert _errors((4, 0, 0, 0, 0), (5, 1, 1, 1, 1))[0] == 1
        assert _errors((4, 0, 0, 0, 0), (1, 1, 1, 1, 1))[0] == 4

    def test_available_counts(self):
        """The exact metric divides by each candidate's unit counts: the
        memory config's (3, 2, 5, 1, 1) and the live counts."""
        unit = ConfigurationSelectionUnit(use_exact_metric=True)
        errors = unit.select_required((3, 2, 5, 1, 1), (1, 2, 3, 4, 5)).errors
        assert errors[2] == 5
        assert errors[0] == round(exact_error((3, 2, 5, 1, 1), (1, 2, 3, 4, 5)))

    def test_best_match_wins_for_each_specialised_queue(self):
        """Sanity: each steering config scores best on its own workload."""
        names = ("integer", "memory", "floating")
        queues = {
            "integer": (5, 2, 0, 0, 0),
            "memory": (2, 0, 5, 0, 0),
            "floating": (1, 0, 1, 3, 2),
        }
        for name, required in queues.items():
            errors = dict(zip(names, _errors(required)[1:]))
            assert min(errors, key=errors.get) == name, errors
