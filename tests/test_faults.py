"""Fault injection: one bad entry in any one bin fails the check that reads it.

Every residual of ``validate_povm`` and of the dilation checks is one
``np.max`` over its per-bin gaps, which keeps a NaN, taken with numpy's
overflow warnings off, so an overflow gives an inf residual.  Each case puts
one fault (NaN, +inf, 1e300, or the entry's modulus made 1e-9 smaller) into
the first, a middle or the last bin of an n = 12 family, and the check that
reads that bin must fail its comparison or refuse the input.
"""

import dataclasses

import numpy as np
import pytest

from timepovm import dilation as dila
from timepovm.model import (
    CovariantPOVM,
    StateVector,
    build_sharp_time_povm,
    centered_grid,
    fourier_map,
    validate_povm,
    vector_generated_povm,
)
from timepovm.uncertainty import occurrence_distribution

N = 12
TOL = 1e-10  # dilate's default tolerance for the axioms and the checks
FAULTS = {
    "nan": lambda x: np.nan,
    "inf": lambda x: np.inf,
    "1e300": lambda x: 1e300,
    "offset": lambda x: x * (1.0 - 1e-9 / abs(x)),
}
BINS = {"first": 0, "middle": N // 2, "last": N - 1}

GRID = centered_grid(N)
SHARP = build_sharp_time_povm(GRID)
VECTOR = vector_generated_povm(GRID, np.exp(2j * np.pi * np.random.default_rng(36).random(N)) / np.sqrt(N))
DILATIONS = {p.label: dila.build_dilation(p) for p in (SHARP, VECTOR)}
TABLE = np.stack([SHARP.effect(k) for k in range(N)])  # the dense copy

# the occurrence check reads its state through entry 0 of each block; the
# energy basis state makes a 1e-9 error there move the mass of its bin by
# 2e-9/sqrt(12) = 5.8e-10, which the dilate limit of 1e-9 would not see
CHECKS = {
    "compression": ("blocks", dila.check_compression),
    "imprimitivity": ("shift", dila.check_imprimitivity),
    "restriction": ("shift", dila.check_restriction),
    "occurrence": ("blocks", lambda d: dila.check_occurrence_consistency(d, [StateVector(GRID, np.eye(N)[0])])),
    "shift-power": ("shift", dila.shift_power_deviation),
}


@pytest.mark.parametrize("where", BINS)
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("family", DILATIONS)
@pytest.mark.parametrize("check", CHECKS)
def test_a_fault_in_one_bin_fails_each_dilation_check(check, family, fault, where):
    part, measure = CHECKS[check]
    d = DILATIONS[family]
    assert measure(d) <= TOL
    edited = getattr(d, part).copy()
    k = BINS[where]
    edited[k, 0, 0] = FAULTS[fault](edited[k, 0, 0])
    assert not measure(dataclasses.replace(d, **{part: edited})) <= TOL


class _ForgedShift(np.ndarray):
    # S_k^dagger S_k reads NaN in bin 6, S_k S_k^dagger does not.  No data
    # can do that, since a finite S S^dagger bounds every entry of S, so the
    # second product is forged: the array marked `second` is on its right
    def __matmul__(self, other):
        product = np.asarray(self) @ np.asarray(other)
        if getattr(other, "second", False):
            product[N // 2, 0, 0] = np.nan
        return product


def test_imprimitivity_sees_a_nan_in_its_second_product_alone():
    d = DILATIONS["sharp"]
    shift = d.shift.copy().view(_ForgedShift)
    shift.second = True
    assert not dila.check_imprimitivity(dataclasses.replace(d, shift=shift)) <= TOL


@pytest.mark.parametrize("where", BINS)
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("axiom", ["completeness", "covariance", "positivity", "additivity"])
def test_a_fault_in_one_bin_fails_its_axiom(axiom, fault, where, monkeypatch):
    assert validate_povm(CovariantPOVM(GRID, SHARP.lattice, dense=TABLE)).passed
    k, table = BINS[where], TABLE.copy()
    if axiom == "additivity":
        # an entry of the table moves both sides of this axiom alike; the
        # occurrence path is the side it checks the effects against
        probs = CovariantPOVM.occurrence_probabilities

        def faulty(self, state):
            p = probs(self, state)
            p[k] = FAULTS[fault](p[k])
            return p

        monkeypatch.setattr(CovariantPOVM, "occurrence_probabilities", faulty)
    else:
        # off the diagonal, so in effect 0 the fault breaks Hermiticity and
        # past it the transport drift of effect 0 sees it
        table[k, 0, 1] = FAULTS[fault](table[k, 0, 1])
    assert axiom in validate_povm(CovariantPOVM(GRID, SHARP.lattice, dense=table)).failed_axioms


@pytest.mark.parametrize("where", BINS)
@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_in_one_bin_is_refused_by_occurrence_distribution(fault, where):
    # the time eigenstate of bin 3 puts no mass in bins 0, 6 and 11, so a
    # diagonal entry of theirs 1e-9 smaller makes a probability negative
    # beyond roundoff
    state = StateVector(GRID, fourier_map(GRID, [3])[0].conj())
    occurrence_distribution(CovariantPOVM(GRID, SHARP.lattice, dense=TABLE), state)
    k, table = BINS[where], TABLE.copy()
    table[k, 0, 0] = FAULTS[fault](table[k, 0, 0])
    with pytest.raises(ValueError, match="not finite|negative beyond roundoff|sum to"):
        occurrence_distribution(CovariantPOVM(GRID, SHARP.lattice, dense=table), state)
