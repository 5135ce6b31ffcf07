"""A table row that reads 0 whatever its inputs fails the criterion that claims it.

Each case replaces one row's check in ``properties.TABLE`` by one that makes
the same calls and returns 0.0 times their residual, then runs the
acceptance criterion that claims the row: the criterion must fail, on the
defect cases where the honest check reads above its gate.  Five rows that
criteria 1 and 8 run have no claim here, since no case can make them read
above a gate: the four algebra rows, whose only input is the algebra (three
read exactly 0.0, and every product the library makes is associative), and
``symmetry_separation``, whose check raises past 1e-10 instead of returning
a larger leak.
"""

import dataclasses

import pytest
import test_acceptance as acceptance

from clifford_mellin import properties

CLAIMS = {
    acceptance.test_criterion_3_split_identities:
        acceptance.SPLIT_ROWS + ("split_orthogonality",),
    acceptance.test_criterion_6_theorem_suite: acceptance.THEOREM_ROWS + acceptance.BLADE_ROWS,
    acceptance.test_criterion_7_derivative_and_power_scaling:
        acceptance.DERIVATIVE_ROWS + acceptance.POWER_ROWS,
}


@pytest.mark.parametrize(
    "criterion, row",
    [(criterion, row) for criterion, rows in CLAIMS.items() for row in rows],
    ids=lambda value: value if isinstance(value, str) else value.__name__[5:],
)
def test_a_zeroed_row_fails_its_criterion(monkeypatch, criterion, row):
    def zeroed(prop):
        return dataclasses.replace(prop, check=lambda case: 0.0 * prop.check(case))

    assert row in {prop.name for prop in properties.TABLE}
    monkeypatch.setattr(properties, "TABLE", tuple(
        zeroed(prop) if prop.name == row else prop for prop in properties.TABLE))
    with pytest.raises(AssertionError, match=r"^criterion \d+: "):
        criterion()
