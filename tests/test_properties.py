"""A table row that reads 0 whatever its inputs fails the criterion that claims it.

Each case replaces one row's check in ``properties.TABLE`` by one that makes
the same calls and returns 0.0 times their residual, then runs the
acceptance criterion that claims the row: the criterion must fail, on the
defect cases, or under the broken algebra or transform, where the honest
check reads above its gate.
"""

import dataclasses

import pytest
import test_acceptance as acceptance

from clifford_mellin import properties

CLAIMS = {
    acceptance.test_criterion_1_algebra_axioms: acceptance.ALGEBRA_ROWS,
    acceptance.test_criterion_3_split_identities:
        acceptance.SPLIT_ROWS + ("split_orthogonality",),
    acceptance.test_criterion_6_theorem_suite: acceptance.THEOREM_ROWS + acceptance.BLADE_ROWS,
    acceptance.test_criterion_7_derivative_and_power_scaling:
        acceptance.DERIVATIVE_ROWS + acceptance.POWER_ROWS,
    acceptance.test_criterion_8_symmetry_separation: ("symmetry_separation",),
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
