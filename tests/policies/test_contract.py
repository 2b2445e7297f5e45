"""Contract suite instantiated over every registered policy.

All assertions live in :mod:`tests.policies.contract`; this file only
binds them to the registries, so registering a new policy in
:mod:`repro.policies` automatically runs it through the full contract.
"""

import pytest

from . import contract


def triple_ids(value):
    # Called once per parameter value, not per triple.
    return str(value)


@pytest.mark.parametrize("name", contract.registered_wear_policies())
class TestWearPolicyContract:
    def test_transform_deterministic(self, name):
        contract.check_wear_transform_deterministic(name)

    def test_transform_sound(self, name):
        contract.check_wear_transform_sound(name)

    def test_leveler_deterministic(self, name):
        contract.check_leveler_deterministic(name)

    def test_leveler_in_bounds(self, name):
        contract.check_leveler_in_bounds(name)


@pytest.mark.parametrize("name", contract.registered_pool_policies())
class TestPoolPolicyContract:
    def test_supply_order_registered(self, name):
        contract.check_pool_supply_order_registered(name)


@pytest.mark.parametrize("name", contract.registered_placement_policies())
class TestPlacementPolicyContract:
    def test_tolerant_large_deterministic(self, name):
        contract.check_placement_deterministic(name)


@pytest.mark.parametrize(
    "wear,pool,placement", contract.registered_triples(), ids=triple_ids
)
class TestTripleContract:
    def test_no_live_data_on_failed_lines(self, wear, pool, placement):
        contract.check_no_live_data_on_failed_lines(wear, pool, placement)

    def test_page_conservation(self, wear, pool, placement):
        contract.check_page_conservation(wear, pool, placement)

    def test_machine_determinism(self, wear, pool, placement):
        contract.check_machine_determinism(wear, pool, placement)


@pytest.mark.parametrize("name", contract.registered_wear_policies())
def test_lifetime_determinism(name):
    contract.check_lifetime_determinism(name)
