"""Tests for the property framework."""

import dataclasses

import pytest

from repro.core.properties import (
    CheckContext,
    Property,
    PropertySuite,
    Violation,
)


class AlwaysFires(Property):
    name = "always_fires"
    fault_class = "policy_conflict"

    def __init__(self):
        self.prepared = 0

    def prepare(self, context):
        self.prepared += 1
        context.baseline["marker"] = 42

    def check(self, context):
        assert context.baseline["marker"] == 42
        return [self.violation(context, "it fired", extra=1)]


class NeverFires(Property):
    name = "never_fires"
    fault_class = "programming_error"

    def check(self, context):
        return []


def make_context(converged3):
    return CheckContext(
        clone=converged3.network,
        node="r2",
    )


class TestProperty:
    def test_violation_constructor_tags_metadata(self, converged3):
        context = make_context(converged3)
        prop = AlwaysFires()
        prop.prepare(context)
        violations = prop.check(context)
        assert violations[0].property_name == "always_fires"
        assert violations[0].fault_class == "policy_conflict"
        assert violations[0].node == "r2"
        assert violations[0].evidence == {"extra": 1}

    def test_context_router_accessor(self, converged3):
        context = make_context(converged3)
        assert context.router is converged3.network.processes["r2"]
        assert context.local_as() == 65002

    def test_base_check_not_implemented(self, converged3):
        with pytest.raises(NotImplementedError):
            Property().check(make_context(converged3))


class TestPropertySuite:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            PropertySuite([AlwaysFires(), AlwaysFires()])

    def test_prepare_and_check_all(self, converged3):
        prop = AlwaysFires()
        suite = PropertySuite([prop, NeverFires()])
        context = make_context(converged3)
        suite.prepare_all(context)
        assert prop.prepared == 1
        violations = suite.check_all(context)
        assert len(violations) == 1
        assert violations[0].property_name == "always_fires"

    def test_len_and_iteration(self):
        suite = PropertySuite([AlwaysFires(), NeverFires()])
        assert len(suite) == 2
        assert [prop.name for prop in suite] == [
            "always_fires", "never_fires",
        ]


class TestViolation:
    def test_frozen(self):
        violation = Violation(
            property_name="p", fault_class="policy_conflict",
            node="n", detail="d",
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            violation.detail = "changed"
