"""The suite's case counts: one default mapping, overridden by name from a scenario."""

import dataclasses

import pytest

from icqt import suite
from icqt.scenario import ScenarioError, parse_suite_options
from icqt.trinary import TrinaryDims

BATTERIES = (
    "factorization_battery",
    "converse_battery",
    "block_battery",
    "born_battery",
    "bounds_and_creation_battery",
    "shannon_identity_battery",
    "schmidt_battery",
    "icqc_battery",
)


@pytest.fixture
def battery_calls(monkeypatch):
    """Every battery ``run_property_suite`` calls, as (name, positional arguments), run none."""
    calls = []
    for name in BATTERIES:
        monkeypatch.setattr(suite, name, lambda *args, name=name: calls.append((name, args)))
    return calls


def test_default_counts():
    assert suite.DEFAULT_COUNTS == {
        "factorization_cases": 50,
        "converse_cases": 10,
        "block_cases": 50,
        "born_cases": 100,
        "creation_cases": 20,
        "shannon_cases": 100,
        "schmidt_roundtrips": 1000,
    }


def test_one_count_overridden_and_every_other_at_its_default(battery_calls):
    suite.run_property_suite(7, born_cases=2)
    counts, dims = suite.DEFAULT_COUNTS, suite.DEFAULT_DIMS
    assert battery_calls == [
        ("factorization_battery", (7, counts["factorization_cases"], dims)),
        ("converse_battery", (7, counts["converse_cases"])),
        ("block_battery", (7, counts["block_cases"])),
        ("born_battery", (7, 2)),
        ("bounds_and_creation_battery", (7, counts["creation_cases"], dims)),
        ("shannon_identity_battery", (7, counts["shannon_cases"], dims)),
        ("schmidt_battery", (7, counts["schmidt_roundtrips"])),
        ("icqc_battery", (7,)),
    ]


def test_unknown_count_name_raises_type_error(battery_calls):
    with pytest.raises(TypeError, match="born_case"):
        suite.run_property_suite(7, born_case=2)
    assert battery_calls == []


@pytest.mark.parametrize("value", [0, -1, True, 1.0, "3"])
def test_count_rule_before_any_battery_runs(battery_calls, value):
    # converse_cases=0 once passed converse-probe on no case, with worst = inf
    with pytest.raises(ValueError, match="^converse_cases must be a positive integer$"):
        suite.run_property_suite(1, converse_cases=value)
    assert battery_calls == []


@pytest.mark.parametrize(
    "dims_list, message",
    [
        ((), "^dims_list must be a nonempty list"),  # once a ZeroDivisionError
        # once an IndexError in the Shannon battery, which needs d_p orthonormal S x A states
        ((TrinaryDims(2, 2, 4), TrinaryDims(1, 1, 2)),
         r"^dims_list\[1\]: d_p 2 > d_s\*d_a 1: too few S x A states$"),
        # once the generic ValueError of writing a d_p past Python's decimal digit limit
        ((TrinaryDims(1, 1, 10**5000),),
         r"^dims_list\[0\]: d_p <int of 16610 bits> > d_s\*d_a 1: too few S x A states$"),
        # once a failed bounds-and-creation battery: at d_p = 1, S_PSA is 0 at every time
        ((TrinaryDims(2, 2, 4), TrinaryDims(2, 2, 1)),
         r"^dims_list\[1\]: d_p 1 < 2: no P\|\(SA\) entanglement to create$"),
        ((TrinaryDims(1, 1, 1),),
         r"^dims_list\[0\]: d_p 1 < 2: no P\|\(SA\) entanglement to create$"),
    ],
    ids=["empty", "d_p-past-d_sa", "d_p-past-the-digit-limit", "d_p-of-1", "all-of-1"],
)
def test_dims_rule_before_any_battery_runs(battery_calls, dims_list, message):
    with pytest.raises(ValueError, match=message):
        suite.run_property_suite(1, dims_list=dims_list)
    assert battery_calls == []


def test_dims_at_d_p_equal_to_d_sa_pass_the_rule(battery_calls):
    suite.run_property_suite(1, dims_list=(TrinaryDims(1, 2, 2),))
    assert [name for name, _ in battery_calls] == list(BATTERIES)


def test_shannon_battery_at_d_p_equal_to_d_sa():
    assert suite.shannon_identity_battery(1, 4, (TrinaryDims(1, 2, 2), TrinaryDims(2, 1, 2))).passed


@pytest.mark.parametrize("deviation", [1e-6, float("nan")])
def test_bounds_battery_fails_on_a_gap_to_the_dense_reference(monkeypatch, deviation):
    # the trajectories walk the dense reference beside the factorized walk; a gap past
    # FACTORIZATION_TOL fails the battery, and worst and notes read as before
    walk = suite.entanglement_trajectory
    clean = suite.bounds_and_creation_battery(7, 4)

    def drifting(*args):
        return dataclasses.replace(walk(*args), max_deviation=deviation)

    monkeypatch.setattr(suite, "entanglement_trajectory", drifting)
    result = suite.bounds_and_creation_battery(7, 4)
    assert clean.passed and not result.passed
    assert (result.worst, result.notes) == (clean.worst, clean.notes)


class TestParseSuiteOptions:
    def test_only_the_fields_given(self):
        assert parse_suite_options({"seed": 1, "dims_list": None}) == {}
        options = parse_suite_options({"dims_list": [[2, 2, 4]], "converse_cases": 3})
        assert options == {"dims_list": (TrinaryDims(2, 2, 4),), "converse_cases": 3}

    @pytest.mark.parametrize("key", sorted(suite.DEFAULT_COUNTS))
    @pytest.mark.parametrize("value", [0, -1, True, 1.0, "3", None])
    def test_count_must_be_a_positive_integer(self, key, value):
        with pytest.raises(ScenarioError, match=f"^{key} must be a positive integer$"):
            parse_suite_options({key: value})

    @pytest.mark.parametrize("value", [[], "[[2, 2, 4]]", {"dims": [2, 2, 4]}])
    def test_dims_list_must_be_a_nonempty_list(self, value):
        with pytest.raises(ScenarioError, match="^dims_list must be a nonempty list"):
            parse_suite_options({"dims_list": value})

    def test_dims_list_entries_are_parsed_as_dims(self):
        with pytest.raises(ScenarioError, match="^dims must be a list"):
            parse_suite_options({"dims_list": [[2, 2]]})
