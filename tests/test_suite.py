"""The suite's sizes: one mapping of case counts and one dims list, fixed and read when it runs."""

import dataclasses

import pytest

from icqt import suite
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


def test_every_battery_runs_once_at_the_default_counts_and_dims(battery_calls):
    suite.run_property_suite(7)
    counts, dims = suite.DEFAULT_COUNTS, suite.DEFAULT_DIMS
    assert dims == (TrinaryDims(2, 2, 4), TrinaryDims(3, 3, 9))
    assert battery_calls == [
        ("factorization_battery", (7, counts["factorization_cases"], dims)),
        ("converse_battery", (7, counts["converse_cases"])),
        ("block_battery", (7, counts["block_cases"])),
        ("born_battery", (7, counts["born_cases"])),
        ("bounds_and_creation_battery", (7, counts["creation_cases"], dims)),
        ("shannon_identity_battery", (7, counts["shannon_cases"], dims)),
        ("schmidt_battery", (7, counts["schmidt_roundtrips"])),
        ("icqc_battery", (7,)),
    ]


def test_the_sizes_are_read_when_the_suite_runs(small_suite, battery_calls):
    suite.run_property_suite(7)
    dims = (TrinaryDims(2, 2, 4),)
    assert [args for _, args in battery_calls] == [
        (7, 2, dims), (7, 2), (7, 2), (7, 2), (7, 2, dims), (7, 2, dims), (7, 2), (7,)
    ]


def test_unknown_count_name_raises_type_error(battery_calls):
    # the counts are no arguments: a scenario's count fields never reach the suite
    with pytest.raises(TypeError, match="born_case"):
        suite.run_property_suite(7, born_case=2)
    assert battery_calls == []


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
