import pytest

from torsionlab.errors import TorsionLabError, UnknownNameError
from torsionlab.suites import INVARIANT_COVERAGE, SUITES, run_all, run_suite


@pytest.fixture(scope="module")
def all_reports():
    return run_all()


def test_every_suite_passes(all_reports):
    for name, rep in all_reports.items():
        failing = [r.id for r in rep.records if not r.passed]
        assert rep.passed, f"suite {name} failing: {failing}"


def test_reports_are_byte_identical(all_reports):
    again = run_suite("flatness")
    assert again.dumps() == all_reports["flatness"].dumps()


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nope")
    with pytest.raises(UnknownNameError) as err:
        run_suite("nope")
    assert isinstance(err.value, TorsionLabError)
    assert str(err.value) == f"unknown suite 'nope'; known: {', '.join(sorted(SUITES))}"


def test_every_property_appears_once(all_reports):
    for name, rep in all_reports.items():
        ids = [r.id for r in rep.records]
        assert len(ids) == len(set(ids))
        for r in rep.records:
            assert r.repro.endswith(name)


def test_coverage_manifest_names_real_properties(all_reports):
    executed = {
        f"{name}/{r.id}" for name, rep in all_reports.items() for r in rep.records
    }
    for invariant, props in INVARIANT_COVERAGE.items():
        for p in props:
            assert p in executed, f"{invariant} points at missing property {p}"


def test_coverage_manifest_is_complete():
    # one entry per module-level invariant family
    modules = {key.split("/")[0] for key in INVARIANT_COVERAGE}
    assert modules == {
        "complex_core",
        "flat_bundle",
        "euler_struct",
        "torsion_engine",
        "analytic_model",
    }
