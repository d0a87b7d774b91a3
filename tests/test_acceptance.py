"""Acceptance battery, one test per criterion.

Each test runs its criterion through homcurv.acceptance (the same entry
point the CLI `suite` subcommand uses), prints a visible pass/fail line
even under captured output, and fails if the criterion missed its
tolerance or wall-clock budget.
"""
import pytest

from homcurv import acceptance
from homcurv.acceptance import criterion_names, run_one


@pytest.fixture
def announce(capfd):
    def _announce(result):
        with capfd.disabled():
            status = "PASS" if result.passed else "FAIL"
            print(f"\n[{status}] {result.name}: {result.detail}")
        assert result.passed, f"{result.name}: {result.detail}"
    return _announce


def test_registry_is_complete():
    names = criterion_names()
    assert len(names) == 12
    assert names == sorted(names)


def test_01_algebra_invariants(announce):
    announce(run_one("01-algebra-invariants"))


def test_02_round_sphere(announce):
    announce(run_one("02-round-sphere"))


def test_03_identity_reduction(announce):
    announce(run_one("03-identity-reduction"))


def test_04_bplus_in_complement(announce):
    announce(run_one("04-bplus-in-complement"))


def test_05_rank_parity(announce):
    announce(run_one("05-rank-parity"))


def test_06_involution_centralizers(announce):
    announce(run_one("06-involution-centralizers"))


def test_07_isotypic_dimensions(announce):
    announce(run_one("07-isotypic-dimensions"))


def test_08_zero_curvature_witnesses(announce):
    announce(run_one("08-zero-curvature-witnesses"))


def test_09_bottom_eigenvalue_witnesses(announce):
    announce(run_one("09-bottom-eigenvalue-witnesses"))


def test_10_metric_symmetrization(announce):
    announce(run_one("10-metric-symmetrization"))


def test_11_positivity_searches(announce):
    announce(run_one("11-positivity-searches"))


def test_12_witness_certifier_agreement(announce):
    announce(run_one("12-witness-certifier-agreement"))


def test_selection_keeps_registry_order(monkeypatch):
    monkeypatch.setattr(acceptance, "run_one", lambda name: name)
    assert list(acceptance.run_all("rank-parity,02,round")) == [
        "02-round-sphere", "05-rank-parity"]
    assert list(acceptance.run_all(None)) == criterion_names()
    assert list(acceptance.run_all(",")) == criterion_names()


def test_selection_without_a_match_fails_before_any_criterion_runs(
        monkeypatch):
    ran = []
    monkeypatch.setattr(acceptance, "run_one", ran.append)
    with pytest.raises(ValueError, match="^no acceptance criteria match "
                       "'zzz,yyy'; known: 01-algebra-invariants, "):
        acceptance.run_all("zzz,yyy")
    assert ran == []
