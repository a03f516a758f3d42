"""Report assembly computes each intermediate result once."""

import pytest

import mwlab.conditions
import mwlab.ktheory
import mwlab.reports
from conftest import approx_for, bundled
from mwlab.reports import build_analysis_report

COUNTED = (
    (mwlab.reports, "branch_points"),
    (mwlab.reports, "open_set_condition"),
    # the one Smith elimination routine behind every public K-theory entry
    (mwlab.ktheory, "_smith"),
)


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of each function in every module that binds it."""
    counts = {}
    for module, name in COUNTED:
        original = getattr(module, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for namespace in (mwlab.reports, mwlab.conditions, mwlab.ktheory):
            if getattr(namespace, name, None) is original:
                monkeypatch.setattr(namespace, name, counted)
    return counts


@pytest.mark.parametrize("name", ["squares_z2", "penrose"])
def test_one_branch_scan_osc_check_and_smith_form(call_counts, name):
    spec = bundled(name)
    report = build_analysis_report(spec, 7, 1e-6, approx=approx_for(name, 7))
    assert call_counts == {"branch_points": 1, "open_set_condition": 1,
                           "_smith": 1}
    assert report.hypothesis.open_set_condition == report.osc.holds
