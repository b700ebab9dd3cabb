"""The explore profile's collection hook in conftest: it scales each
property test's own max_examples through a private Hypothesis attribute, so
these tests count the examples a property actually runs."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import conftest


def _collected_property():
    """A collected item whose property test has its own max_examples of 7,
    and the list its runs append to."""
    runs = []

    @settings(max_examples=7, database=None)
    @given(st.integers(0, 10**9))
    def prop(x):
        runs.append(x)

    return SimpleNamespace(obj=prop), runs


def test_explore_profile_scales_max_examples(monkeypatch):
    item, runs = _collected_property()
    monkeypatch.setattr(conftest, "PROFILE", "explore")
    conftest.pytest_collection_modifyitems([item])
    item.obj()
    assert len(runs) == 7 * conftest.EXPLORE_FACTOR == 70


def test_default_profile_keeps_max_examples(monkeypatch):
    item, runs = _collected_property()
    monkeypatch.setattr(conftest, "PROFILE", "derandomized")
    conftest.pytest_collection_modifyitems([item])
    item.obj()
    assert len(runs) == 7
