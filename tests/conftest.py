"""The Hypothesis profiles of the suite; shared helpers are in `referee`."""

import os

from hypothesis import settings

# every run draws the same examples, seeded from each test's own code, so a
# rare counterexample cannot make one run fail and the next pass; each test
# keeps its own max_examples
settings.register_profile("derandomized", derandomize=True)
# a longer search for local runs, chosen with HYPOTHESIS_PROFILE=explore:
# fresh random examples on every run, EXPLORE_FACTOR times each test's own
# max_examples, and the blob that reproduces a failing example
settings.register_profile("explore", derandomize=False, print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "derandomized")
settings.load_profile(PROFILE)
EXPLORE_FACTOR = 10


def pytest_collection_modifyitems(items):
    # a test's own max_examples overrides any profile's, so the explore
    # profile scales it on each collected property test instead; Hypothesis
    # keeps the settings a test runs with on the test function
    if PROFILE != "explore":
        return
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)  # the function of a test method
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(own, max_examples=own.max_examples * EXPLORE_FACTOR)

