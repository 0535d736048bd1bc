"""Suite-wide settings: every Hypothesis test draws the same examples on every run.

``tier1`` is the suite's profile.  ``csv-deep`` draws many more examples; CI runs the CSV number
contract under it (``--hypothesis-profile csv-deep``)."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("csv-deep", derandomize=True, deadline=None, max_examples=5_000)
settings.load_profile("tier1")
