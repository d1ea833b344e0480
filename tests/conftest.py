"""Suite-wide test configuration."""

from hypothesis import settings

# Wall-clock deadlines mean nothing on a shared host (the first example of a
# property pays lazy imports such as np.polyfit's); determinism is checked by
# fingerprints, not by timing.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")
