"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a failure reproduces,
# and carry no per-example deadline, so a slow host cannot fail them.
settings.register_profile("pinchbeam", deadline=None, database=None, derandomize=True)
settings.load_profile("pinchbeam")
