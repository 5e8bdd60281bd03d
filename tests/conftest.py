"""Test-suite settings: every hypothesis property draws the same examples
on every run, with no per-example deadline."""

from hypothesis import settings

settings.register_profile("graphfields", derandomize=True, deadline=None)
settings.load_profile("graphfields")
