"""Shared test configuration.

Hypothesis property tests run with no per-example deadline, so a slow
example on a loaded machine does not fail them, and derandomized, so every
run draws the same examples.
"""

from hypothesis import settings

settings.register_profile("misbounds", deadline=None, derandomize=True)
settings.load_profile("misbounds")
