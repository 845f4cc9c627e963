"""Hypothesis settings tiers for the property tests.

A test takes the tier of what a failure would cost, as a multiple of
the active profile's ``max_examples`` (``REPRO_HYPOTHESIS_PROFILE``,
see conftest.py), so a quick or thorough profile still scales every
tier:

- DETERMINISM_SETTINGS: 5x — bit-identity of two paths that must agree
  exactly (a batch kernel against the per-access replay)

Other property tests keep the profile's count.
"""

from __future__ import annotations

from hypothesis import settings

DETERMINISM_SETTINGS = settings(max_examples=5 * settings.default.max_examples)
