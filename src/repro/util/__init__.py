"""Utilities: validation helpers and run logging (CPU accounting and
chunking live in :mod:`repro.util.parallel`)."""

from repro.util.validation import (
    require_positive,
    require_shape,
    require_in_range,
)
from repro.obs.logging import RunLogger

__all__ = [
    "require_positive",
    "require_shape",
    "require_in_range",
    "RunLogger",
]
