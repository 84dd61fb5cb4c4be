"""Shared low-level utilities: seeded RNG, validation, timing."""

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_capacity,
    check_nonnegative_array,
    check_positive,
    check_probability,
)

__all__ = [
    "Timer",
    "as_generator",
    "check_capacity",
    "check_nonnegative_array",
    "check_positive",
    "check_probability",
    "spawn_generators",
]
