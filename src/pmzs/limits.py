"""Resource caps for the exponential-search operations."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Limits:
    """Caps that keep the exhaustive searches at desk scale.

    Exceeding a cap raises :class:`~pmzs.errors.ResourceLimitError`; results
    are never silently truncated.
    """

    max_support: int = 8
    max_atom_length: int = 20
    max_sweep_order: int = 10
    rho_cap: int = 3

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not isinstance(value, int) or value < 1:
                raise DomainError(f"limit {name!r} must be a positive integer, got {value!r}")


DEFAULT_LIMITS = Limits()
