"""Resource caps for the exponential-search operations."""

from __future__ import annotations

from .errors import DomainError
from .groups import _Record


class Limits(_Record):
    """Caps that keep the exhaustive searches at desk scale.

    Exceeding a cap raises :class:`~pmzs.errors.ResourceLimitError`; results
    are never silently truncated.
    """

    __slots__ = _fields = ("max_support", "max_atom_length", "max_sweep_order", "rho_cap")

    def __init__(self, max_support: int = 8, max_atom_length: int = 20, max_sweep_order: int = 10, rho_cap: int = 3):
        self.max_support = max_support
        self.max_atom_length = max_atom_length
        self.max_sweep_order = max_sweep_order
        self.rho_cap = rho_cap
        for name in self._fields:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise DomainError(f"limit {name!r} must be a positive integer, got {value!r}")


DEFAULT_LIMITS = Limits()
