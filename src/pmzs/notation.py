"""Textual forms of groups, subsets and sequences, and the JSON form of subsets.

Grammar accepted by the parsers:

* group:    ``C2xC4`` (case-insensitive, ``x`` separated; ``C1`` factors drop out)
* element (a term of a subset or sequence):  ``(1,3)``; the one-coordinate
  shorthand ``(3)`` works for cyclic groups, and ``()`` is the one element
  of the trivial group
* subset:   ``[(1),(3)]`` (duplicates rejected)
* sequence: ``[(1,0)^2, (0,3)]`` with ``^mult`` optional

Cyclic orders and multiplicities are runs of decimal digits
(``str.isdecimal``, so other scripts' digits count too), and whitespace
(``str.isspace``) may surround a term, its ``^`` and its comma.  The
parsers use ``str`` methods only, so no pattern is compiled at import or
on a call.
"""

from __future__ import annotations

from .errors import DomainError
from .groups import Group, GroupElement, make_group
from .sequences import Sequence


def parse_group(text: str) -> Group:
    """Parse a group literal such as ``C6`` or ``c2 x C4``."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise DomainError("empty group literal")
    orders = []
    for part in cleaned.replace("X", "x").split("x"):
        # a factor is c or C and decimal digits; one newline may end it, as
        # at the end of a line read from a file
        digits = part[1:-1] if part.endswith("\n") else part[1:]
        if part[:1] not in ("c", "C") or not digits.isdecimal():
            raise DomainError(f"unrecognized group literal {text!r} (expected e.g. 'C2xC4')")
        n = int(digits)
        if n == 0:
            raise DomainError(f"invalid cyclic order 0 in group literal {text!r}")
        if n > 1:
            orders.append(n)
    return make_group(orders)


def format_group(group: Group) -> str:
    return str(group)


def _parse_coords(body: str, group: Group) -> GroupElement:
    body = body.strip()
    if not body and group.rank:
        raise DomainError("empty element literal '()'")
    try:
        coords = tuple(int(c) for c in body.split(",")) if body else ()
    except ValueError as exc:
        raise DomainError(f"bad element coordinates {body!r}") from exc
    if len(coords) != group.rank:
        raise DomainError(
            f"element {body!r} has {len(coords)} coordinates but {group} has rank {group.rank}"
        )
    return group.element(coords)


def _subset_bodies(inner: str) -> list[str]:
    """The bodies of the terms ``(...)`` of a subset literal's inside, which
    hold no parenthesis; none when anything but commas and whitespace lies
    between the terms."""
    bodies = []
    pos = 0
    while True:
        start = inner.find("(", pos)
        between = inner[pos:] if start < 0 else inner[pos:start]
        if between.replace(",", "").strip():
            return []
        if start < 0:
            return bodies
        close = inner.find(")", start)
        if close < 0 or "(" in inner[start + 1 : close]:
            return []
        bodies.append(inner[start + 1 : close])
        pos = close + 1


def _skip_space(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def parse_subset(group: Group, text: str) -> tuple[GroupElement, ...]:
    """Parse a subset literal like ``[(1,0),(0,1)]``; order is normalized, duplicates rejected."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise DomainError(f"subset literal must be bracketed, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    if "^" in inner:
        raise DomainError("subset literals take no multiplicities; use a sequence literal instead")
    bodies = _subset_bodies(inner)
    if not bodies:
        raise DomainError(f"malformed subset literal {text!r}")
    elems = [_parse_coords(b, group) for b in bodies]
    indices = [g.index for g in elems]
    if len(set(indices)) != len(indices):
        raise DomainError(f"subset literal {text!r} repeats an element")
    return tuple(sorted(elems, key=lambda g: g.index))


def parse_sequence(group: Group, text: str) -> Sequence:
    """Parse a sequence literal like ``[(1)^10]`` or ``[(1,0)^2, (0,3)]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise DomainError(f"sequence literal must be bracketed, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return Sequence.empty(group)
    items: list[tuple[GroupElement, int]] = []
    pos = 0
    # each term is ``(coords)``, then ``^mult`` if any, then a comma or the
    # end; whitespace may come before and after each of its parts
    while pos < len(inner):
        start = _skip_space(inner, pos)
        close = inner.find(")", start)
        if not inner.startswith("(", start) or close < 0 or "(" in inner[start + 1 : close]:
            raise DomainError(f"malformed sequence literal {text!r}")
        pos = _skip_space(inner, close + 1)
        mult = 1
        if inner.startswith("^", pos):
            digits = pos = _skip_space(inner, pos + 1)
            while pos < len(inner) and inner[pos].isdecimal():
                pos += 1
            if pos == digits:
                raise DomainError(f"malformed sequence literal {text!r}")
            mult = int(inner[digits:pos])
            pos = _skip_space(inner, pos)
        if pos < len(inner):
            if inner[pos] != ",":
                raise DomainError(f"malformed sequence literal {text!r}")
            pos += 1
        if mult < 1:
            raise DomainError("sequence multiplicities must be >= 1")
        items.append((_parse_coords(inner[start + 1 : close], group), mult))
    return Sequence.from_items(group, items)


def format_subset(elements) -> str:
    return "[" + ", ".join(str(g) for g in elements) + "]"


# -- JSON forms -----------------------------------------------------------------


def subset_to_json(elements) -> list[list[int]]:
    return [list(g.coords) for g in sorted(elements, key=lambda g: g.index)]
