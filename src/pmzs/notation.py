"""Textual and JSON forms for groups, elements, subsets and sequences.

Grammar accepted by the parsers:

* group:    ``C2xC4`` (case-insensitive, ``x`` separated; ``C1`` factors drop out)
* element:  ``(1,3)``; the one-coordinate shorthand ``(3)`` works for cyclic groups
* subset:   ``[(1),(3)]`` (duplicates rejected)
* sequence: ``[(1,0)^2, (0,3)]`` with ``^mult`` optional
"""

from __future__ import annotations

import re

from .errors import DomainError
from .groups import Group, GroupElement, make_group
from .sequences import Sequence

_FACTOR_RE = re.compile(r"^c(\d+)$", re.IGNORECASE)
_ELEMENT_RE = re.compile(r"\(([^()]*)\)")


def parse_group(text: str) -> Group:
    """Parse a group literal such as ``C6`` or ``c2 x C4``."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise DomainError("empty group literal")
    orders = []
    for part in re.split(r"[xX]", cleaned):
        m = _FACTOR_RE.match(part)
        if not m:
            raise DomainError(f"unrecognized group literal {text!r} (expected e.g. 'C2xC4')")
        n = int(m.group(1))
        if n == 0:
            raise DomainError(f"invalid cyclic order 0 in group literal {text!r}")
        if n > 1:
            orders.append(n)
    return make_group(orders)


def format_group(group: Group) -> str:
    return str(group)


def _parse_coords(body: str, group: Group) -> GroupElement:
    body = body.strip()
    if not body:
        raise DomainError("empty element literal '()'")
    try:
        coords = tuple(int(c) for c in body.split(","))
    except ValueError as exc:
        raise DomainError(f"bad element coordinates {body!r}") from exc
    if len(coords) != group.rank:
        raise DomainError(
            f"element {body!r} has {len(coords)} coordinates but {group} has rank {group.rank}"
        )
    return group.element(coords)


def parse_element(group: Group, text: str) -> GroupElement:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise DomainError(f"element literal must be parenthesized, got {text!r}")
    return _parse_coords(text[1:-1], group)


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
    bodies = _ELEMENT_RE.findall(inner)
    leftover = _ELEMENT_RE.sub("", inner).replace(",", "").strip()
    if not bodies or leftover:
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
    term_re = re.compile(r"\s*\(([^()]*)\)\s*(?:\^\s*(\d+))?\s*(?:,|$)")
    while pos < len(inner):
        m = term_re.match(inner, pos)
        if not m:
            raise DomainError(f"malformed sequence literal {text!r}")
        mult = int(m.group(2)) if m.group(2) else 1
        if mult < 1:
            raise DomainError("sequence multiplicities must be >= 1")
        items.append((_parse_coords(m.group(1), group), mult))
        pos = m.end()
    return Sequence.from_items(group, items)


def format_subset(elements) -> str:
    return "[" + ", ".join(str(g) for g in elements) + "]"


def format_sequence(seq: Sequence) -> str:
    return str(seq)


# -- JSON forms -----------------------------------------------------------------


def subset_to_json(elements) -> list[list[int]]:
    return [list(g.coords) for g in sorted(elements, key=lambda g: g.index)]


def subset_from_json(group: Group, data) -> tuple[GroupElement, ...]:
    return tuple(sorted((group.element(tuple(c)) for c in data), key=lambda g: g.index))


def sequence_to_json(seq: Sequence) -> list[dict]:
    return [{"coords": list(g.coords), "mult": mult} for g, mult in seq.items()]


def sequence_from_json(group: Group, data) -> Sequence:
    return Sequence.from_items(group, [(group.element(tuple(d["coords"])), int(d["mult"])) for d in data])
