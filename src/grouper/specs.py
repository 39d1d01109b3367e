"""Parsing and emitting of group spec files.

Two spec kinds are supported:

* ``family``: a single descriptor line, in any case, such as ``cyclic:4``, ``dihedral:6``,
  ``quaternion8``, ``heisenberg:3`` or ``product:cyclic:2,cyclic:4``.
* ``permutations``: one generator per line in cycle notation with 1-based
  points, e.g. ``(1 2 3)(4 5)``.  Commas or spaces may separate points.

Blank lines and ``#`` comments are ignored.  An optional ``name: X`` header
names the group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MalformedPermutation, SpecParseError
from .groups import (
    _FAMILIES,
    FiniteGroup,
    build_from_permutations,
    perm_from_cycles,
    perm_to_cycles,
    standard_group,
)

_FAMILY_HEADS = (*_FAMILIES, "quaternion8", "product")


@dataclass
class GroupSpecFile:
    name: str
    kind: str           # "family" | "permutations"
    payload: object     # descriptor string, or list of cycle-notation lines

    def build(self) -> FiniteGroup:
        if self.kind == "family":
            G = standard_group(self.payload)
            return G.renamed(self.name) if self.name else G
        perms = [_parse_cycles_line(line, i + 1) for i, line in enumerate(self.payload)]
        return build_from_permutations(perms, name=self.name or "G")

    def emit(self) -> str:
        lines = []
        if self.name:
            lines.append(f"name: {self.name}")
        if self.kind == "family":
            lines.append(str(self.payload))
        else:
            lines.extend(self.payload)
        return "\n".join(lines) + "\n"


def _parse_cycles_line(line: str, lineno: int):
    """One generator in cycle notation -> 0-based permutation tuple."""
    for pos, tok in enumerate(re.split(r"[\s(),]+", line)):
        if tok and (not tok.isdigit() or int(tok) < 1):
            raise SpecParseError(
                f"point labels must be positive integers, got {tok!r}", lineno, pos + 1
            )
    try:
        return perm_from_cycles(line)
    except MalformedPermutation as exc:
        raise SpecParseError(exc.message, lineno, 1)


def parse_group_spec(text: str) -> GroupSpecFile:
    """Parse spec text into a GroupSpecFile (does not build the group)."""
    name = ""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("name:"):
            if name:
                raise SpecParseError("duplicate name header", lineno, 1)
            name = line[5:].strip()
            continue
        lines.append((lineno, line))
    if not lines:
        raise SpecParseError("empty spec", 1, 1)
    first = lines[0][1]
    head = first.split(":", 1)[0].strip().lower()
    if head in _FAMILY_HEADS:
        if len(lines) > 1:
            raise SpecParseError("family spec must be a single line", lines[1][0], 1)
        return GroupSpecFile(name, "family", first.replace(" ", "").lower())
    if not first.startswith("("):
        raise SpecParseError(
            f"unknown family or malformed cycle line: {first!r}", lines[0][0], 1
        )
    # validate every line now so errors carry positions
    for lineno, line in lines:
        _parse_cycles_line(line, lineno)
    return GroupSpecFile(name, "permutations", [line for _, line in lines])


def spec_for_group(G: FiniteGroup) -> GroupSpecFile:
    """Spec that rebuilds G, preferring its permutation representation."""
    if G.element_perms is not None:
        lines = [perm_to_cycles(G.element_perms[g]) for g in G.generators]
        return GroupSpecFile(G.name, "permutations", lines)
    raise SpecParseError(f"group {G.name} has no permutation representation")
