"""Symbolic generator words anchored at ideal endpoints.

A GroupWord is a product of generators applied to a named base point P_k
or Q_k; evaluating it numerically on a surface must reproduce the point it
denotes.  Canonicalization uses only identities every surface group
satisfies:

  free reduction        T_sigma(k) T_k = Id
  endpoint absorption   the images of the six endpoints adjacent to a
                        generator's axis are again named endpoints
  vertex relation       T_{sigma(k)+1} T_k = T_sigma(tau(k)) T_sigma(tau(sigma(k))+1)

The absorption table (verified numerically in the test suite):

  T_i P_{i-1} = P_{sigma(i)+1}     T_i Q_i     = Q_{sigma(i)+2}
  T_i P_i     = Q_{sigma(i)+1}     T_i Q_{i+1} = P_{sigma(i)}
  T_i P_{i+1} = P_{sigma(i)-1}     T_i Q_{i+2} = Q_{sigma(i)}
"""

from __future__ import annotations

from dataclasses import dataclass

from .circle import CirclePoint
from .surface import SideIndexMaps, SurfaceGroup


@dataclass(frozen=True)
class BasePoint:
    kind: str  # 'P' or 'Q'
    index: int

    def __str__(self):
        return f"{self.kind}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "BasePoint":
        kind = text[0].upper()
        if kind not in "PQ":
            raise ValueError(f"base point must start with P or Q: {text!r}")
        return cls(kind, int(text[1:]))


@dataclass(frozen=True)
class GroupWord:
    """letters applied right-to-left to the base point; letters[0] is outermost."""

    letters: tuple[int, ...]
    base: BasePoint

    def __str__(self):
        parts = [f"T{k}" for k in self.letters] + [str(self.base)]
        return " ".join(parts)

    def base_point(self, surface: SurfaceGroup) -> CirclePoint:
        return surface.p(self.base.index) if self.base.kind == "P" else surface.q(self.base.index)

    def evaluate(self, surface: SurfaceGroup) -> CirclePoint:
        x = [self.base_point(surface).angle]
        for k in reversed(self.letters):
            (x,) = surface.t_angles(surface.wrap(k), x)
        return CirclePoint(float(x[0]))

    def to_json(self) -> dict:
        return {"word": list(self.letters), "base": str(self.base)}

    @classmethod
    def from_json(cls, doc: dict) -> "GroupWord":
        return cls(tuple(int(k) for k in doc["word"]), BasePoint.parse(doc["base"]))


# (base kind, (k - i + 1) mod N - 1) -> (image kind, offset from sigma(i)):
# the absorption table above, for T_i applied to the base point of index k.
ABSORPTION = {
    ("P", -1): ("P", 1),
    ("P", 0): ("Q", 1),
    ("P", 1): ("P", -1),
    ("Q", 0): ("Q", 2),
    ("Q", 1): ("P", 0),
    ("Q", 2): ("Q", 0),
}


def absorb_letter(maps: SideIndexMaps, letter: int, base: BasePoint) -> BasePoint | None:
    """Apply the endpoint-absorption table, or None when no rule matches."""
    i = maps.wrap(letter)
    rule = ABSORPTION.get((base.kind, (base.index - i + 1) % maps.n - 1))
    if rule is None:
        return None
    kind, offset = rule
    return BasePoint(kind, maps.wrap(maps.sigma(i) + offset))


def _free_reduce(maps: SideIndexMaps, letters: list[int]) -> list[int]:
    out: list[int] = []
    for k in letters:
        if out and out[-1] == maps.sigma(k):
            out.pop()
        else:
            out.append(k)
    return out


def _absorb_all(maps: SideIndexMaps, letters: list[int], base: BasePoint):
    while letters:
        nxt = absorb_letter(maps, letters[-1], base)
        if nxt is None:
            break
        letters.pop()
        base = nxt
    return letters, base


def simplify(maps: SideIndexMaps, word: GroupWord, deep: bool = False) -> GroupWord:
    """Free-reduce and absorb; with deep=True also apply the vertex relation
    to the innermost letter pair whenever doing so shortens the word."""
    letters = _free_reduce(maps, list(word.letters))
    letters, base = _absorb_all(maps, letters, word.base)
    if deep:
        while len(letters) >= 2:
            y = letters[-1]
            x = letters[-2]
            if maps.wrap(x) != maps.wrap(maps.sigma(y) + 1):
                break
            # T_{sigma(y)+1} T_y = T_{sigma(tau(y))} T_{sigma(tau(sigma(y))+1)}
            x2 = maps.sigma(maps.tau(y))
            y2 = maps.sigma(maps.wrap(maps.tau_sigma(y) + 1))
            probe = absorb_letter(maps, y2, base)
            if probe is None:
                break
            trial = _free_reduce(maps, letters[:-2] + [x2])
            trial, base = _absorb_all(maps, trial, probe)
            letters = trial
    return GroupWord(tuple(letters), base)


def prepend(
    maps: SideIndexMaps, letter: int, word: GroupWord, deep: bool = False
) -> GroupWord:
    return simplify(maps, GroupWord((maps.wrap(letter),) + word.letters, word.base), deep=deep)
