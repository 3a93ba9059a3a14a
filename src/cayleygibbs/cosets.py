"""Odd-index subgroups of the tree group and their coset classes.

A subgroup spec picks two disjoint nonempty generator sets A1, A2 and a level
s >= 1.  Collapsing every A1-letter to the least A1-generator, every A2-letter
to the least A2-generator and dropping the rest is a homomorphism onto the
subgroup generated by those two letters; its images are alternating words.
Words whose image has length divisible by 2s+1 form a subgroup of index 2s+1,
and the left cosets are labeled by a signed length residue: +length for images
starting with the A1 representative, -length for images starting with the A2
representative, taken mod 2s+1.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from cayleygibbs.words import (
    IDENTITY,
    Word,
    check_ball_cap,
    check_work,
    enumerate_ball,
    inverse,
    multiply,
    word_to_str,
)


class SpecError(ValueError):
    """Raised for an invalid subgroup spec."""


@dataclass(frozen=True)
class SubgroupSpec:
    """Parameters (k, s, A1, A2) selecting one odd-index subgroup.

    A1 and A2 must be disjoint nonempty subsets of {1..k+1}; the letters in
    neither set form the residual set A0, which may hold at most k-1 letters.
    """

    k: int
    s: int
    a1: frozenset[int] = field()
    a2: frozenset[int] = field()

    def __init__(self, k: int, s: int, a1: Iterable[int], a2: Iterable[int]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a1", frozenset(a1))
        object.__setattr__(self, "a2", frozenset(a2))
        self._validate()

    def _validate(self) -> None:
        if type(self.k) is not int or type(self.s) is not int:
            raise SpecError(f"k and s must be integers, got k={self.k!r}, s={self.s!r}")
        if self.k < 1:
            raise SpecError(f"k must be >= 1, got {self.k}")
        if self.s < 1:
            raise SpecError(f"s must be >= 1, got {self.s}")
        if not self.a1 or not self.a2:
            raise SpecError("A1 and A2 must both be nonempty")
        letters = (*self.a1, *self.a2)  # compared with 1..k+1, a range never built
        if not all(isinstance(c, numbers.Real) and 1 <= c <= self.k + 1 and c == int(c) for c in letters):
            raise SpecError(f"A1 and A2 must be subsets of 1..{self.k + 1}")
        if any(type(c) is not int for c in letters):
            raise SpecError(
                "A1 and A2 letters must be integers, "
                f"got A1={sorted(self.a1)}, A2={sorted(self.a2)}"
            )
        if self.a1 & self.a2:
            raise SpecError("A1 and A2 must be disjoint")

    @property
    def a0_size(self) -> int:
        return self.k + 1 - len(self.a1) - len(self.a2)

    @property
    def m1(self) -> int:
        return min(self.a1)

    @property
    def m2(self) -> int:
        return min(self.a2)

    @property
    def index(self) -> int:
        """Number of coset classes."""
        return 2 * self.s + 1

    def to_json(self) -> str:
        payload = {
            "k": self.k,
            "s": self.s,
            "A1": sorted(self.a1),
            "A2": sorted(self.a2),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SubgroupSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"bad spec JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise SpecError("spec JSON must be an object")
        missing = {"k", "s", "A1", "A2"} - payload.keys()
        if missing:
            raise SpecError(f"spec JSON missing keys: {sorted(missing)}")
        try:
            return cls(k=payload["k"], s=payload["s"], a1=payload["A1"], a2=payload["A2"])
        except TypeError:
            raise SpecError("spec A1 and A2 must be lists of generator indices") from None


@dataclass(frozen=True)
class CosetLabel:
    """Coset class: residue in 0..2s and its canonical representative word.

    Residue 0 is the subgroup itself (representative e).  Residues 1..s have
    representatives alternating from the A1 letter with that length; residues
    s+1..2s alternate from the A2 letter with length 2s+1-residue.
    """

    residue: int
    rep: Word

    def __str__(self) -> str:
        return f"K{self.residue}[{word_to_str(self.rep)}]"


def _alternating(first: int, second: int, length: int) -> Word:
    return tuple(first if i % 2 == 0 else second for i in range(length))


def class_representative(residue: int, spec: SubgroupSpec) -> Word:
    """Canonical representative word of a coset class."""
    n = spec.index
    if not 0 <= residue < n:
        raise ValueError(f"residue must be in 0..{n - 1}, got {residue}")
    if residue == 0:
        return IDENTITY
    if residue <= spec.s:
        return _alternating(spec.m1, spec.m2, residue)
    return _alternating(spec.m2, spec.m1, n - residue)


def step(p: int, letter: int, spec: SubgroupSpec) -> int:
    """Signed image position after appending one letter.

    The position p of a word is +len(image) when its image starts with the
    A1 generator and -len(image) otherwise; the class is p mod 2s+1.  An A1
    letter extends the alternating image or cancels its last letter, which
    is p ^ 1 for either sign; an A2 letter is the mirror image, and a
    residual letter leaves p alone.  Every letter is an involution, so a
    word's parent sits at the step by the word's last letter.
    """
    if letter in spec.a1:
        return p ^ 1
    if letter in spec.a2:
        return -((-p) ^ 1)
    if 1 <= letter <= spec.k + 1:
        return p
    raise ValueError(f"generator index {letter} out of range 1..{spec.k + 1}")


def position(x: Word, spec: SubgroupSpec) -> int:
    """Signed image position of a word, stepped letter by letter from the root."""
    p = 0
    for c in x:
        p = step(p, c, spec)
    return p


Type = tuple[int, int]  # (position mod 2(2s+1), last letter); see type_table
ROOT: Type = (0, 0)  # the root: position 0, no last letter


def type_table(spec: SubgroupSpec, radius: int) -> tuple[list[Type], list[Word], list[list[int]]]:
    """The types of the ball's words in the ball order of their first words.

    A type (position mod 2(2s+1), last letter) fixes a vertex's subtree: a
    step reads only the parity and class of a position, and the last letter
    is the successor a vertex lacks.  The child by letter c has type
    (step(p, c) mod 2(2s+1), c), and ROOT has one for every letter.  Walked
    breadth-first, children in letter order, so each first word is its
    parent type's plus a letter.  Returns the types and first words by id
    (ROOT is 0) and, for each type whose first word is shorter than radius,
    its child ids in letter order: at most 2(2s+1)(k+1) + 1 rows of k + 1 ids.
    """
    period = 2 * spec.index
    letters = range(1, spec.k + 2)
    sets = [1 if c in spec.a1 else 2 if c in spec.a2 else 0 for c in letters]  # letters of one set step alike
    m1, m2 = spec.m1, spec.m2
    types, words, kids = [ROOT], [IDENTITY], []
    ids = {ROOT: 0}
    for (p, last), word in zip(types, words):  # both lists grow as types are met
        if len(word) >= radius:
            break
        moved = (p, step(p, m1, spec) % period, step(p, m2, spec) % period)
        row = []
        for c, at in zip(letters, sets):
            if c != last:
                child = (moved[at], c)
                if child not in ids:
                    ids[child] = len(types)
                    types.append(child)
                    words.append(word + (c,))
                row.append(ids[child])
        kids.append(row)
    return types, words, kids


def typed_spheres(types: list[Type], kids: list[list[int]], radius: int) -> Iterator[tuple[list[Word], list[int]]]:
    """Spheres 0 to radius of a type_table reaching radius, as (words, type ids) in ball order.

    A word's children are its type's, each the word plus the child's last
    letter, so no word is stepped; one sphere is kept at a time.
    """
    tails = [[(types[u][1],) for u in row] for row in kids]
    words, ids = [IDENTITY], [0]
    yield words, ids
    for _ in range(radius):
        words = [w + tail for w, t in zip(words, ids) for tail in tails[t]]
        ids = [u for t in ids for u in kids[t]]
        yield words, ids


def labelled_ball(spec: SubgroupSpec, radius: int) -> Iterator[tuple[Word, Type]]:
    """Every word of the ball with its type, in ball order; refusals as in enumerate_ball."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    check_ball_cap(spec.k, radius)
    types, _, kids = type_table(spec, radius)
    for words, ids in typed_spheres(types, kids, radius):
        yield from zip(words, [types[i] for i in ids])


def label(x: Word, spec: SubgroupSpec) -> CosetLabel:
    """Coset class of a word, by the signed length residue of its image."""
    residue = position(x, spec) % spec.index
    return CosetLabel(residue, class_representative(residue, spec))


def is_member(x: Word, spec: SubgroupSpec) -> bool:
    """Whether x belongs to the subgroup (class residue 0)."""
    return label(x, spec).residue == 0


def coset_classes(spec: SubgroupSpec, radius: int) -> dict[int, list[Word]]:
    """Partition the ball of the given radius into coset classes.

    Radius must be at least 2s so every class is populated; the result maps
    each residue to its members in ball enumeration order.
    """
    if radius < 2 * spec.s:
        raise ValueError(f"radius must be >= 2s = {2 * spec.s} to populate every class")
    classes: dict[int, list[Word]] = {}  # keyed as met, so the ball cap comes before any class
    for x, (p, _) in labelled_ball(spec, radius):
        classes.setdefault(p % spec.index, []).append(x)
    return dict(sorted(classes.items()))


@dataclass(frozen=True)
class CosetCheckReport:
    """Outcome of the brute-force left-coset and closure verification."""

    passed: bool
    radius: int
    pairs_checked: int
    closure_pairs_checked: int
    first_violation: tuple[Word, Word] | None


def check_cosets(spec: SubgroupSpec, radius: int) -> CosetCheckReport:
    """Verify label classes against the subgroup by direct word arithmetic.

    For every pair x, y in the ball: label(x) == label(y) iff y^-1 x is a
    member, which is the left-coset relation.  Additionally members must be
    closed under x y^-1.  The pair count, ball_size squared, is held to
    the vertex cap: ResourceLimitError is raised before any pair is tried.
    """
    pairs_total = check_ball_cap(spec.k, radius) ** 2
    check_work(pairs_total, f"coset oracle of radius {radius} for k={spec.k} compares {pairs_total} pairs")
    words = list(enumerate_ball(spec.k, radius).vertices())
    residues = [label(x, spec).residue for x in words]
    pairs = 0
    violation = None
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            pairs += 1
            same_coset = is_member(multiply(inverse(y), x), spec)
            if same_coset != (residues[i] == residues[j]):
                violation = (x, y)
                break
        if violation:
            break
    members = [x for i, x in enumerate(words) if residues[i] == 0]
    closure_pairs = 0
    if violation is None:
        for x in members:
            for y in members:
                closure_pairs += 1
                if not is_member(multiply(x, inverse(y)), spec):
                    violation = (x, y)
                    break
            if violation:
                break
    return CosetCheckReport(
        passed=violation is None,
        radius=radius,
        pairs_checked=pairs,
        closure_pairs_checked=closure_pairs,
        first_violation=violation,
    )


def neighbor_counts(x: Word, spec: SubgroupSpec) -> tuple[int, ...]:
    """How many of the k+1 nearest neighbors fall in each coset class; letters of one set step alike.

    The vector has one count per class, 2s+1 of them, held to the vertex cap."""
    check_work(spec.index, f"a neighbor count vector for s={spec.s} has {spec.index} classes")
    p = position(x, spec)
    counts = [0] * spec.index
    for letter, n in ((spec.m1, len(spec.a1)), (spec.m2, len(spec.a2))):
        counts[step(p, letter, spec) % spec.index] += n
    counts[p % spec.index] += spec.a0_size
    return tuple(counts)
