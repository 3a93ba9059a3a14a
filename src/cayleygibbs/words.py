"""Reduced words over a free product of order-2 cyclic groups.

Group elements are tuples of generator indices in 1..k+1 with no two adjacent
indices equal.  Every generator is its own inverse, so inversion is reversal
and multiplication is concatenation with cancellation at the seam.  Vertices
of the regular tree of degree k+1 are identified with these words; the parent
of a nonempty word drops its last letter.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

Word = tuple[int, ...]

IDENTITY: Word = ()

# Cap on the work of one call (check_work); override via CAYLEYGIBBS_MAX_BALL.
MAX_BALL_VERTICES = 10_000_000


class ResourceLimitError(RuntimeError):
    """Raised when a call's work would exceed the vertex cap (check_work)."""


def _check_letters(letters, k: int | None) -> None:
    for c in letters:
        if not isinstance(c, int) or c < 1:
            raise ValueError(f"generator index must be a positive integer, got {c!r}")
        if k is not None and c > k + 1:
            raise ValueError(f"generator index {c} out of range 1..{k + 1}")


def reduce_word(letters, k: int | None = None) -> Word:
    """Cancel adjacent equal letters until none remain."""
    _check_letters(letters, k)
    out: list[int] = []
    for c in letters:
        if out and out[-1] == c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def multiply(x: Word, y: Word) -> Word:
    """Product of two reduced words; cancellation only happens at the seam."""
    i = len(x)
    j = 0
    while i > 0 and j < len(y) and x[i - 1] == y[j]:
        i -= 1
        j += 1
    return x[:i] + y[j:]


def inverse(x: Word) -> Word:
    """Each letter is an involution, so the inverse is the reversal."""
    return x[::-1]


def parent(x: Word) -> Word:
    """Drop the last letter.  The root has no parent."""
    if not x:
        raise ValueError("the root word has no parent")
    return x[:-1]


def successors(x: Word, k: int) -> list[Word]:
    """Children of x in the tree: append any letter other than the last.

    The root has k+1 successors, every other vertex has k.  Ascending
    generator order.
    """
    _check_letters(x, k)
    last = x[-1] if x else 0
    return [x + (i,) for i in range(1, k + 2) if i != last]


def neighborhood(x: Word, k: int) -> list[Word]:
    """All k+1 nearest neighbors x*a_i in ascending generator order.

    For a nonempty word this is the successors plus the parent (at the
    position of the last letter).
    """
    _check_letters(x, k)
    return [multiply(x, (i,)) for i in range(1, k + 2)]


def distance(x: Word, y: Word) -> int:
    """Graph distance between tree vertices: length of x^-1 y."""
    return len(multiply(inverse(x), y))


def sphere_size(k: int, m: int) -> int:
    """Number of words of length exactly m."""
    if m == 0:
        return 1
    return (k + 1) * k ** (m - 1)


def ball_size(k: int, radius: int) -> int:
    return sum(sphere_size(k, m) for m in range(radius + 1))


@dataclass(frozen=True)
class Ball:
    """All words of length <= radius, grouped into spheres by length."""

    k: int
    radius: int
    spheres: tuple[tuple[Word, ...], ...]

    def vertices(self) -> Iterator[Word]:
        for sphere in self.spheres:
            yield from sphere

    def __len__(self) -> int:
        return sum(len(sphere) for sphere in self.spheres)


def _vertex_cap() -> int:
    env = os.environ.get("CAYLEYGIBBS_MAX_BALL", str(MAX_BALL_VERTICES))
    if not env.strip().isdigit() or int(env) < 1:
        raise ValueError(f"CAYLEYGIBBS_MAX_BALL must be a positive integer, got {env!r}")
    return int(env)


def check_work(count: int, what: str) -> int:
    """Return count; over the vertex cap, ResourceLimitError reads "{what}, cap is {cap}"."""
    cap = _vertex_cap()
    if count > cap:
        raise ResourceLimitError(f"{what}, cap is {cap}")
    return count


def check_ball_cap(k: int, radius: int) -> int:
    """The number of words of length <= radius; refuses a ball over the vertex cap.

    Spheres are summed only until the cap is passed, at most cap.bit_length()
    of them for k >= 2 (each at least doubles); k = 1, the line, is 2*radius + 1.
    The cap is read once, and the refusal reads as check_work's."""
    cap = _vertex_cap()
    total, m = (2 * radius + 1, radius) if k == 1 else (1, 0)
    while m < radius and total <= cap:
        m += 1
        total += sphere_size(k, m)
    if total > cap:
        counted = total if m == radius else f"more than {cap}"
        raise ResourceLimitError(f"ball of radius {radius} for k={k} has {counted} vertices, cap is {cap}")
    return total


def enumerate_ball(k: int, radius: int) -> Ball:
    """Breadth-first enumeration of all words of length <= radius.

    Spheres come out in lexicographic order because parents are visited in
    lexicographic order and children are appended in ascending generator
    order.  Refuses to build more than the vertex cap.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    check_ball_cap(k, radius)
    spheres: list[tuple[Word, ...]] = [(IDENTITY,)]
    frontier: list[Word] = [IDENTITY]
    for _ in range(radius):
        nxt: list[Word] = []
        for w in frontier:
            last = w[-1] if w else 0
            for i in range(1, k + 2):
                if i != last:
                    nxt.append(w + (i,))
        spheres.append(tuple(nxt))
        frontier = nxt
    return Ball(k=k, radius=radius, spheres=tuple(spheres))


def word_to_str(x: Word) -> str:
    """Serialize a word: "a1.a2.a3" with "e" for the identity."""
    if not x:
        return "e"
    return ".".join(f"a{c}" for c in x)


def word_from_str(text: str, k: int | None = None) -> Word:
    """Parse "a1.a2.a3" or "e"; the result must already be reduced."""
    text = text.strip()
    if text == "e" or text == "":
        return IDENTITY
    letters = []
    for part in text.split("."):
        part = part.strip()
        if not part.startswith("a") or not part[1:].isdigit():
            raise ValueError(f"bad word syntax: {text!r} (expected e.g. 'a1.a2')")
        letters.append(int(part[1:]))
    word = tuple(letters)
    _check_letters(word, k)
    if reduce_word(word, k) != word:
        raise ValueError(f"word {text!r} is not reduced")
    return word
