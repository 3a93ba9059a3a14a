"""Successor-profile invariance and derivation of weakly periodic systems.

The load-bearing fact: when |A1| = |A2|, singletons included, the coset
classes of a vertex's successors are determined by the pair (class of the
vertex, class of its parent).  That makes the successor-class counts per
state pair well defined, which is exactly the coefficient table of the
weakly periodic field equations.

From position p (see cosets.step) the A1 letters step to p+1 and the A2
letters to p-1 when p is even, and the reverse when p is odd; the class
p mod 2s+1 does not fix that parity.  With |A1| = |A2| = m and |A0| = m0,
a vertex at class r whose parent sits at class r+d (d in {-1, 0, +1}) has,
for either parity, m children at r-1, m at r+1 and m0 at r, less the one
at r+d, its parent's side.  With |A1| != |A2| the two parities give
different profiles for one state; the checker reports the witnesses and the
derivation refuses to certify.

derive_system therefore builds the system straight from that offset table,
in O(s) rows whatever k is.  Only a refusal walks the types: a vertex's
subtree is fixed by its type (position mod 2(2s+1), last letter), and the
reachable types are finite.  One comparison (_compare_types) walks the
types breadth-first (_type_walk), meeting each first at its first word in
ball order, and compares each type's successor profile with the first of
its state; a refusal names the first words of two disagreeing types.
check_invariance makes the same comparison, stopped at the radius; only
when some type disagrees does it walk the words (_violation_walk), as
(word, type) pairs looked up in the child lists, to name the violating
words in ball order.  Tests check the table against the uncut walk on every
letter choice with k <= 5 and s <= 4, and symbolically for every k and s.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, fields
from typing import Iterator

from cayleygibbs.cosets import SubgroupSpec, position, step
from cayleygibbs.words import (
    IDENTITY,
    Word,
    check_ball_cap,
    check_work,
    word_to_str,
)

StatePair = tuple[int, int]
Type = tuple[int, int]  # (position mod 2(2s+1), last letter); see _type_walk
ROOT: Type = (0, 0)  # the root: position 0, no last letter


class IllDefinedSystemError(RuntimeError):
    """Successor counts differed between representatives of one state."""


def state_of(x: Word, spec: SubgroupSpec) -> StatePair:
    """(class of x, class of its parent); undefined for the root."""
    if not x:
        raise ValueError("the root word has no parent, so no state")
    p = position(x, spec)
    return (p % spec.index, step(p, x[-1], spec) % spec.index)


@dataclass(frozen=True, slots=True)
class InvarianceViolation:
    """Two words of one state whose successor class profiles differ.

    Records have slots: no ``__dict__`` and no weakrefs.  check_invariance
    fills them through _violation, which skips the generated ``__init__``.

    ``shared_positions_equal`` tells whether the neighbour classes agree at
    every letter neither word ends in.  It is always False.  Two words of
    one state at positions of equal parity sit at equal positions mod
    2(2s+1) and have equal profiles, so a violation puts them at opposite
    parities.  It also needs |A1| != |A2|, so A1 and A2 hold at least three
    letters, one of which neither word ends in, and that letter steps the
    two words to opposite sides of their class.  check_invariance therefore
    stores the constant False; the test oracles compute the flag word by
    word and are compared with it.
    """

    x: Word
    y: Word
    profile_x: tuple[int, ...]
    profile_y: tuple[int, ...]
    shared_positions_equal: bool


# The setters of InvarianceViolation's slot descriptors, in field order.
_VIOLATION_SETTERS = tuple(getattr(InvarianceViolation, f.name).__set__ for f in fields(InvarianceViolation))
_set_x, _set_y, _set_profile_x, _set_profile_y, _set_shared = _VIOLATION_SETTERS


def _violation(x, y, profile_x, profile_y, shared_positions_equal) -> InvarianceViolation:
    """InvarianceViolation(x, y, ...), built without the generated __init__.

    The frozen class's __init__ sets each field through
    object.__setattr__; writing the slots through their descriptors gives
    the same record at about half the cost.
    """
    v = object.__new__(InvarianceViolation)
    _set_x(v, x)
    _set_y(v, y)
    _set_profile_x(v, profile_x)
    _set_profile_y(v, profile_y)
    _set_shared(v, shared_positions_equal)
    return v


@dataclass(frozen=True)
class InvarianceReport:
    holds: bool
    radius: int
    words_checked: int
    states_seen: int
    violations: tuple[InvarianceViolation, ...]


def check_invariance(spec: SubgroupSpec, radius: int) -> InvarianceReport:
    """Test whether successor class profiles depend only on the state pair.

    Equivalent to checking every pair x, y with equal classes and equal
    parent classes of the ball: profiles are compared as multisets of class
    residues, and the first word of each state in ball order stands in for
    x.  A word's state and profile are fixed by its type, and so is the
    first word of its state, so each type within the radius is compared
    once (_compare_types).  Only when some type disagrees are the words
    walked (_violation_walk), to list the violating words in ball order,
    each with the proven constant False as shared_positions_equal.
    """
    if radius < 2:
        raise ValueError(f"radius must be >= 2, got {radius}")
    words_checked = check_ball_cap(spec.k, radius) - 1
    first, mismatched, children = _compare_types(spec, radius)
    broken = {t: (*first[st], profile, False) for t, (st, _, profile) in mismatched.items()}
    violations = _violation_walk(radius, children, broken) if broken else ()
    return InvarianceReport(
        holds=not violations,
        radius=radius,
        words_checked=words_checked,
        states_seen=len(first),
        violations=violations,
    )


def _compare_types(spec: SubgroupSpec, radius: int | None = None) -> tuple[dict, dict, dict]:
    """Compare every type's successor profile with the first of its state.

    Walks the types with first words up to length radius, or all of them.
    Type (p, last) is in state (p, step(p, last)) mod 2s+1; its profile is
    its children's classes in letter order.  Returns, in ball order: state
    -> (first word, profile); type -> (state, first word, profile) for each
    type whose sorted profile differs from its state's first one; and the
    child types of the root and of every type walked.
    """
    n = spec.index
    first: dict[StatePair, tuple[Word, tuple[int, ...]]] = {}
    mismatched: dict[Type, tuple[StatePair, Word, tuple[int, ...]]] = {}
    walk = _type_walk(spec)
    root, _, kids = next(walk)  # the root has no state
    children = {root: kids}
    for t, x, kids in walk:
        if radius is not None and len(x) > radius:
            break
        children[t] = kids
        p, last = t
        st = (p % n, step(p, last, spec) % n)
        profile = tuple(q % n for q, _ in kids)
        _, first_profile = first.setdefault(st, (x, profile))
        if sorted(profile) != sorted(first_profile):
            mismatched[t] = (st, x, profile)
    return first, mismatched, children


def _violation_walk(
    radius: int,
    children: dict[Type, list[Type]],
    broken: dict[Type, tuple],
) -> tuple[InvarianceViolation, ...]:
    """Every word of the ball whose type is broken, in ball order.

    children maps the root and every type met within the radius to its
    children's types, so it covers the children of every word inside the
    radius.  The ball is walked sphere by sphere as (word, type) pairs,
    keeping one sphere; a child's type, and so its verdict, is looked up,
    so no word is stepped.  A sphere's violations are its parents' broken
    children, in parent order and then letter order, which is ball order;
    the last sphere is never built, only its violating words.
    """
    # Per type, by id (the root is 0): the one-letter tails of its
    # children, their type ids, and (tail, *verdict) per broken child.
    ids = {t: i for i, t in enumerate(children)}
    tails = [[(u[1],) for u in kids] for kids in children.values()]
    kid_ids = [[ids.get(u) for u in kids] for kids in children.values()]  # None past the radius
    bad = [[((u[1],), *broken[u]) for u in kids if u in broken] for kids in children.values()]
    violations: list[InvarianceViolation] = []
    words: list[Word] = [IDENTITY]
    word_types = [0]
    for depth in range(1, radius + 1):
        violations += [
            _violation(rep, w + tail, rep_profile, profile, shared)
            for w, t in zip(words, word_types)
            for tail, rep, rep_profile, profile, shared in bad[t]
        ]
        if depth < radius:
            words = [w + tail for w, t in zip(words, word_types) for tail in tails[t]]
            word_types = [u for t in word_types for u in kid_ids[t]]
    return tuple(violations)


def _type_walk(spec: SubgroupSpec) -> Iterator[tuple[Type, Word, list[Type]]]:
    """The root and every type reachable from it, with first words and child types.

    Each type comes with its first word in ball order and its children's
    types in letter order.  A type is (position mod 2(2s+1), last letter): a step reads only the
    parity and the class of the position, and the last letter is the one
    successor a vertex lacks.  The child by letter c sits at step(p, c), so
    its type is that position mod 2(2s+1) and c; the root, ROOT, has a
    child for every letter.  Breadth-first from the root, with children in
    ascending letter order, types come out in the ball order of their first
    words, and each word is its parent type's word plus a letter.  There
    are at most 2(2s+1)(k+1) types besides the root.
    """
    period = 2 * spec.index
    letters = range(1, spec.k + 2)
    first = {ROOT: IDENTITY}
    queue = deque(first)
    while queue:
        t = queue.popleft()
        p, last = t
        kids = []
        for c in letters:
            if c != last:
                child = (step(p, c, spec) % period, c)
                kids.append(child)
                if child not in first:
                    first[child] = first[t] + (c,)
                    queue.append(child)
        yield t, first[t], kids


@dataclass(frozen=True)
class WeaklyPeriodicSystem:
    """States (class, parent class) with successor-class-count rows.

    ``counts[i][j]`` is how many successors of a vertex in ``states[i]``
    land in ``states[j]``.  Rows sum to k.
    """

    k: int
    s: int
    states: tuple[StatePair, ...]
    counts: tuple[tuple[int, ...], ...]
    spec: SubgroupSpec | None = None

    def state_index(self, state: StatePair) -> int:
        return self.states.index(state)

    def row(self, state: StatePair) -> dict[StatePair, int]:
        i = self.state_index(state)
        return {
            self.states[j]: n for j, n in enumerate(self.counts[i]) if n
        }

    def to_json(self) -> str:
        payload = {
            "states": [list(st) for st in self.states],
            "counts": {
                f"{st[0]},{st[1]}": {
                    f"{su[0]},{su[1]}": n for su, n in self.row(st).items()
                }
                for st in self.states
            },
            "k": self.k,
            "s": self.s,
        }
        if self.spec is not None:
            payload["spec"] = json.loads(self.spec.to_json())
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "WeaklyPeriodicSystem":
        """Parse a system file, rejecting malformed input with ValueError.

        Every state must be a pair of classes in 0..2s, every count a
        non-negative integer between listed states, and every row must sum
        to k.  The subgroup spec is read back when the file carries one.
        A dense counts table, (number of states)^2, over the vertex cap is
        refused before it is built, as derive_system refuses it.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict) or not {"states", "counts", "k", "s"} <= payload.keys():
            raise ValueError("system JSON must be an object with keys states, counts, k, s")
        k, s = payload["k"], payload["s"]
        if not (_is_int(k) and k >= 1 and _is_int(s) and s >= 1):
            raise ValueError(f"system k and s must be positive integers, got k={k!r}, s={s!r}")
        spec = None
        if "spec" in payload:
            spec = SubgroupSpec.from_json(json.dumps(payload["spec"]))
            if (spec.k, spec.s) != (k, s):
                raise ValueError(f"system spec has k={spec.k}, s={spec.s}; the system has k={k}, s={s}")
        if not isinstance(payload["states"], list) or not payload["states"]:
            raise ValueError("system states must be a nonempty list")
        classes = 2 * s + 1
        states = tuple(_parse_state(st, classes) for st in payload["states"])
        index = {st: i for i, st in enumerate(states)}
        if len(index) != len(states):
            raise ValueError("system states must not repeat")
        size = len(states)
        check_work(size * size, f"system for k={k}, s={s} has {size} states, a table of {size * size} counts")
        counts = [[0] * size for _ in states]
        if not isinstance(payload["counts"], dict):
            raise ValueError("system counts must be an object of rows")
        for key, row in payload["counts"].items():
            i = _state_index(index, key, classes)
            if not isinstance(row, dict):
                raise ValueError(f"row of state {key!r} must be an object")
            for target, n in row.items():
                if not _is_int(n) or n < 0:
                    raise ValueError(f"count {key} -> {target} is {n!r}, not a non-negative integer")
                counts[i][_state_index(index, target, classes)] = n
        for st, row in zip(states, counts):
            if sum(row) != k:
                raise ValueError(f"row of state {st} sums to {sum(row)}, expected k={k}")
        return cls(
            k=k,
            s=s,
            states=states,
            counts=tuple(tuple(r) for r in counts),
            spec=spec,
        )


def _is_int(value: object) -> bool:
    """A JSON integer; bool is an int subclass and does not count."""
    return type(value) is int


def _parse_state(value: object, n: int) -> StatePair:
    """A state, [i, j] in the state list or "i,j" as a counts key, classes in 0..n-1."""
    pair = value
    if isinstance(value, str):
        pair = [int(p) if p.strip().isdigit() else p for p in value.split(",")]
    if isinstance(pair, list) and len(pair) == 2 and all(_is_int(c) and 0 <= c < n for c in pair):
        return tuple(pair)
    raise ValueError(f"bad state {value!r}: expected two classes in 0..{n - 1}")


def _state_index(index: dict[StatePair, int], key: object, n: int) -> int:
    st = _parse_state(key, n)
    if st not in index:
        raise ValueError(f"unknown state {key!r}: not in the system's states")
    return index[st]


def derive_system(spec: SubgroupSpec, allow_nonsingleton: bool = False) -> WeaklyPeriodicSystem:
    """Derive the weakly periodic system from the offset table.

    With |A1| = |A2| = m and |A0| = m0 the states are (r, r+d) mod 2s+1
    for every class r, with d = -1 and +1, and d = 0 when A0 is nonempty.
    The row of (r, r+d) counts m children at r-1, m at r+1 and m0 at r, one
    fewer at r+d, each in state (child class, r).  The table holds on the
    whole infinite tree (see the module docstring), so no type is walked.
    When (number of states)^2, the size of the dense counts table, exceeds
    the vertex cap, ResourceLimitError is raised before any state is built.

    With |A1| != |A2| the system is ill defined: the uncut type walk
    (_compare_types) runs, after ResourceLimitError if its bound of
    (k+1)*2(2s+1)*k steps exceeds the vertex cap, and IllDefinedSystemError
    names the first word, in ball order, of each of two disagreeing types.
    """
    if spec.k == 1:
        raise ValueError("k = 1 gives a line graph with no branching; unsupported")
    if not spec.is_singleton and not allow_nonsingleton:
        raise ValueError(
            "derivation requires singleton A1 and A2 (pass allow_nonsingleton to probe anyway)"
        )
    m, m0, n = len(spec.a1), spec.a0_size, spec.index
    if m != len(spec.a2):
        steps = (spec.k + 1) * 2 * n * spec.k
        check_work(steps, f"type automaton for k={spec.k}, s={spec.s} takes up to {steps} steps")
        first, mismatched, _ = _compare_types(spec)
        st, word, profile = next(iter(mismatched.values()))
        rows = [dict(Counter((r, st[0]) for r in p)) for p in (first[st][1], profile)]
        raise IllDefinedSystemError(
            f"state {st}: {word_to_str(first[st][0])} gives {rows[0]} "
            f"but {word_to_str(word)} gives {rows[1]}; successor counts "
            "depend on the vertex, so the invariance property fails"
        )
    offsets = (-1, 0, 1) if m0 else (-1, 1)
    size = len(offsets) * n
    check_work(
        size * size, f"system for k={spec.k}, s={spec.s} has {size} states, a table of {size * size} counts"
    )
    states = tuple(sorted((r, (r + d) % n) for r in range(n) for d in offsets))
    index = {st: i for i, st in enumerate(states)}
    counts = []
    for r, q in states:
        row = [0] * size
        for e, c in ((-1, m), (0, m0), (1, m)):
            child = (r + e) % n
            c -= child == q  # one fewer on the parent's side
            if c:  # with A0 empty, (r, r) is no state and gets no children
                row[index[child, r]] = c
        counts.append(tuple(row))
    return WeaklyPeriodicSystem(k=spec.k, s=spec.s, states=states, counts=tuple(counts), spec=spec)
