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

derive_system therefore builds the system straight from that offset table
(_offset_rule), in O(s) rows whatever k is, and check_invariance
decides every |A1| = |A2| spec on it: the check holds, and states_seen
counts the states a breadth-first walk of the table meets within the
radius (_offset_states).  For |A1| != |A2|: a vertex's subtree is fixed by
its type (position mod 2(2s+1), last letter), and a step reads only the set
(A0, A1 or A2) of a letter, so one walk of the letter-set quotient of the
types, at most 3*2(2s+1) + 1 of them whatever k is, gives check_invariance's
verdict and states_seen and derive_system's refusal with its two witness
words (_quotient_walk).  Only the violation listing reads the full type
table (cosets.type_table): _compare_types checks each type in it against
the first type of its state, and _violation_walk names the violating words
in ball order, building only the words with a broken type below them within
the radius, and only up to the caller's limit.  Tests check the quotient
walk against the table, and the offset walk's state count against the
quotient walk's, on every letter choice with k <= 5 and s <= 4, and the
offset table symbolically for every k and s.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields

from cayleygibbs.cosets import SubgroupSpec, Type, position, step, type_table
from cayleygibbs.words import (
    IDENTITY,
    Word,
    check_ball_cap,
    check_work,
    word_to_str,
)

StatePair = tuple[int, int]


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

    Records have slots: no ``__dict__`` and no weakrefs.  _violation_walk
    fills each one in place through its slot setters (_VIOLATION_SETTERS),
    skipping the generated ``__init__``.

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


@dataclass(frozen=True)
class InvarianceReport:
    holds: bool
    radius: int
    words_checked: int
    states_seen: int
    violations: tuple[InvarianceViolation, ...]


def check_invariance(spec: SubgroupSpec, radius: int, *, limit: int | None = None) -> InvarianceReport:
    """Test whether successor class profiles depend only on the state pair.

    Equivalent to checking every pair x, y with equal classes and equal
    parent classes of the ball: profiles are compared as multisets of class
    residues, and the first word of each state in ball order stands in for
    x.  With |A1| = |A2| the offset table holds on the whole tree (see the
    module docstring), so the check holds and states_seen counts the states
    within the radius (_offset_states).  Otherwise the verdict and
    states_seen come from the letter-set quotient walk (_quotient_walk), and
    a failing check reads the full type table (_compare_types) and walks the
    words that lead to a broken type (_violation_walk) to list the violating
    words in ball order, at most limit of them, with shared_positions_equal
    the proven constant False.
    """
    if radius < 2:
        raise ValueError(f"radius must be >= 2, got {radius}")
    words_checked = check_ball_cap(spec.k, radius) - 1
    if len(spec.a1) == len(spec.a2):
        return InvarianceReport(True, radius, words_checked, _offset_states(spec, radius), ())
    states, mismatch = _quotient_walk(spec, radius)
    if mismatch is None:
        return InvarianceReport(True, radius, words_checked, len(states), ())
    first, mismatched, (types, _, kids) = _compare_types(spec, radius)
    broken = {i: (*first[st], profile, False) for i, (st, profile) in mismatched.items()}
    violations = _violation_walk(radius, types, kids, broken, limit)
    return InvarianceReport(False, radius, words_checked, len(states), violations)


def _offset_rule(m: int, m0: int) -> dict[int | None, tuple[tuple[int, int], ...]]:
    """The offset table for |A1| = |A2| = m and |A0| = m0, by parent offset.

    A vertex whose parent sits d in {-1, 0, +1} classes from its own has m
    children one class down, m0 at its class and m one class up, one fewer
    at d, its parent's side; the root, d None, loses none.  Maps d to the
    (child offset, count) pairs with a nonzero count.
    """
    return {
        d: tuple((e, c - (e == d)) for e, c in ((-1, m), (0, m0), (1, m)) if c - (e == d))
        for d in (-1, 0, 1, None)
    }


def _offset_states(spec: SubgroupSpec, radius: int) -> int:
    """The number of states (class, parent class) of the words of depth 1 to radius.

    For |A1| = |A2| only: a breadth-first walk of the offset table from the
    root's children, a state kept as (class, parent offset), stopped at the
    radius or at a layer with no new state, so it meets at most 3(2s+1)
    states whatever k is.
    """
    rule, n = _offset_rule(len(spec.a1), spec.a0_size), spec.index
    layer = {(e % n, -e) for e, _ in rule[None]}
    seen = set(layer)
    for _ in range(radius - 1):
        layer = {((r + e) % n, -e) for r, d in layer for e, _ in rule[d]} - seen
        if not layer:
            break
        seen |= layer
    return len(seen)


def _quotient_walk(spec: SubgroupSpec, radius: int) -> tuple[dict, tuple | None]:
    """Compare each quotient type of depth 1 to radius with the first of its state.

    Type (p, X), X the set 0, 1 or 2 of the last letter, has |Y| children,
    one fewer if Y is X, of type ((p + Y's offset) mod 2(2s+1), Y).  Returns
    state -> (class -> count profile, first word) in ball order, and the
    first (state, profile, first word) unlike its state's, or None; a first
    word is a link (parent's link, last letter).  A child takes its set's
    least letter other than the parent's last, and children are queued, and
    profiles built, in that letter order.  In ball order the first word
    with a given sequence of sets takes, at each step, the least letter of
    its set other than the previous one: swapping any other letter for it
    keeps the sets and never moves the word later.  So each state's first
    word, and the first word whose type disagrees with its state, are the
    full type table's, and profile keys come in dict(Counter())'s order over
    the children's classes in letter order.  The walk is O(s) whatever k is.
    """
    n, period = spec.index, 2 * spec.index
    a0 = itertools.islice(itertools.filterfalse((spec.a1 | spec.a2).__contains__, range(1, spec.k + 2)), 2)
    letters = sorted((c, y) for y, least in enumerate((a0, sorted(spec.a1)[:2], sorted(spec.a2)[:2])) for c in least)
    sizes = (spec.a0_size, len(spec.a1), len(spec.a2))
    orders = {}  # last letter -> (letter, set, count) of each child set, in letter order
    for last, at in ((0, None), *letters):
        kids = {}
        for c, y in letters:  # a set whose only letter is the last one has no child
            if c != last and y not in kids:
                kids[y] = (c, y, sizes[y] - (y == at))
        orders[last] = kids.values()
    queue = [(0, None, 0, 0, None)]  # (position, set and letter of the last letter, depth, first word)
    seen, first, mismatch = set(), {}, None
    for p, at, last, depth, link in queue:  # the queue grows as types are met
        if depth > radius:
            break
        moves = ((0, 1, -1), (0, -1, 1))[p & 1]  # how far A0, A1 and A2 move an even, odd position (step)
        profile = {}
        for c, y, count in orders[last]:
            child = ((p + moves[y]) % period, y)
            profile[child[0] % n] = count  # p - 1, p and p + 1 are distinct classes
            if child not in seen:
                seen.add(child)
                queue.append((*child, c, depth + 1, (link, c)))
        if depth:
            st = (p % n, (p + moves[at]) % n)
            if first.setdefault(st, (profile, link))[0] != profile and mismatch is None:
                mismatch = (st, profile, link)
    return first, mismatch


def _word(link: tuple | None) -> Word:
    letters = []
    while link:
        link, c = link
        letters.append(c)
    return tuple(letters[::-1])


def _compare_types(spec: SubgroupSpec, radius: int) -> tuple[dict, dict, tuple]:
    """Compare every type within radius with the first of its state.

    Reads type_table(spec, radius + 1).  Type (p, last) is in state (p,
    step(p, last)) mod 2s+1; its profile is its children's classes in
    letter order.  Returns, in ball order, state -> (first word, profile),
    type id -> (state, profile) for each type whose sorted profile differs
    from its state's first one, and the table.
    """
    n = spec.index
    types, words, kids = table = type_table(spec, radius + 1)
    first: dict[StatePair, tuple[Word, tuple[int, ...]]] = {}
    mismatched: dict[int, tuple[StatePair, tuple[int, ...]]] = {}
    for i in range(1, len(kids)):  # ROOT, id 0, has no state
        p, last = types[i]
        st = (p % n, step(p, last, spec) % n)
        profile = tuple(types[u][0] % n for u in kids[i])
        _, first_profile = first.setdefault(st, (words[i], profile))
        if sorted(profile) != sorted(first_profile):
            mismatched[i] = (st, profile)
    return first, mismatched, table


def _violation_walk(
    radius: int, types: list[Type], kids: list[list[int]], broken: dict[int, tuple], limit: int | None = None
) -> tuple[InvarianceViolation, ...]:
    """The words of the ball whose type id is broken, with their verdicts, in ball order.

    Only the first limit of them are listed, or all when limit is None.

    reach[d] holds the type ids with a broken type among their descendants
    at most d levels below.  A word at depth j is extended only to the
    children whose type is in reach[radius - j - 1], so the walk builds just
    the words on a path to a violation and never the last sphere.  A
    sphere's violations are its words' broken children, in word and then
    letter order, which is ball order.  The walk stops at the limit'th
    record, before the next one or the next sphere is built.  Each record is
    filled in place through the slot setters, bound to locals once per call:
    the frozen class's __init__ sets each field through object.__setattr__
    at about twice the cost.
    """
    new, (set_x, set_y, set_profile_x, set_profile_y, set_shared) = object.__new__, _VIOLATION_SETTERS
    tails = [(last,) for _, last in types]
    bad = [[(tails[u], *broken[u]) for u in row if u in broken] for row in kids]  # (tail, *verdict)
    reach = [set()]
    for _ in range(radius - 1):
        below = broken.keys() | reach[-1]
        reach.append({t for t, row in enumerate(kids) if not below.isdisjoint(row)})

    def walk():
        sphere = [(IDENTITY, 0)]  # (word, type id)
        for inside in reversed(reach):
            for w, t in sphere:
                for tail, rep, rep_profile, profile, shared in bad[t]:
                    v = new(InvarianceViolation)
                    set_x(v, rep)
                    set_y(v, w + tail)
                    set_profile_x(v, rep_profile)
                    set_profile_y(v, profile)
                    set_shared(v, shared)
                    yield v
            sphere = [(w + tails[u], u) for w, t in sphere for u in kids[t] if u in inside]

    return tuple(itertools.islice(walk(), limit))


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

    def row(self, state: StatePair) -> dict[StatePair, int]:
        return {su: n for su, n in zip(self.states, self.counts[self.states.index(state)]) if n}

    def to_json(self) -> str:
        payload = {
            "states": [list(st) for st in self.states],
            "counts": {
                f"{st[0]},{st[1]}": {f"{su[0]},{su[1]}": n for su, n in zip(self.states, row) if n}
                for st, row in zip(self.states, self.counts)
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

    With |A1| != |A2| the system is ill defined: the quotient walk runs,
    after ResourceLimitError if its 3*2(2s+1) + 1 types exceed the vertex
    cap, and IllDefinedSystemError names the first word, in ball order, of
    each of two disagreeing types, whatever k is.
    """
    if spec.k == 1:
        raise ValueError("k = 1 gives a line graph with no branching; unsupported")
    if not spec.is_singleton and not allow_nonsingleton:
        raise ValueError(
            "derivation requires singleton A1 and A2 (pass allow_nonsingleton to probe anyway)"
        )
    m, m0, n = len(spec.a1), spec.a0_size, spec.index
    if m != len(spec.a2):
        check_work(bound := 3 * 2 * n + 1, f"letter-set quotient for s={spec.s} has up to {bound} types")
        first, (st, profile, link) = _quotient_walk(spec, bound)  # no first word is longer than the types
        x, y = (
            f"{word_to_str(_word(w))} gives {dict(((r, st[0]), c) for r, c in p.items())}"
            for p, w in (first[st], (profile, link))
        )
        raise IllDefinedSystemError(
            f"state {st}: {x} but {y}; successor counts depend on the vertex, so the invariance property fails"
        )
    offsets = (-1, 0, 1) if m0 else (-1, 1)
    size = len(offsets) * n
    check_work(
        size * size, f"system for k={spec.k}, s={spec.s} has {size} states, a table of {size * size} counts"
    )
    states = tuple(sorted((r, (r + d) % n) for r in range(n) for d in offsets))
    index = {st: i for i, st in enumerate(states)}
    counts = []
    rule = _offset_rule(m, m0)
    for r, q in states:
        row = [0] * size
        for e, c in rule[(q - r + 1) % n - 1]:
            row[index[(r + e) % n, r]] = c
        counts.append(tuple(row))
    return WeaklyPeriodicSystem(k=spec.k, s=spec.s, states=states, counts=tuple(counts), spec=spec)
