import dataclasses
import json
import pickle
import random
import re
from collections import Counter
from itertools import combinations

import oracles
import pytest
from oracles import check_class_counts, matches_reference, reference_counts, successor_labels

from cayleygibbs import cosets, invariance, words
from cayleygibbs.cosets import SubgroupSpec, label
from cayleygibbs.invariance import (
    IllDefinedSystemError,
    InvarianceReport,
    InvarianceViolation,
    WeaklyPeriodicSystem,
    check_invariance,
    derive_system,
    state_of,
)
from cayleygibbs.words import (
    IDENTITY,
    ResourceLimitError,
    ball_size,
    enumerate_ball,
    parent,
    successors,
    word_from_str,
    word_to_str,
)

STANDARD = SubgroupSpec(k=2, s=1, a1={1}, a2={2})
SPLIT = SubgroupSpec(k=2, s=1, a1={1, 3}, a2={2})
PAIRS = SubgroupSpec(k=3, s=1, a1={1, 2}, a2={3, 4})  # non-singleton, |A1| = |A2|


# === successor profiles ===


def test_successor_labels_of_witness_words():
    x = word_from_str("a2.a1.a2")
    y = word_from_str("a1.a3")
    assert label(x, SPLIT) == label(y, SPLIT)
    assert label(parent(x), SPLIT) == label(parent(y), SPLIT)
    profile_x = successor_labels(x, SPLIT)
    profile_y = successor_labels(y, SPLIT)
    assert [lab.rep for lab in profile_x] == [(2,), (2,)]
    assert [lab.rep for lab in profile_y] == [(1,), (2,)]


def test_state_of():
    assert state_of((1,), STANDARD) == (1, 0)
    assert state_of((1, 2), STANDARD) == (2, 1)
    assert state_of((1, 3), STANDARD) == (1, 1)
    for spec in (STANDARD, SPLIT, PAIRS):
        for x in enumerate_ball(spec.k, 4).vertices():
            if x != IDENTITY:
                assert state_of(x, spec) == (label(x, spec).residue, label(parent(x), spec).residue)
    with pytest.raises(ValueError):
        state_of(IDENTITY, STANDARD)


# === invariance dichotomy ===


def test_invariance_holds_for_singleton_specs():
    for k in (2, 3):
        for s in (1, 2):
            spec = SubgroupSpec(k=k, s=s, a1={1}, a2={2})
            report = check_invariance(spec, radius=5)
            assert report.holds, report.violations[:2]
            assert report.states_seen == 3 * (2 * s + 1)


def test_invariance_holds_for_shifted_singletons():
    report = check_invariance(SubgroupSpec(k=3, s=1, a1={3}, a2={2}), radius=5)
    assert report.holds


def test_invariance_fails_for_split_spec():
    report = check_invariance(SPLIT, radius=4)
    assert not report.holds
    witness = {word_from_str("a2.a1.a2"), word_from_str("a1.a3")}
    assert any({v.x, v.y} == witness for v in report.violations)
    bad = next(v for v in report.violations if {v.x, v.y} == witness)
    assert sorted(bad.profile_x) != sorted(bad.profile_y)


def relabelling_walk(spec, radius):
    """Test oracle: label every word and every successor from the root.

    Returns (states seen, violations as (x, y, profile_x, profile_y,
    shared_positions_equal)), comparing each word with the first word of
    its state.
    """
    first = {}
    violations = []
    for x in enumerate_ball(spec.k, radius).vertices():
        if x == IDENTITY:
            continue
        st = (label(x, spec).residue, label(parent(x), spec).residue)
        profile = tuple(label(y, spec).residue for y in successors(x, spec.k))
        if st not in first:
            first[st] = (x, profile)
            continue
        rep, rep_profile = first[st]
        if sorted(profile) != sorted(rep_profile):
            shared = all(
                label(rep + (i,), spec) == label(x + (i,), spec)
                for i in range(1, spec.k + 2)
                if i not in (rep[-1], x[-1])
            )
            violations.append((rep, x, rep_profile, profile, shared))
    return len(first), violations


def ball_rows(spec, radius):
    """Test oracle: successor-state counts of every ball word, by state.

    Labels every word and every successor from the root, as
    relabelling_walk does; each state maps to one Counter per word.
    """
    rows = {}
    for x in enumerate_ball(spec.k, radius).vertices():
        if x == IDENTITY:
            continue
        own = label(x, spec).residue
        st = (own, label(parent(x), spec).residue)
        counts = Counter((label(y, spec).residue, own) for y in successors(x, spec.k))
        rows.setdefault(st, []).append(counts)
    return rows


def assert_ball_certifies(system, spec, radius):
    """The ball holds exactly the derived states, each with >= 3 words giving its row."""
    rows = ball_rows(spec, radius)
    assert set(rows) == set(system.states)
    for st in system.states:
        assert len(rows[st]) >= 3, st
        assert all(dict(counts) == system.row(st) for counts in rows[st]), st


SPLIT_K3 = SubgroupSpec(k=3, s=2, a1={1, 3}, a2={2})  # A0 = {4}: classes agree at that letter


@pytest.mark.parametrize("spec", [PAIRS, SPLIT, SPLIT_K3], ids=["pairs", "split", "split-k3"])
def test_invariance_matches_relabelling_oracle(spec):
    states_seen, expected = relabelling_walk(spec, radius=6)
    report = check_invariance(spec, radius=6)
    got = [
        (v.x, v.y, v.profile_x, v.profile_y, v.shared_positions_equal)
        for v in report.violations
    ]
    assert report.states_seen == states_seen
    assert got == expected
    assert report.holds == (not expected)
    assert bool(expected) == (spec is not PAIRS)
    # Differing profiles put the two words at opposite parities, and an A1 or
    # A2 letter neither ends in sends them to opposite sides: never all equal.
    assert not any(v.shared_positions_equal for v in report.violations)


def letter_choices(k):
    """Every (A1, A2) of disjoint nonempty letter sets; |A0| <= k-1 follows."""
    letters = range(1, k + 2)
    for n1 in range(1, k + 1):
        for a1 in combinations(letters, n1):
            rest = [c for c in letters if c not in a1]
            for n2 in range(1, len(rest) + 1):
                for a2 in combinations(rest, n2):
                    yield set(a1), set(a2)


ORACLE_RADIUS = {2: 8, 3: 5, 4: 4}


def test_invariance_matches_word_by_word_oracle_on_every_small_spec():
    specs = [
        SubgroupSpec(k=k, s=s, a1=a1, a2=a2)
        for k in ORACLE_RADIUS
        for s in (1, 2)
        for a1, a2 in letter_choices(k)
    ]
    assert len(specs) == 484
    broken = 0
    for spec in specs:
        report = check_invariance(spec, ORACLE_RADIUS[spec.k])
        assert report == oracles.check_invariance(spec, ORACLE_RADIUS[spec.k]), spec
        broken += not report.holds
    assert broken == 336


def test_invariance_matches_word_by_word_oracle_where_the_radius_cuts_types():
    # s = 3 at the radii above, then radii 2, 3 and 5 on every letter choice
    # of k <= 3 and on every sixth of k = 4.  Below the depth at which every
    # type is reached, states_seen counts only the states the ball holds.
    cases = [
        (SubgroupSpec(k=k, s=3, a1=a1, a2=a2), ORACLE_RADIUS[k])
        for k in ORACLE_RADIUS
        for a1, a2 in letter_choices(k)
    ]
    for k in ORACLE_RADIUS:
        choices = list(letter_choices(k))[:: 6 if k == 4 else 1]
        for s in (1, 2, 3):
            for a1, a2 in choices:
                spec = SubgroupSpec(k=k, s=s, a1=a1, a2=a2)
                cases += [(spec, radius) for radius in (2, 3, 5)]
    assert len(cases) == 242 + 3 * 3 * (12 + 50 + 30)
    seen = {}
    for spec, radius in cases:
        report = check_invariance(spec, radius)
        assert report == oracles.check_invariance(spec, radius), (spec, radius)
        seen[spec, radius] = report.states_seen
    assert any(seen[spec, 2] < seen[spec, 5] for spec, radius in cases if radius == 2)


def refuse_ball_walks(monkeypatch):
    """Make every name a ball or a per-word labelling can be reached by raise."""

    def refuse(*args):
        raise AssertionError("the ball was built or its words were labelled")

    for module, name in [
        (words, "enumerate_ball"),
        (cosets, "enumerate_ball"),
        (cosets, "labelled_ball"),
    ]:
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize(
    "spec, radius",
    [
        (SubgroupSpec(k=4, s=2, a1={1}, a2={3}), 6),
        (SubgroupSpec(k=3, s=2, a1={1, 2}, a2={3, 4}), 7),
    ],
    ids=["k4-single", "k3-pairs"],
)
def test_holding_spec_walks_no_words(monkeypatch, spec, radius):
    def refuse(*args):
        raise AssertionError("a holding spec walked the words")

    refuse_ball_walks(monkeypatch)
    monkeypatch.setattr(invariance, "_violation_walk", refuse)
    report = check_invariance(spec, radius)
    assert report.holds
    assert report.words_checked == ball_size(spec.k, radius) - 1


def test_breaking_spec_walks_the_ball_once(monkeypatch):
    expected = oracles.check_invariance(SPLIT, 6)
    radii = []
    walk = invariance._violation_walk

    def counted(radius, *args):
        radii.append(radius)
        return walk(radius, *args)

    refuse_ball_walks(monkeypatch)
    monkeypatch.setattr(invariance, "_violation_walk", counted)
    report = check_invariance(SPLIT, radius=6)
    assert not report.holds
    assert radii == [6]
    assert report == expected


def test_holding_spec_over_the_ball_cap_raises(monkeypatch):
    spec = SubgroupSpec(k=4, s=2, a1={1}, a2={3})
    assert ball_size(4, 6) == 6826
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "6825")
    with pytest.raises(ResourceLimitError, match="^ball of radius 6 for k=4 has 6826 vertices, cap is 6825$"):
        check_invariance(spec, 6)
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "abc")
    with pytest.raises(ValueError, match="CAYLEYGIBBS_MAX_BALL must be a positive integer, got 'abc'"):
        check_invariance(spec, 6)
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "6826")
    assert check_invariance(spec, 6).holds


def test_derive_over_the_vertex_cap_raises(monkeypatch):
    # the dense table of the nine-state system has 9 * 9 = 81 counts
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "80")
    with pytest.raises(ResourceLimitError, match="^system for k=2, s=1 has 9 states, a table of 81 counts, cap is 80$"):
        derive_system(STANDARD)
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "81")
    assert len(derive_system(STANDARD).states) == 9


def test_system_file_over_the_vertex_cap_raises(monkeypatch):
    # from_json refuses exactly the tables derive_system refuses, so every
    # file derive writes loads: at the default cap, up to 3159 states (s = 526)
    text = derive_system(STANDARD).to_json()
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "80")
    with pytest.raises(ResourceLimitError, match="^system for k=2, s=1 has 9 states, a table of 81 counts, cap is 80$"):
        WeaklyPeriodicSystem.from_json(text)
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "81")
    assert WeaklyPeriodicSystem.from_json(text) == derive_system(STANDARD)


def test_derive_refusal_over_the_vertex_cap_raises(monkeypatch):
    # only a refusal walks the letter-set quotient: up to 3 * 2(2s+1) + 1 = 19 types at s=1, whatever k is
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "18")
    with pytest.raises(ResourceLimitError, match="^letter-set quotient for s=1 has up to 19 types, cap is 18$"):
        derive_system(SPLIT, allow_nonsingleton=True)
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "19")
    with pytest.raises(IllDefinedSystemError):
        derive_system(SPLIT, allow_nonsingleton=True)


@pytest.mark.parametrize(
    "spec, radius",
    [
        (SubgroupSpec(k=2, s=1, a1={1, 3}, a2={2}), 11),
        (SubgroupSpec(k=2, s=2, a1={2}, a2={3}), 11),
        (SubgroupSpec(k=3, s=1, a1={1, 2}, a2={3}), 7),
        (SubgroupSpec(k=3, s=2, a1={1, 2}, a2={3, 4}), 7),
        (SubgroupSpec(k=4, s=2, a1={1}, a2={3}), 6),
        (SubgroupSpec(k=4, s=1, a1={1, 2, 5}, a2={4}), 6),
    ],
    ids=["k2-split", "k2-single", "k3-split", "k3-pairs", "k4-single", "k4-triple"],
)
def test_invariance_matches_word_by_word_oracle_at_workload_radii(spec, radius):
    report = check_invariance(spec, radius)
    assert report == oracles.check_invariance(spec, radius)
    assert report.holds == (len(spec.a1) == len(spec.a2))


WORKLOAD_RADIUS = {2: 11, 3: 7, 4: 6}


def refute_groups():
    """The first spec of each (k, s, |A0|, |A1|, |A2|) group with a non-singleton A1 or A2."""
    groups = {}
    for k in WORKLOAD_RADIUS:
        for s in (1, 2):
            for a1, a2 in letter_choices(k):
                if len(a1) > 1 or len(a2) > 1:
                    kind = (k, s, k + 1 - len(a1) - len(a2), len(a1), len(a2))
                    groups.setdefault(kind, SubgroupSpec(k=k, s=s, a1=a1, a2=a2))
    return list(groups.values())


def test_invariance_matches_word_by_word_oracle_on_every_refute_group():
    # The grids above stop at radii 8/5/4; these are the benchmark's radii,
    # where the last spheres hold most of the violations.
    specs = refute_groups()
    assert len(specs) == 32
    broken = 0
    for spec in specs:
        radius = WORKLOAD_RADIUS[spec.k]
        report = check_invariance(spec, radius)
        expected = oracles.check_invariance(spec, radius)
        assert pickle.loads(pickle.dumps(report)) == pickle.loads(pickle.dumps(expected)) == report, spec
        broken += not report.holds
    assert broken == 28  # every group but |A1| = |A2| = 2 at k = 3, 4 and s = 1, 2


def assert_same_records(got, expected):
    """The same records in the same order, each of the same type, repr and hash."""
    assert type(got) is tuple
    assert [type(v) for v in got] == [InvarianceViolation] * len(expected)
    assert [repr(v) for v in got] == [repr(v) for v in expected]
    assert [hash(v) for v in got] == [hash(v) for v in expected]
    assert got == expected


def broken_types(spec, radius):
    """The arguments check_invariance passes to _violation_walk, for any spec."""
    first, mismatched, (types, words, kids) = invariance._compare_types(spec, radius)
    broken = {i: (*first[st], profile, False) for i, (st, profile) in mismatched.items()}
    return types, words, kids, broken


PRUNING_RADII = {2: range(2, 9), 3: range(2, 6), 4: range(2, 5)}


def test_pruned_walk_matches_the_sphere_walk_on_every_small_spec():
    cases = [
        (SubgroupSpec(k=k, s=s, a1=a1, a2=a2), radius)
        for k, radii in PRUNING_RADII.items()
        for s in (1, 2, 3)
        for a1, a2 in letter_choices(k)
        for radius in radii
    ]
    cases += [(spec, WORKLOAD_RADIUS[spec.k]) for spec in refute_groups()]
    assert len(cases) == 3 * (12 * 7 + 50 * 4 + 180 * 3) + 32
    listed = 0
    for spec, radius in cases:
        types, _, kids, broken = broken_types(spec, radius)
        got = invariance._violation_walk(radius, types, kids, broken)
        assert_same_records(got, oracles._violation_walk(radius, types, kids, broken))
        listed += len(got)
    assert listed > 100_000


@pytest.mark.parametrize(
    "spec, radius",
    [(STANDARD, 7), (SPLIT, 8), (PAIRS, 5), (SubgroupSpec(k=3, s=2, a1={1}, a2={2, 3}), 6),
     (SubgroupSpec(k=4, s=1, a1={1, 2, 5}, a2={4}), 4)],
    ids=["k2-single", "k2-split", "k3-pairs", "k3-s2", "k4-triple"],
)
def test_pruned_walk_matches_the_sphere_walk_on_synthetic_broken_types(spec, radius):
    # Any set of type ids may be marked broken.  Up to the depth at which
    # every type is met, the deepest types sit only in the last sphere; the
    # root's children sit in the first.  A walk that drops a word there lists
    # fewer records than the sphere walk.
    last_sphere_only = 0
    for r in range(2, radius + 1):
        types, words, kids, _ = broken_types(spec, r)
        within = range(1, len(kids))  # the ids whose first word lies within the radius
        deepest = max(len(words[u]) for u in within)
        last_sphere_only += deepest == r
        choices = [
            [u for u in within if len(words[u]) == deepest],
            [kids[0][0]],
            [kids[0][-1]],
            list(within),
            *(sorted(random.Random(seed).sample(within, 3)) for seed in range(5)),
        ]
        for ids in choices:
            broken = {u: (words[u], (u,), (u, u), False) for u in ids}
            got = invariance._violation_walk(r, types, kids, broken)
            assert got
            assert_same_records(got, oracles._violation_walk(r, types, kids, broken))
    assert last_sphere_only >= 3


def test_invariance_violation_record():
    v = InvarianceViolation((1, 3), (2, 1, 2), (1, 2), (2, 2), False)
    names = ("x", "y", "profile_x", "profile_y", "shared_positions_equal")
    assert tuple(f.name for f in dataclasses.fields(InvarianceViolation)) == names
    assert dataclasses.astuple(v) == ((1, 3), (2, 1, 2), (1, 2), (2, 2), False)
    assert repr(v) == (
        "InvarianceViolation(x=(1, 3), y=(2, 1, 2), profile_x=(1, 2), profile_y=(2, 2), "
        "shared_positions_equal=False)"
    )
    copy = pickle.loads(pickle.dumps(v))
    assert copy == v and type(copy) is InvarianceViolation
    with pytest.raises(AttributeError):
        v.x = (2,)
    assert hash(v) == hash(copy)
    assert len({v, copy}) == 1
    # callers derive records with dataclasses.replace
    assert dataclasses.replace(v, profile_y=(1, 1)).profile_y == (1, 1)
    assert type(check_invariance(SPLIT, radius=4).violations[0]) is InvarianceViolation
    assert check_invariance(SPLIT, radius=4).violations[0] == v


# Non-singleton specs that break from the first radius listed on.
BREAKING_RADII = [
    (SPLIT, (3, 5, 7)),
    (SubgroupSpec(k=3, s=1, a1={1, 2}, a2={3}), (3, 4, 6)),
    (SubgroupSpec(k=4, s=2, a1={1, 2, 3}, a2={5}), (4, 5)),
    (SubgroupSpec(k=3, s=2, a1={1}, a2={2, 3}), (4, 6)),
]


@pytest.mark.parametrize("spec, radii", BREAKING_RADII, ids=str)
def test_walked_records_equal_constructed_ones(spec, radii):
    # check_invariance fills its records through the slot descriptors; each
    # must be the record the dataclass constructor builds from its fields.
    for radius in radii:
        violations = check_invariance(spec, radius).violations
        assert violations
        for v in violations:
            built = InvarianceViolation(*(getattr(v, f.name) for f in dataclasses.fields(v)))
            assert type(v) is InvarianceViolation
            assert v == built and repr(v) == repr(built) and hash(v) == hash(built)
            assert not hasattr(v, "__dict__")
            assert dataclasses.replace(v, y=IDENTITY) == dataclasses.replace(built, y=IDENTITY)


def test_violation_setters_follow_field_order():
    names = [f.name for f in dataclasses.fields(InvarianceViolation)]
    descriptors = [setter.__self__ for setter in invariance._VIOLATION_SETTERS]
    assert [d.__name__ for d in descriptors] == names
    assert descriptors == [vars(InvarianceViolation)[name] for name in names]
    fields = ((1, 3), (2, 1, 2), (1, 2), (2, 2), False)
    walked = check_invariance(SPLIT, radius=4).violations[0]
    assert dataclasses.astuple(walked) == fields
    assert walked == InvarianceViolation(*fields)
    assert repr(walked) == repr(InvarianceViolation(*fields))


def test_walked_records_pickle_round_trip():
    report = check_invariance(SPLIT, radius=6)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(report, protocol))
        assert copy == report
        assert all(type(v) is InvarianceViolation for v in copy.violations)
        assert [hash(v) for v in copy.violations] == [hash(v) for v in report.violations]


def test_equal_size_letter_sets_hold_and_derive():
    report = check_invariance(PAIRS, radius=7)
    assert report.holds
    # A0 is empty, so no vertex shares its parent's class: 3 * 2 states.
    assert report.states_seen == 6
    system = derive_system(PAIRS, allow_nonsingleton=True)
    assert len(system.states) == 6
    assert all(sum(row) == PAIRS.k for row in system.counts)
    assert_ball_certifies(system, PAIRS, radius=7)
    # |A1| = |A2| = 2, A0 empty: a vertex whose parent sits one class up has
    # one successor there and two one class down.
    assert system.row((0, 1)) == {(1, 0): 1, (2, 0): 2}


def test_invariance_radius_guard():
    with pytest.raises(ValueError):
        check_invariance(STANDARD, radius=1)


# === class count equality ===


def test_class_counts_pass_for_singletons():
    for k in (2, 3, 4):
        spec = SubgroupSpec(k=k, s=1, a1={1}, a2={2})
        report = check_class_counts(spec, radius=4)
        assert report.passed
        assert report.class_vectors[0] == (k - 1, 1, 1)
        assert report.class_vectors[1] == (1, k - 1, 1)
        assert report.class_vectors[2] == (1, 1, k - 1)


def test_class_counts_reject_nonsingleton():
    with pytest.raises(ValueError):
        check_class_counts(SPLIT, radius=4)


# === system derivation ===


def test_derive_standard_system():
    system = derive_system(STANDARD)
    assert len(system.states) == 9
    assert system.states == tuple((i, j) for i in range(3) for j in range(3))
    for row in system.counts:
        assert sum(row) == 2
    assert_ball_certifies(system, STANDARD, radius=6)
    assert matches_reference(system)


def test_derived_counts_match_reference_table():
    for k in (2, 3, 4, 5):
        system = derive_system(SubgroupSpec(k=k, s=1, a1={1}, a2={2}))
        assert matches_reference(system)


def test_reference_table_literal():
    # Frozen copy of the nine successor-count rows, k left symbolic.
    k = 3
    expected = {
        (0, 0): {(0, 0): k - 2, (1, 0): 1, (2, 0): 1},
        (0, 1): {(0, 0): k - 1, (2, 0): 1},
        (0, 2): {(0, 0): k - 1, (1, 0): 1},
        (1, 0): {(1, 1): k - 1, (2, 1): 1},
        (1, 1): {(1, 1): k - 2, (0, 1): 1, (2, 1): 1},
        (1, 2): {(1, 1): k - 1, (0, 1): 1},
        (2, 0): {(2, 2): k - 1, (1, 2): 1},
        (2, 1): {(2, 2): k - 1, (0, 2): 1},
        (2, 2): {(2, 2): k - 2, (1, 2): 1, (0, 2): 1},
    }
    assert reference_counts(k) == expected


def test_state_count_law():
    # Reachable states number 3(2s+1): the parent class differs from the
    # vertex class by at most one residue step per appended letter.
    for k in (2, 3):
        for s in (1, 2, 3):
            system = derive_system(SubgroupSpec(k=k, s=s, a1={1}, a2={2}))
            n = 2 * s + 1
            assert len(system.states) == 3 * n
            expected = {
                (i, j) for i in range(n) for j in ((i - 1) % n, i, (i + 1) % n)
            }
            assert set(system.states) == expected


def test_successor_state_coherence():
    system = derive_system(SubgroupSpec(k=3, s=2, a1={1}, a2={2}))
    for st in system.states:
        for target in system.row(st):
            assert target[1] == st[0]


def test_derive_rejects_k1():
    with pytest.raises(ValueError):
        derive_system(SubgroupSpec(k=1, s=1, a1={1}, a2={2}))


def test_derive_rejects_nonsingleton_by_default():
    with pytest.raises(ValueError):
        derive_system(SPLIT)


def test_derive_detects_ill_defined_counts():
    with pytest.raises(IllDefinedSystemError):
        derive_system(SPLIT, allow_nonsingleton=True)


ORACLE_SPECS = [
    STANDARD,
    *(SubgroupSpec(k=k, s=s, a1={k + 1}, a2={1}) for k in (2, 3, 4, 5) for s in (1, 2)),
    PAIRS,
    SPLIT,
    SPLIT_K3,
    SubgroupSpec(k=4, s=1, a1={1, 2}, a2={3, 4}),
]


def _spec_id(spec):
    letters = ["".join(map(str, sorted(a))) for a in (spec.a1, spec.a2)]
    return f"k{spec.k}s{spec.s}-A1={letters[0]}-A2={letters[1]}"


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=_spec_id)
def test_derive_matches_ball_oracle(spec):
    radius = 7 if spec == PAIRS else 6
    rows = ball_rows(spec, radius)
    well_defined = all(counts == reps[0] for reps in rows.values() for counts in reps)
    assert well_defined == (len(spec.a1) == len(spec.a2))
    if not well_defined:
        with pytest.raises(IllDefinedSystemError):
            derive_system(spec, allow_nonsingleton=True)
        return
    assert_ball_certifies(derive_system(spec, allow_nonsingleton=True), spec, radius)


# The refusal names the first word, in ball order, of each of two types of
# one state whose rows differ; these messages are pinned verbatim.
REFUSALS = [
    (SPLIT, "state (0, 1): a1.a3 gives {(1, 0): 1, (2, 0): 1} but a2.a1.a2 gives {(2, 0): 2}"),
    (
        SubgroupSpec(k=2, s=2, a1={1}, a2={2, 3}),
        "state (1, 2): a1.a2.a3 gives {(0, 1): 1, (2, 1): 1} but a2.a1.a2.a1 gives {(0, 1): 2}",
    ),
    (
        SubgroupSpec(k=3, s=1, a1={1, 2}, a2={3}),
        "state (2, 2): a3.a4 gives {(1, 2): 2, (0, 2): 1} but a1.a3.a4 gives {(0, 2): 2, (1, 2): 1}",
    ),
    (
        SPLIT_K3,
        "state (4, 3): a2.a1.a3 gives {(3, 4): 1, (0, 4): 1, (4, 4): 1} "
        "but a1.a2.a1.a2 gives {(0, 4): 2, (4, 4): 1}",
    ),
    (
        SubgroupSpec(k=4, s=1, a1={1, 2, 5}, a2={4}),
        "state (2, 2): a4.a3 gives {(1, 2): 3, (0, 2): 1} but a1.a4.a3 gives {(0, 2): 3, (1, 2): 1}",
    ),
    (
        SubgroupSpec(k=4, s=2, a1={1}, a2={2, 3}),
        "state (3, 3): a2.a1.a4 gives {(4, 3): 1, (2, 3): 2, (3, 3): 1} "
        "but a1.a2.a1.a4 gives {(2, 3): 1, (4, 3): 2, (3, 3): 1}",
    ),
]


@pytest.mark.parametrize("spec, message", REFUSALS, ids=[_spec_id(spec) for spec, _ in REFUSALS])
def test_derive_refusal_message_is_pinned(spec, message):
    with pytest.raises(IllDefinedSystemError) as exc:
        derive_system(spec, allow_nonsingleton=True)
    suffix = "; successor counts depend on the vertex, so the invariance property fails"
    assert str(exc.value) == message + suffix


def test_derive_refuses_exactly_where_invariance_fails_at_the_type_depth():
    # The letter-set quotient walk gives the full table's verdict and state
    # count (_compare_types) at every radius from 2 to the type automaton's
    # depth (the longest first word of a type), on every letter choice of
    # k <= 5, s <= 4.  Uncut, it gives every state's first word and profile
    # in key order, and the first disagreeing type's, as the full table
    # does, and derive_system's refusal reads as the full table's did.  At
    # the depth the ball holds every type, so the checker cut there and the
    # uncut derivation compare the same types.
    compared = checked = refused = 0
    suffix = "; successor counts depend on the vertex, so the invariance property fails"
    for k in range(1, 6):
        for s in range(1, 5):
            for a1, a2 in letter_choices(k):
                spec = SubgroupSpec(k=k, s=s, a1=a1, a2=a2)
                depth = max(len(x) for x in cosets.type_table(spec)[1])
                for radius in range(2, depth + 1):
                    states, mismatched, _ = invariance._compare_types(spec, radius)
                    quotient, mismatch = invariance._quotient_walk(spec, radius)
                    assert (mismatch is None, len(quotient)) == (not mismatched, len(states)), (spec, radius)
                    compared += 1
                first, mismatched, (_, words, _) = invariance._compare_types(spec, depth)  # the whole table
                quotient, mismatch = invariance._quotient_walk(spec, 3 * 2 * spec.index + 1)
                rows = [(st, invariance._word(w), list(p.items())) for st, (p, w) in quotient.items()]
                assert rows == [(st, x, list(Counter(p).items())) for st, (x, p) in first.items()], spec
                assert (mismatch is None) == (not mismatched) == (len(a1) == len(a2)), spec
                if mismatch is not None:
                    i, (st, profile) = next(iter(mismatched.items()))
                    witness = (mismatch[0], invariance._word(mismatch[2]), list(mismatch[1].items()))
                    assert witness == (st, words[i], list(Counter(profile).items())), spec
                    if k > 1:
                        x_row, y_row = [dict(Counter((r, st[0]) for r in p)) for p in (first[st][1], profile)]
                        message = (
                            f"state {st}: {word_to_str(first[st][0])} gives {x_row} "
                            f"but {word_to_str(words[i])} gives {y_row}{suffix}"
                        )
                        with pytest.raises(IllDefinedSystemError, match=f"^{re.escape(message)}$"):
                            derive_system(spec, allow_nonsingleton=True)
                if k not in ORACLE_RADIUS or s > 2:
                    continue
                checked += 1
                report = check_invariance(spec, depth)
                try:
                    system = derive_system(spec, allow_nonsingleton=True)
                except IllDefinedSystemError as exc:
                    refused += 1
                    assert not report.holds, spec
                    first = report.violations[0]
                    assert f": {word_to_str(first.x)} gives " in str(exc), spec
                    assert f" but {word_to_str(first.y)} gives " in str(exc), spec
                    continue
                assert report.holds, spec
                assert report.states_seen == len(system.states), spec
    assert (compared, checked, refused) == (20488, 484, 336)


def test_derive_equals_the_type_walk_on_every_holding_spec():
    # the offset table against the rows of the uncut type walk
    specs = [
        SubgroupSpec(k=k, s=s, a1=a1, a2=a2)
        for k in range(2, 6)
        for s in range(1, 5)
        for a1, a2 in letter_choices(k)
        if len(a1) == len(a2)
    ]
    assert len(specs) == 856
    for spec in specs:
        depth = max(len(x) for x in cosets.type_table(spec)[1])  # cut there, the table is whole
        first, mismatched, _ = invariance._compare_types(spec, depth)
        assert not mismatched, spec
        rows = {st: Counter((r, st[0]) for r in profile) for st, (_, profile) in first.items()}
        system = derive_system(spec, allow_nonsingleton=True)
        assert system.states == tuple(sorted(rows)), spec
        assert system.counts == tuple(tuple(rows[st][su] for su in system.states) for st in system.states), spec


def test_offset_table_holds_for_every_k_and_s():
    """The six types (parity, class of the last letter), with m0, m1, m2 symbolic.

    A letter of class C moves a position by an offset that depends only on
    the position's parity (checked on positions -6..6 with cosets.step).  A
    type's parent offset d is its last letter's offset, and its successor
    profile counts m_C letters of each class C, less its last letter, at
    their offsets.  Offsets -1, 0, +1 are distinct mod 2s+1 >= 3, so this one
    computation covers every k and s.  The two types of each d have equal
    profiles exactly when m1 = m2, and those profiles are then the table
    derive_system builds.
    """
    sp = pytest.importorskip("sympy")
    m0, m1, m2 = sp.symbols("m0 m1 m2", positive=True, integer=True)
    spec = SubgroupSpec(k=2, s=1, a1={1}, a2={2})  # one letter of each class: 1, 2, 3
    letters = {1: m1, 2: m2, 0: m0}
    representative = {1: 1, 2: 2, 0: 3}

    def offset(parity, cls):
        moves = {cosets.step(p, representative[cls], spec) - p for p in range(-6, 7) if p % 2 == parity}
        assert len(moves) == 1
        return moves.pop()

    profiles = {}  # d -> the profiles (count at -1, 0, +1) of the types with that d
    for parity in (0, 1):
        for last in letters:
            d = offset(parity, last)
            profile = [0, 0, 0]
            for cls, m in letters.items():
                profile[offset(parity, cls) + 1] += m - int(cls == last)
            profiles.setdefault(d, []).append(profile)
    assert sorted(profiles) == [-1, 0, 1] and all(len(p) == 2 for p in profiles.values())
    for d, (one, other) in profiles.items():
        differences = [sp.expand(a - b) for a, b in zip(one, other)]
        assert sp.solve(differences, m1, dict=True) == [{m1: m2}], d
        m = sp.Symbol("m", positive=True, integer=True)
        table = [m - int(d == -1), m0 - int(d == 0), m - int(d == 1)]
        assert [sp.expand(c.subs({m1: m, m2: m}) - e) for c, e in zip(one, table)] == [0, 0, 0], d


def test_holding_derive_walks_no_types(monkeypatch):
    # a holding derive reads the offset table; a refusal reads the
    # letter-set quotient walk, not the full type table
    def refuse(*args):
        raise AssertionError("a derive walked the full type table")

    monkeypatch.setattr(invariance, "type_table", refuse)
    holding = (STANDARD, PAIRS, SubgroupSpec(k=5, s=4, a1={2}, a2={6}), SubgroupSpec(k=4, s=2, a1={1, 2}, a2={3, 4}))
    for spec in holding:
        system = derive_system(spec, allow_nonsingleton=True)
        assert all(sum(row) == spec.k for row in system.counts)
    with pytest.raises(IllDefinedSystemError, match="^state \\(0, 1\\): a1.a3 gives "):
        derive_system(SPLIT, allow_nonsingleton=True)


def test_holding_invariance_walks_no_types(monkeypatch):
    def refuse(*args):
        raise AssertionError("a holding check walked the types")

    monkeypatch.setattr(invariance, "type_table", refuse)
    for spec, radius in ((STANDARD, 8), (PAIRS, 6), (SubgroupSpec(k=4, s=2, a1={1}, a2={3}), 6)):
        assert check_invariance(spec, radius).holds
    with pytest.raises(AssertionError, match="walked the types"):
        check_invariance(SPLIT, 6)


def test_offset_states_equal_the_quotient_walk_at_every_radius(monkeypatch):
    # A holding check counts its states on the offset table; the letter-set
    # quotient walk counts the same states at every radius, up to the depth
    # by which the quotient's 3 * 2(2s+1) + 1 types are all met.  The cap is
    # raised so that check_invariance counts, not builds, the deep balls.
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", str(10**60))
    compared = 0
    for k in range(1, 6):
        for s in range(1, 5):
            for a1, a2 in letter_choices(k):
                if len(a1) != len(a2):
                    continue
                spec = SubgroupSpec(k=k, s=s, a1=a1, a2=a2)
                for radius in range(2, 3 * 2 * spec.index + 2):
                    quotient, mismatch = invariance._quotient_walk(spec, radius)
                    assert mismatch is None, (spec, radius)
                    report = check_invariance(spec, radius)
                    assert (report.holds, report.states_seen) == (True, len(quotient)), (spec, radius)
                    compared += 1
    assert compared == 216 * (18 + 30 + 42 + 54)


def test_holding_invariance_walks_no_quotient(monkeypatch):
    def refuse(*args):
        raise AssertionError("a holding check walked the letter-set quotient")

    monkeypatch.setattr(invariance, "_quotient_walk", refuse)
    for spec, radius in ((STANDARD, 8), (PAIRS, 6), (SubgroupSpec(k=4, s=2, a1={1}, a2={3}), 6)):
        report = check_invariance(spec, radius)
        assert report == InvarianceReport(True, radius, ball_size(spec.k, radius) - 1, report.states_seen, ())
    assert check_invariance(STANDARD, 8).states_seen == 9
    with pytest.raises(AssertionError, match="walked the letter-set quotient"):
        check_invariance(SPLIT, 6)


def test_limited_listing_builds_only_its_records(monkeypatch):
    # radius 21 at k = 2 is a ball of 6.3M words and, unlimited, about 1.4M
    # records; the limited walk fills only the records it returns
    built = []
    setters = list(invariance._VIOLATION_SETTERS)
    set_x = setters[0]
    setters[0] = lambda v, x: (built.append(x), set_x(v, x))
    monkeypatch.setattr(invariance, "_VIOLATION_SETTERS", tuple(setters))
    assert ball_size(2, 21) == 6_291_454
    report = check_invariance(SPLIT, 21, limit=10)
    assert (report.holds, report.words_checked, len(report.violations), len(built)) == (False, 6_291_453, 10, 10)
    assert report.violations == check_invariance(SPLIT, 8).violations[:10]


LIMIT_RADII = {2: range(2, 9), 3: range(2, 7), 4: range(2, 6)}


def test_limited_listing_is_the_head_of_the_full_one():
    compared = 0
    for k, radii in LIMIT_RADII.items():
        for s in (1, 2):
            for a1, a2 in letter_choices(k):
                if len(a1) == len(a2):
                    continue
                spec = SubgroupSpec(k=k, s=s, a1=a1, a2=a2)
                for radius in radii:
                    full = check_invariance(spec, radius)
                    for limit in (0, 1, 10):
                        head = dataclasses.replace(full, violations=full.violations[:limit])
                        assert repr(check_invariance(spec, radius, limit=limit)) == repr(head), (spec, radius)
                    compared += 1
    assert compared == 2 * (7 * 6 + 5 * 32 + 4 * 130)


def test_invariance_at_k_3000():
    # the quotient has at most 3*2(2s+1) + 1 types whatever k is; the full
    # type table within radius 2 would step 3000 children of 9,002 types
    report = check_invariance(SubgroupSpec(k=3000, s=1, a1={1}, a2={2}), 2)
    assert (report.holds, report.words_checked, report.states_seen) == (True, 9006001, 7)


@pytest.mark.parametrize("k", [1291, 10**8])
def test_derive_refuses_with_witnesses_at_any_k(k):
    # the refusal walks at most 3 * 2(2s+1) + 1 quotient types whatever k
    # is; the full type table took (k+1) * 2(2s+1) * k steps, over the
    # default vertex cap from k = 1291 at s = 1
    a0 = k - 2  # A0 holds every letter from 4 to k + 1
    message = (
        f"state (2, 2): a2.a4 gives {{(1, 2): 2, (0, 2): 1, (2, 2): {a0 - 1}}} "
        f"but a1.a2.a4 gives {{(0, 2): 2, (1, 2): 1, (2, 2): {a0 - 1}}}; "
        "successor counts depend on the vertex, so the invariance property fails"
    )
    with pytest.raises(IllDefinedSystemError, match=f"^{re.escape(message)}$"):
        derive_system(SubgroupSpec(k=k, s=1, a1={1, 3}, a2={2}), allow_nonsingleton=True)


def test_derive_at_k_3000():
    # the table does not depend on k; the type walk would take 54M steps
    system = derive_system(SubgroupSpec(k=3000, s=1, a1={1}, a2={2}))
    assert len(system.states) == 9
    assert system.row((0, 0)) == {(0, 0): 2998, (1, 0): 1, (2, 0): 1}


def test_derive_deterministic():
    a = derive_system(STANDARD)
    b = derive_system(STANDARD)
    assert a == b


# === serialization ===


def test_system_json_round_trip():
    for spec in (STANDARD, SubgroupSpec(k=3, s=2, a1={1}, a2={2})):
        system = derive_system(spec)
        loaded = WeaklyPeriodicSystem.from_json(system.to_json())
        assert loaded.k == system.k
        assert loaded.s == system.s
        assert loaded.states == system.states
        assert loaded.counts == system.counts
        assert loaded.spec == spec
    # files written before the spec was stored still load, without one
    payload = json.loads(derive_system(STANDARD).to_json())
    del payload["spec"]
    assert WeaklyPeriodicSystem.from_json(json.dumps(payload)).spec is None


def test_system_json_shape():
    payload = json.loads(derive_system(STANDARD).to_json())
    assert sorted(payload) == ["counts", "k", "s", "spec", "states"]
    assert payload["spec"] == {"k": 2, "s": 1, "A1": [1], "A2": [2]}
    assert payload["k"] == 2 and payload["s"] == 1
    assert payload["counts"]["0,1"] == {"0,0": 1, "2,0": 1}
