import itertools

import pytest
from oracles import fold_alternating, matching_permutation, project

from cayleygibbs.cosets import (
    CosetLabel,
    SpecError,
    SubgroupSpec,
    check_cosets,
    class_representative,
    coset_classes,
    is_member,
    label,
    labelled_ball,
    neighbor_counts,
    position,
    step,
)
from cayleygibbs.words import (
    IDENTITY,
    enumerate_ball,
    inverse,
    multiply,
    neighborhood,
    parent,
    reduce_word,
)

STANDARD = SubgroupSpec(k=2, s=1, a1={1}, a2={2})
SPLIT = SubgroupSpec(k=2, s=1, a1={1, 3}, a2={2})  # the non-singleton example


# === spec validation ===


def test_spec_accepts_standard_forms():
    spec = SubgroupSpec(k=4, s=2, a1=[2, 3], a2=[1])
    assert spec.a0_size == 2
    assert spec.m1 == 2 and spec.m2 == 1
    assert spec.index == 5


def test_spec_rejects_bad_input():
    with pytest.raises(SpecError):
        SubgroupSpec(k=2, s=1, a1=set(), a2={2})
    with pytest.raises(SpecError):
        SubgroupSpec(k=2, s=1, a1={1}, a2={1, 2})
    with pytest.raises(SpecError):
        SubgroupSpec(k=2, s=1, a1={1}, a2={4})
    with pytest.raises(SpecError):
        SubgroupSpec(k=2, s=0, a1={1}, a2={2})
    with pytest.raises(SpecError):
        SubgroupSpec(k=0, s=1, a1={1}, a2={2})


def test_spec_json_round_trip():
    for spec in (STANDARD, SPLIT, SubgroupSpec(k=5, s=3, a1={2, 4}, a2={3, 6})):
        assert SubgroupSpec.from_json(spec.to_json()) == spec
    with pytest.raises(SpecError):
        SubgroupSpec.from_json('{"k": 2, "s": 1}')
    with pytest.raises(SpecError):
        SubgroupSpec.from_json("not json")


# === projection ===


def test_project_examples():
    assert project((1, 3, 2), STANDARD) == (1, 2)
    assert project((1, 3), SPLIT) == IDENTITY
    assert project(IDENTITY, STANDARD) == IDENTITY


def test_project_is_homomorphism_exhaustive():
    # project(x y) == reduce(project(x) + project(y)) over all ball pairs.
    specs = [
        SubgroupSpec(k=2, s=1, a1={1}, a2={2}),
        SubgroupSpec(k=2, s=2, a1={1, 3}, a2={2}),
        SubgroupSpec(k=3, s=1, a1={2}, a2={4}),
        SubgroupSpec(k=3, s=2, a1={1, 4}, a2={2, 3}),
    ]
    for spec in specs:
        words = list(enumerate_ball(spec.k, 4).vertices())
        for x in words:
            for y in words:
                lhs = project(multiply(x, y), spec)
                rhs = reduce_word(project(x, spec) + project(y, spec))
                assert lhs == rhs


def test_project_output_alternates():
    for spec in (STANDARD, SPLIT, SubgroupSpec(k=3, s=2, a1={3}, a2={1})):
        for x in enumerate_ball(spec.k, 5).vertices():
            w = project(x, spec)
            assert all(c in (spec.m1, spec.m2) for c in w)
            assert reduce_word(w) == w


# === representatives and recursion ===


def test_class_representative_shapes():
    spec = SubgroupSpec(k=2, s=2, a1={1}, a2={2})
    assert class_representative(0, spec) == IDENTITY
    assert class_representative(1, spec) == (1,)
    assert class_representative(2, spec) == (1, 2)
    assert class_representative(3, spec) == (2, 1)
    assert class_representative(4, spec) == (2,)


def test_fold_alternating_base_cases():
    # For s = 1 the three classes are e, a1 (with a2.a1) and a2 (with a1.a2).
    assert fold_alternating(IDENTITY, STANDARD) == CosetLabel(0, IDENTITY)
    assert fold_alternating((1,), STANDARD).rep == (1,)
    assert fold_alternating((2, 1), STANDARD).rep == (1,)
    assert fold_alternating((2,), STANDARD).rep == (2,)
    assert fold_alternating((1, 2), STANDARD).rep == (2,)


def test_fold_alternating_strips_full_blocks():
    spec = STANDARD
    # length 3 alternating words collapse to the identity class
    assert fold_alternating((1, 2, 1), spec).residue == 0
    assert fold_alternating((2, 1, 2), spec).residue == 0
    assert fold_alternating((1, 2, 1, 2), spec).rep == (1,)


def test_fold_alternating_rejects_bad_words():
    with pytest.raises(ValueError):
        fold_alternating((3,), STANDARD)
    with pytest.raises(ValueError):
        fold_alternating((1, 1), STANDARD)


def alternating_word(first: int, second: int, length: int):
    return tuple(first if i % 2 == 0 else second for i in range(length))


def test_label_matches_fold_on_alternating_words():
    # Closed-form residue against the literal recursion, lengths up to 40.
    for s in (1, 2, 3, 4):
        spec = SubgroupSpec(k=2, s=s, a1={1}, a2={2})
        for length in range(41):
            for first in (1, 2):
                second = 3 - first
                w = alternating_word(first, second, length)
                assert label(w, spec) == fold_alternating(w, spec)


def test_label_matches_fold_on_ball():
    for spec in (STANDARD, SPLIT, SubgroupSpec(k=3, s=2, a1={2}, a2={3})):
        for x in enumerate_ball(spec.k, 6).vertices():
            assert label(x, spec) == fold_alternating(project(x, spec), spec)


def test_label_examples():
    spec2 = SubgroupSpec(k=2, s=2, a1={1}, a2={2})
    w = alternating_word(1, 2, 7)  # image of itself, length 7 starting a1
    got = label(w, spec2)
    assert got.residue == 2
    assert got.rep == (1, 2)
    assert label((2, 1), STANDARD).rep == (1,)
    assert label(IDENTITY, STANDARD).residue == 0


# === membership ===


def test_is_member_examples():
    assert is_member((1, 2, 1), STANDARD)
    assert is_member(IDENTITY, STANDARD)
    assert not is_member((1, 2), STANDARD)
    assert not is_member((1,), STANDARD)
    assert is_member((3,), STANDARD)  # residual letters vanish


def test_membership_equals_length_divisibility():
    # Residue 0 iff the projected length is divisible by 2s+1, radius 8.
    for s in (1, 2, 3):
        spec = SubgroupSpec(k=2, s=s, a1={1}, a2={2})
        mismatches = 0
        for x in enumerate_ball(2, 8).vertices():
            by_label = is_member(x, spec)
            by_length = len(project(x, spec)) % spec.index == 0
            mismatches += by_label != by_length
        assert mismatches == 0


# === class partition ===


def test_coset_classes_counts():
    classes = coset_classes(STANDARD, radius=3)
    assert sorted(classes) == [0, 1, 2]
    assert all(classes[r] for r in classes)
    assert (1,) in classes[1] and (2, 1) in classes[1]
    assert (2,) in classes[2] and (1, 2) in classes[2]


def test_coset_classes_index_law():
    cases = [
        (SubgroupSpec(k=2, s=2, a1={1}, a2={2}), 6, 5),
        (SubgroupSpec(k=3, s=3, a1={1}, a2={2}), 8, 7),
        (SubgroupSpec(k=2, s=1, a1={1, 3}, a2={2}), 4, 3),
    ]
    for spec, radius, expected in cases:
        classes = coset_classes(spec, radius)
        assert len([r for r in classes if classes[r]]) == expected
        # growing the radius adds members but no new class
        bigger = coset_classes(spec, radius + 2)
        assert sorted(r for r in bigger if bigger[r]) == sorted(classes)


def test_coset_classes_radius_guard():
    with pytest.raises(ValueError):
        coset_classes(SubgroupSpec(k=2, s=2, a1={1}, a2={2}), radius=3)


def test_classes_are_left_cosets_oracle():
    # Independent partition: group ball words by the membership relation
    # x ~ y iff y^-1 x in the subgroup, then compare with the labels.
    spec = STANDARD
    words = list(enumerate_ball(2, 4).vertices())
    buckets: list[list] = []
    for x in words:
        for bucket in buckets:
            if is_member(multiply(inverse(bucket[0]), x), spec):
                bucket.append(x)
                break
        else:
            buckets.append([x])
    assert len(buckets) == spec.index
    by_label = {}
    for x in words:
        by_label.setdefault(label(x, spec).residue, set()).add(x)
    assert sorted(map(frozenset, buckets)) == sorted(map(frozenset, by_label.values()))


def test_check_cosets_passes():
    for spec in (
        STANDARD,
        SubgroupSpec(k=2, s=2, a1={1}, a2={2}),
        SubgroupSpec(k=3, s=1, a1={2}, a2={3}),
        SPLIT,
    ):
        report = check_cosets(spec, radius=4)
        assert report.passed, report
        assert report.pairs_checked == len(list(enumerate_ball(spec.k, 4).vertices())) ** 2
        assert report.first_violation is None


def test_subgroup_is_not_normal():
    # Some conjugate of a member leaves the subgroup.
    for spec in (STANDARD, SubgroupSpec(k=2, s=2, a1={1}, a2={2})):
        words = list(enumerate_ball(spec.k, 2 * spec.s + 2).vertices())
        members = [g for g in words if is_member(g, spec) and g != IDENTITY]
        witness = None
        for g in members:
            for x in words:
                if not is_member(multiply(multiply(x, g), inverse(x)), spec):
                    witness = (x, g)
                    break
            if witness:
                break
        assert witness is not None, f"no non-normality witness for {spec}"


# === neighbor class counts ===


def test_neighbor_counts_examples():
    for k in (*range(2, 7), 10**8):  # counted per letter set, so no k-sized work
        spec = SubgroupSpec(k=k, s=1, a1={1}, a2={2})
        assert neighbor_counts(IDENTITY, spec) == (k - 1, 1, 1)


def test_neighbor_counts_by_class():
    # Every member of class r shares one count vector; brute force over V_5.
    for k in (2, 3, 4):
        spec = SubgroupSpec(k=k, s=1, a1={1}, a2={2})
        seen: dict[int, tuple[int, ...]] = {}
        for x in enumerate_ball(k, 5).vertices():
            r = label(x, spec).residue
            q = neighbor_counts(x, spec)
            assert sum(q) == k + 1
            if r in seen:
                assert q == seen[r], (x, r)
            else:
                seen[r] = q
        assert seen[0] == (k - 1, 1, 1)
        assert seen[1] == (1, k - 1, 1)
        assert seen[2] == (1, 1, k - 1)


# === the per-letter position rule ===

RULE_SPECS = (
    STANDARD,
    SubgroupSpec(k=3, s=2, a1={2}, a2={4}),
    SPLIT,
    SubgroupSpec(k=3, s=1, a1={1, 2}, a2={3, 4}),
    SubgroupSpec(k=4, s=2, a1={2, 5}, a2={1}),
)


def test_step_is_an_involution():
    for spec in RULE_SPECS:
        for x in enumerate_ball(spec.k, 6).vertices():
            p = position(x, spec)
            for i in range(1, spec.k + 2):
                assert step(step(p, i, spec), i, spec) == p


def test_step_by_last_letter_gives_parent_position():
    for spec in RULE_SPECS:
        for x in enumerate_ball(spec.k, 6).vertices():
            if x:
                assert step(position(x, spec), x[-1], spec) == position(parent(x), spec)


def test_labelled_ball_carries_positions():
    for spec in RULE_SPECS:
        pairs = list(labelled_ball(spec, 6))
        assert [x for x, _ in pairs] == list(enumerate_ball(spec.k, 6).vertices())
        period = 2 * spec.index
        assert all(t == (position(x, spec) % period, x[-1] if x else 0) for x, t in pairs)


def test_neighbor_counts_match_folded_projection():
    for spec in RULE_SPECS:
        for x in enumerate_ball(spec.k, 6).vertices():
            counts = [0] * spec.index
            for y in neighborhood(x, spec.k):
                counts[fold_alternating(project(y, spec), spec).residue] += 1
            assert neighbor_counts(x, spec) == tuple(counts)


def test_matching_permutation():
    assert matching_permutation((5, 1, 1), (5, 1, 1)) == (0, 1, 2)
    assert matching_permutation((4, 1, 1), (1, 4, 1)) == (1, 0, 2)
    assert matching_permutation((2, 1, 1), (1, 1, 2)) == (1, 2, 0)
    assert matching_permutation((1, 2), (3, 4)) is None
    assert matching_permutation((1, 2), (2, 2)) is None


def test_matching_permutation_applies():
    base = (3, 1, 1, 2, 1)
    for other in set(itertools.permutations(base)):
        perm = matching_permutation(base, other)
        assert perm is not None
        assert tuple(base[p] for p in perm) == other


def test_permutation_exists_for_all_vertices():
    for k in (2, 3):
        spec = SubgroupSpec(k=k, s=1, a1={1}, a2={2})
        base = neighbor_counts(IDENTITY, spec)
        for x in enumerate_ball(k, 4).vertices():
            assert matching_permutation(base, neighbor_counts(x, spec)) is not None
