import itertools

import pytest

from cayleygibbs import words
from cayleygibbs.words import (
    IDENTITY,
    ResourceLimitError,
    ball_size,
    check_ball_cap,
    distance,
    enumerate_ball,
    inverse,
    multiply,
    neighborhood,
    parent,
    reduce_word,
    sphere_size,
    successors,
    word_from_str,
    word_to_str,
)


# === independent oracles ===


def naive_reduce(letters):
    """Repeatedly delete the first adjacent equal pair until none remain."""
    seq = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] == seq[i + 1]:
                del seq[i : i + 2]
                changed = True
                break
    return tuple(seq)


def bfs_distance(x, y, k):
    """Shortest path length by explicit neighborhood search."""
    if x == y:
        return 0
    seen = {x}
    frontier = [x]
    d = 0
    while True:
        d += 1
        nxt = []
        for w in frontier:
            for v in neighborhood(w, k):
                if v == y:
                    return d
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt


def all_letter_sequences(k, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(range(1, k + 2), repeat=n)


# === reduction ===


def test_reduce_matches_naive_oracle():
    for k in (1, 2, 3):
        for seq in all_letter_sequences(k, 4):
            assert reduce_word(seq, k) == naive_reduce(seq)


def test_reduce_idempotent_exhaustive():
    for k in (1, 2, 3):
        for seq in all_letter_sequences(k, 4):
            once = reduce_word(seq, k)
            assert reduce_word(once, k) == once


def test_reduce_examples():
    assert reduce_word((1, 2, 2, 1)) == IDENTITY
    assert reduce_word((1, 2, 1)) == (1, 2, 1)
    assert reduce_word((3, 3)) == IDENTITY


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        reduce_word((0, 1))
    with pytest.raises(ValueError):
        reduce_word((1, 4), k=2)
    with pytest.raises(ValueError):
        reduce_word(("a",))


# === group laws ===


def test_multiply_examples():
    assert multiply((1, 2), (2, 1)) == IDENTITY
    assert multiply((1, 2), (1, 2)) == (1, 2, 1, 2)
    assert multiply((1,), (2,)) == (1, 2)


def test_group_axioms_on_ball():
    words = list(enumerate_ball(2, 5).vertices())
    assert len(words) == 94
    for x in words:
        assert multiply(x, inverse(x)) == IDENTITY
        assert multiply(inverse(x), x) == IDENTITY
        assert multiply(x, IDENTITY) == x
        assert multiply(IDENTITY, x) == x
        assert inverse(inverse(x)) == x


def test_multiply_associative_exhaustive():
    # All word triples of length <= 4 for k <= 2; k = 3 is cut to length <= 3
    # to keep the triple loop around a second (4.2M triples otherwise).
    cases = [(1, 4), (2, 4), (3, 3)]
    for k, max_len in cases:
        words = list(enumerate_ball(k, max_len).vertices())
        for x in words:
            for y in words:
                xy = multiply(x, y)
                for z in words:
                    assert multiply(xy, z) == multiply(x, multiply(y, z))


def test_multiply_matches_reduce_of_concatenation():
    words = list(enumerate_ball(3, 3).vertices())
    for x in words:
        for y in words:
            assert multiply(x, y) == reduce_word(x + y)


# === tree structure ===


def test_parent_drops_last_letter():
    assert parent((1, 2, 3)) == (1, 2)
    assert parent((2,)) == IDENTITY
    with pytest.raises(ValueError):
        parent(IDENTITY)


def test_successors_examples():
    assert successors(IDENTITY, 2) == [(1,), (2,), (3,)]
    assert successors((1, 2), 2) == [(1, 2, 1), (1, 2, 3)]


def test_successors_oracle():
    # Successors are exactly the neighbors other than the parent, in the
    # same ascending generator order.
    for k in (2, 3):
        for x in enumerate_ball(k, 4).vertices():
            nb = neighborhood(x, k)
            expect = [v for v in nb if x == IDENTITY or v != parent(x)]
            assert successors(x, k) == expect


def test_neighborhood_examples():
    assert neighborhood((1,), 2) == [IDENTITY, (1, 2), (1, 3)]
    assert neighborhood((2, 1), 2) == [(2,), (2, 1, 2), (2, 1, 3)]


def test_tree_consistency():
    for k in (2, 3):
        ball = enumerate_ball(k, 4)
        for x in ball.vertices():
            for c in successors(x, k):
                assert parent(c) == x
            if x != IDENTITY:
                assert x in neighborhood(parent(x), k)
                assert parent(x) in neighborhood(x, k)


# === enumeration ===


def test_sphere_counts_match_closed_form():
    for k in (1, 2, 3, 4):
        ball = enumerate_ball(k, 8)
        for m, sphere in enumerate(ball.spheres):
            assert len(sphere) == sphere_size(k, m)
            for w in sphere:
                assert len(w) == m
                assert reduce_word(w, k) == w


def test_ball_size_values():
    assert ball_size(2, 5) == 94
    assert len(enumerate_ball(2, 5)) == 94
    assert ball_size(1, 6) == 13  # the tree is a line for k = 1


def test_ball_spheres_lexicographic():
    for k in (2, 3):
        for sphere in enumerate_ball(k, 5).spheres:
            assert list(sphere) == sorted(sphere)


def test_ball_deterministic():
    a = enumerate_ball(2, 5)
    b = enumerate_ball(2, 5)
    assert a.spheres == b.spheres


def test_ball_resource_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_ball(2, 40)


def test_ball_cap_counts_exactly_up_to_the_cap(monkeypatch):
    for k in (1, 2, 3, 5):
        for radius in range(1, 8):
            size = ball_size(k, radius)
            monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", str(size))
            assert check_ball_cap(k, radius) == size
            monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", str(size - 1))
            message = f"^ball of radius {radius} for k={k} has {size} vertices, cap is {size - 1}$"
            with pytest.raises(ResourceLimitError, match=message):
                check_ball_cap(k, radius)


@pytest.mark.parametrize(
    "k, radius, counted",
    [(2, 10**9, "more than 10000000"), (3, 10**100, "more than 10000000"),
     (10**6, 5, "more than 10000000"), (1, 10**9, "2000000001")],
)
def test_ball_far_over_the_cap_is_refused_uncounted(monkeypatch, k, radius, counted):
    # spheres are added only until the sum passes the cap, and the line
    # (k = 1) is counted in closed form, so the refusal is immediate
    monkeypatch.delenv("CAYLEYGIBBS_MAX_BALL", raising=False)
    message = f"^ball of radius {radius} for k={k} has {counted} vertices, cap is 10000000$"
    with pytest.raises(ResourceLimitError, match=message):
        check_ball_cap(k, radius)


def test_ball_cap_reads_the_cap_once(monkeypatch):
    reads = []
    cap = words._vertex_cap
    monkeypatch.setattr(words, "_vertex_cap", lambda: reads.append(1) or cap())
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "94")
    assert check_ball_cap(2, 5) == 94
    with pytest.raises(ResourceLimitError, match="^ball of radius 6 for k=2 has 190 vertices, cap is 94$"):
        check_ball_cap(2, 6)
    assert len(reads) == 2


def test_ball_cap_env_override(monkeypatch):
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "10")
    with pytest.raises(ResourceLimitError):
        enumerate_ball(2, 5)
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "100")
    assert len(enumerate_ball(2, 5)) == 94


# === distance ===


def test_distance_examples():
    assert distance((1, 2), (1, 3)) == 2
    assert distance(IDENTITY, (1, 2, 1)) == 3
    assert distance((1,), (1,)) == 0


def test_distance_matches_bfs_oracle():
    words = list(enumerate_ball(2, 3).vertices())
    for x in words:
        for y in words:
            assert distance(x, y) == bfs_distance(x, y, 2)


def test_distance_symmetry_and_path_additivity():
    words = list(enumerate_ball(2, 4).vertices())
    for x in words:
        for y in words:
            assert distance(x, y) == distance(y, x)
    # Walking from x up to the junction and down to y, distances add up.
    for x in words:
        for y in words:
            z = x
            total = 0
            # climb towards the common prefix
            while not _is_prefix(z, y):
                total += 1
                z = parent(z)
            total += len(y) - len(z)
            assert distance(x, y) == total


def _is_prefix(p, w):
    return len(p) <= len(w) and w[: len(p)] == p


# === serialization ===


def test_word_round_trip():
    for k in (1, 2, 3):
        for x in enumerate_ball(k, 4).vertices():
            assert word_from_str(word_to_str(x), k) == x


def test_word_to_str_examples():
    assert word_to_str(IDENTITY) == "e"
    assert word_to_str((1, 2, 3)) == "a1.a2.a3"


def test_word_from_str_rejects_garbage():
    with pytest.raises(ValueError):
        word_from_str("a1.a1")  # not reduced
    with pytest.raises(ValueError):
        word_from_str("b1")
    with pytest.raises(ValueError):
        word_from_str("a3", k=1)
