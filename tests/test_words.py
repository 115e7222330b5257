"""Cyclic word rewriting and the annulus encoding."""

import random
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell.catalog import boundary_sphere
from morseshell.complexes import is_closed_surface, make_complex
from morseshell.generators import prism_triangulation
from morseshell.words import (
    REDUCTION_TARGET,
    SIX_LETTER_WORDS,
    RewriteStep,
    _validity_preserving_steps,
    annulus_of_word,
    apply_step,
    reduce_word,
    word,
    word_compress,
    word_of_annulus,
    word_subdivide,
    word_suppress,
)


def all_valid_words(max_len):
    seen = set()
    for m in range(6, max_len + 1):
        for bits in product("du", repeat=m):
            s = "".join(bits)
            if s.count("d") >= 3 and s.count("u") >= 3:
                seen.add(word(s))
    return sorted(seen, key=lambda w: (len(w), w.letters))


def test_cyclic_word_canonical_rotation():
    assert word("ududdu") == word("dduudu")
    assert word("uuuddd").letters == "ddduuu"
    with pytest.raises(ValueError):
        word("abc")
    with pytest.raises(ValueError):
        word("")


def brute_force_canonical(s):
    return min(s[i:] + s[:i] for i in range(len(s)))


def test_canonical_rotation_exhaustive():
    for m in range(1, 15):
        for bits in product("du", repeat=m):
            s = "".join(bits)
            assert word(s).letters == brute_force_canonical(s), s


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="du", min_size=1, max_size=300))
def test_canonical_rotation_matches_brute_force(s):
    assert word(s).letters == brute_force_canonical(s)


@pytest.mark.parametrize("s", [
    "du" * 2236,
    "ddu" * 1490 + "dd",
    "d" * 4471 + "u",
    "d" * 2235 + "u" + "d" * 2236,
    "".join(random.Random(4472).choice("du") for _ in range(4472)),
], ids=["period-2", "period-3-cut", "one-u-last", "one-u-middle", "random"])
def test_canonical_rotation_at_the_longest_cli_word(s):
    # 4472 letters is the longest word whose trace the CLI admits
    assert word(s).letters == brute_force_canonical(s)


def eager_steps(w):
    """Every validity-preserving rewrite of w, all built at once."""
    out = []
    s = w.letters
    m = len(s)
    for pos in range(m):
        if s[pos] == s[(pos + 1) % m] and w.count(s[pos]) > 3:
            out.append(RewriteStep("compress", pos, word_compress(w, pos)))
    for pos in range(m):
        triple = "".join(s[(pos + i) % m] for i in range(3))
        if triple in ("udu", "dud") and w.count(triple[0] if triple == "dud"
                                                else "u") > 3:
            out.append(RewriteStep("suppress", pos, word_suppress(w, pos)))
    return out


def eager_reduce_word(w):
    """Reference reduction: keep the first of all rewrites until six
    letters remain, then subdivide once and descend breadth-first."""
    steps = []
    cur = w
    while len(cur) > 6:
        candidates = eager_steps(cur)
        assert candidates, f"stuck while shrinking {cur}"
        steps.append(candidates[0])
        cur = candidates[0].result
    if cur == REDUCTION_TARGET:
        return steps
    sub = word_subdivide(cur)
    steps.append(RewriteStep("subdivide", None, sub))
    parents = {}
    queue = deque([sub])
    seen = {sub}
    while REDUCTION_TARGET not in seen:
        node = queue.popleft()
        for step in eager_steps(node):
            if step.result not in seen:
                seen.add(step.result)
                parents[step.result] = (node, step)
                queue.append(step.result)
    path = []
    node = REDUCTION_TARGET
    while node != sub:
        node, step = parents[node]
        path.append(step)
    return steps + path[::-1]


def test_rewrite_candidates_match_eager_oracle():
    for w in all_valid_words(12):
        steps = list(_validity_preserving_steps(w))
        assert steps == eager_steps(w), w
        assert all(step.result.is_valid_annulus for step in steps)


def test_reduce_word_matches_eager_oracle():
    rng = random.Random(11)
    for length in [7, 8, 9, 10, 13, 17, 25, 40, 60, 90, 120] * 2:
        while True:
            s = "".join(rng.choice("du") for _ in range(length))
            if s.count("d") >= 3 and s.count("u") >= 3:
                break
        w = word(s)
        assert ([step.to_dict() for step in reduce_word(w)]
                == [step.to_dict() for step in eager_reduce_word(w)]), s


def test_four_six_letter_words():
    words6 = {w for w in all_valid_words(6)}
    assert words6 == set(SIX_LETTER_WORDS)
    assert len(set(SIX_LETTER_WORDS)) == 4


def test_compress_and_suppress():
    w = word("uuuddd")  # canonical ddduuu
    assert word_compress(w, 0) == word("dduuu")
    assert word_suppress(word("dududu"), 0) == word("duudu")
    with pytest.raises(ValueError):
        word_compress(word("dududu"), 0)
    with pytest.raises(ValueError):
        word_suppress(word("dduuuu"), 0)


def test_subdivide_example():
    assert word_subdivide(word("uuuddd")) == word("duudduudduuddddddd")


def test_reduce_word_already_target():
    assert reduce_word(REDUCTION_TARGET) == []


def test_reduce_word_rejects_invalid():
    with pytest.raises(ValueError):
        reduce_word(word("uuuuud"))


def test_reduce_uuuddd_passes_through_subdivision():
    steps = reduce_word(word("uuuddd"))
    results = [s.result for s in steps]
    assert word("duudduudduuddddddd") in results
    assert results[-1] == REDUCTION_TARGET
    assert sum(1 for s in steps if s.op == "subdivide") == 1


def test_reduce_word_traces_verify(max_len=12):
    for w in all_valid_words(max_len):
        steps = reduce_word(w)
        cur = w
        for s in steps:
            cur = apply_step(cur, s)
            assert cur == s.result
        assert cur == REDUCTION_TARGET
        assert sum(1 for s in steps if s.op == "subdivide") <= 1


def test_reduce_fixed_twenty_letter_word():
    w = word("ududuudddudnuuudddud".replace("n", "u"))
    steps = reduce_word(w)
    cur = w
    for s in steps:
        cur = apply_step(cur, s)
        assert cur == s.result
    assert cur == REDUCTION_TARGET


def test_annulus_round_trip_small():
    for s in ("ududdu", "duduud", "ududud", "uuddudud", "dudududu"):
        w = word(s)
        ann = annulus_of_word(w)
        assert word_of_annulus(ann.complex, ann.boundary_d, ann.boundary_u) == w


def test_annulus_round_trip_exhaustive():
    for w in all_valid_words(12):
        try:
            ann = annulus_of_word(w)
        except ValueError:
            # single-block words have no simplicial model
            assert w.letters == "d" * w.count("d") + "u" * w.count("u")
            continue
        back = word_of_annulus(ann.complex, ann.boundary_d, ann.boundary_u)
        assert back == w


def test_annulus_of_word_rejects_short_words():
    with pytest.raises(ValueError):
        annulus_of_word(word("uudd"))


def test_annulus_complex_shape():
    ann = annulus_of_word(word("ududud"))
    K = ann.complex
    assert len(K.faces_of_dim(2)) == 6
    assert len(ann.boundary_d) == 3 and len(ann.boundary_u) == 3
    assert not is_closed_surface(K)  # it has boundary


def test_prism_lateral_surface_word():
    from collections import defaultdict
    from itertools import combinations

    pr = prism_triangulation(3)
    count = defaultdict(list)
    for m in pr.complex.maximal_simplices:
        for t in combinations(m, 3):
            count[t].append(m)
    bottom, top = set(pr.bottom), set(pr.top)
    lateral = [t for t, ms in count.items() if len(ms) == 1
               and not (set(t) <= bottom or set(t) <= top)]
    w = word_of_annulus(make_complex(lateral), pr.bottom, pr.top)
    assert w == word("ududdu")


def test_word_of_annulus_rejects_bad_input():
    ann = annulus_of_word(word("ududud"))
    with pytest.raises(ValueError):
        word_of_annulus(ann.complex, ann.boundary_d | {99},
                        ann.boundary_u)
    with pytest.raises(ValueError):
        word_of_annulus(boundary_sphere(3), frozenset({0, 1}), frozenset({2, 3}))
