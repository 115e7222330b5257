"""What is computed once per tile shape or simplex size, and the trimmed
certify kernels, against the earlier per-tile and per-face code kept here
as oracles: tile extensions and fields, maximal flags, mod-2 homology
without clearing, and the Morse-condition check."""

import random
from collections import defaultdict
from fractions import Fraction
from itertools import chain, combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell import complexes, morse, tiles, tiling
from morseshell.catalog import genus_two_surface, surface_corpus
from morseshell.complexes import (
    barycentric_subdivision,
    betti_numbers_mod2,
    faces_of,
    make_complex,
)
from morseshell.morse import (
    DiscreteMorseFunction,
    gradient_of,
    tile_field,
    validate_morse_function,
)
from morseshell.tiles import MorseTile, interval


# -- oracles: the earlier code, per tile, per face and per row ----------------


def old_extension(t):
    """The earlier ``MorseTile.extension``: the interval rule on the tile
    itself."""
    if t.is_empty:
        return frozenset()
    ext = interval(t.witnesses, t.closure)
    return ext if t.removed_face is None else \
        ext - interval(t.witnesses, t.removed_face)


def old_match_tile(t, matching):
    """The earlier ``_match_tile``, on the tile itself."""
    ext = old_extension(t)
    cl = set(t.closure)
    if t.witnesses == cl:
        return
    tau = None if t.removed_face is None else set(t.removed_face)
    w = min(cl - (tau if tau is not None else t.witnesses))
    for f in ext:
        if w not in f:
            matching[f] = tuple(sorted(f + (w,)))
    if tau is not None:
        spare = tau - t.witnesses
        if spare:
            w2 = min(spare)
            for f in interval(t.witnesses | {w}, tau | {w}):
                if w2 not in f:
                    matching[f] = tuple(sorted(f + (w2,)))


def old_maximal_flags(K, face_vertex):
    """The earlier ``_maximal_flags``, one permutation at a time."""
    flags = []
    for m in K.maximal_simplices:
        for perm in permutations(m):
            chain_ = [tuple(sorted(perm[: i + 1])) for i in range(len(perm))]
            flags.append(tuple(sorted(face_vertex[f] for f in chain_)))
    return flags


def old_betti_numbers_mod2(K):
    """The earlier ``betti_numbers_mod2``: every row of every boundary map
    reduced, bottom dimension first, without clearing."""
    n = K.dim
    ranks = [0] * (n + 2)
    for p in range(1, n + 1):
        lower = {f: i for i, f in enumerate(K.faces_by_dim[p - 1])}
        rows = []
        for f in K.faces_by_dim[p]:
            mask = 0
            for fac in combinations(f, len(f) - 1):
                mask |= 1 << lower[fac]
            rows.append(mask)
        ranks[p] = len(complexes._gf2_pivots(rows))
    fv = K.f_vector
    return [fv[p] - ranks[p] - ranks[p + 1] for p in range(n + 1)]


def old_drops_and_rises(f):
    """The earlier ``_drops_and_rises``: ratios read per domain face."""
    ratio = {x: (f.values[x].numerator, f.values[x].denominator)
             for x in f.domain}
    drops = defaultdict(list)
    rises = defaultdict(int)
    for c, (cn, cd) in ratio.items():
        for s in combinations(c, len(c) - 1):
            r = ratio.get(s)
            if r is not None and cn * r[1] <= r[0] * cd:
                drops[s].append(c)
                rises[c] += 1
    return drops, rises


def old_validate_morse_function(f, W=None):
    """The earlier ``validate_morse_function``, as (errors, exceptions,
    gradient_matches)."""
    errors = []
    exceptions = {}
    drops, rises = old_drops_and_rises(f)
    gradient = {}
    unique_drops = True
    for face in sorted(f.domain, key=lambda x: (len(x), x)):
        falling = drops.get(face, ())
        ups = len(falling)
        downs = rises.get(face, 0)
        if ups or downs:
            exceptions[face] = (ups, downs)
        if ups > 1:
            errors.append(f"face {face}: {ups} cofaces with no larger value")
            unique_drops = False
        elif falling:
            gradient[face] = falling[0]
        if downs > 1:
            errors.append(f"face {face}: {downs} facets with no smaller value")
    matches = None
    if W is not None:
        matches = unique_drops and gradient == dict(W.matching)
        if not matches:
            errors.append("extracted gradient differs from the given field")
    return errors, exceptions, matches


# -- tile shapes --------------------------------------------------------------


def shapes(size):
    """Every tile on the standard simplex of ``size`` vertices: each witness
    set, with no removed face or with each admissible one."""
    std = tuple(range(size))
    for k in range(size + 1):
        for ws in combinations(std, k):
            yield MorseTile(std, frozenset(ws))
            for tau in chain.from_iterable(
                    combinations(std, r) for r in range(max(k, 1), size - 1)):
                if set(ws) <= set(tau):
                    yield MorseTile(std, frozenset(ws), tau)


def relabel(t, labels):
    """The tile t with standard vertex i renamed labels[i] (increasing)."""
    return MorseTile(tuple(labels[v] for v in t.closure),
                     frozenset(labels[v] for v in t.witnesses),
                     None if t.removed_face is None
                     else tuple(labels[v] for v in t.removed_face))


def assert_tile_matches_oracle(t):
    assert t.extension == old_extension(t), t
    # the same set operations in the same order: the same iteration order
    assert list(t.extension) == list(old_extension(t)), t
    expected = {}
    old_match_tile(t, expected)
    assert tile_field(t).matching == expected, t


@pytest.mark.parametrize("size", range(1, 7))
def test_every_shape_matches_the_per_tile_oracle(size):
    rng = random.Random(size)
    count = 0
    for std in shapes(size):
        labels = sorted(rng.sample(range(3 * size + 40), size))
        for t in (std, relabel(std, labels)):
            assert_tile_matches_oracle(t)
        count += 1
    # tiles differ by their fields, and every shape is normalised once
    assert count == len({t._shape for t in shapes(size)})


def test_shape_is_the_positions_in_the_closure():
    t = MorseTile((3, 8, 9, 20), frozenset({8, 20}), (8, 20))
    assert t._shape == (4, (1, 3), (1, 3))
    assert MorseTile((5,))._shape == (1, (), None)
    pieces = tiling.subdivide_tile(t).tiles
    # subdivision hands each piece the shape of its template piece
    assert [u.__dict__["_shape"] for u in pieces] == \
        [MorseTile(u.closure, u.witnesses, u.removed_face)._shape
         for u in pieces]


def test_a_seven_vertex_tile_is_computed_and_not_cached():
    std = tuple(range(7))
    cases = [MorseTile(std), MorseTile(std, frozenset({1, 4})),
             MorseTile(std, frozenset({2}), (0, 2, 5)),
             MorseTile(std, frozenset({1, 3}), (1, 3))]
    for t in cases:
        assert_tile_matches_oracle(relabel(t, [2, 3, 5, 7, 11, 13, 17]))
    K = make_complex([std, (0, 7)])
    sd = barycentric_subdivision(K)
    assert sorted(complexes._maximal_flags(K, sd.face_vertex)) == \
        sorted(old_maximal_flags(K, sd.face_vertex))
    small = MorseTile((0, 1, 2))
    tile_field(small)
    tiling.subdivide_tile(small)
    for cache in (tiles._shape_extension, morse._shape_pairs,
                  tiling._tile_relabel):
        assert (3, (), None) in cache
        assert all(key[0] <= cache.limit <= 6 for key in cache)
    assert (3,) in complexes._flags_picker
    assert all(key[0] <= 6 for key in complexes._flags_picker)


def test_templates_are_kept_for_tetrahedra_at_most():
    # every shape's template on at most 6 vertices would keep about 190 MiB
    for size in (4, 5):
        tiling.subdivide_tile(MorseTile(tuple(range(size)), frozenset({0})))
    assert (4, (0,), None) in tiling._tile_relabel
    assert (5, (0,), None) not in tiling._tile_relabel
    assert all(key[0] <= 4 for key in tiling._tile_relabel)


def test_a_round_builds_each_uncached_template_once(monkeypatch):
    built = []
    build = tiling._tile_relabel.build
    monkeypatch.setattr(tiling._tile_relabel, "build",
                        lambda *key: built.append(key) or build(*key))
    t = tiling.subdivide_tile(MorseTile(tuple(range(5))))
    shapes = {u._shape for u in t.tiles}
    assert len(t.tiles) == 120 and len(shapes) < 120
    built.clear()
    tiling.subdivide_tiling(t)
    assert len(built) == len(shapes) and set(built) == shapes


def old_tile_template(size, witnesses, removed):
    """The earlier ``_tile_template``: the vertex-face numbering of a built
    subdivision of the standard simplex, and the pieces of the tile's
    subdivision attached on it."""
    std = tuple(range(size))
    sd = barycentric_subdivision(make_complex([std]))
    tile = MorseTile(std, frozenset(witnesses), removed)
    if size == 1:  # attach would read an open point as the closed one
        return sd.vertex_face, [tile]
    ext = tile.extension
    covered = tiling._Covered(lambda f: sd.carrier_face(f) in ext)
    pieces = []
    for flag in tiling._flags(std, witnesses, removed or ()):
        piece, new = tiling.attach(
            tuple(sd.face_vertex[f] for f in reversed(flag)), covered)
        pieces.append(piece)
        covered.attached |= new
    return sd.vertex_face, pieces


def test_the_relabel_data_matches_the_template_oracle():
    # the relabel data is the picker applied to the closure's face ids, in
    # faces_of order, and the pieces' shapes
    count = 0
    for size in range(1, 6):
        std = tuple(range(size))
        for key in sorted({t._shape for t in shapes(size)}, key=repr):
            vertex_face, pieces = old_tile_template(*key)
            assert vertex_face == tuple(faces_of(std))
            pick, piece_shapes = tiling._tile_relabel.build(*key)
            assert pick(tuple(range(len(vertex_face)))) == tuple(
                part for u in pieces for part in (
                    u.closure, tuple(sorted(u.witnesses)),
                    u.removed_face or ())), key
            assert piece_shapes == [u._shape for u in pieces], key
            count += 1
    assert count == 230


# -- maximal flags --------------------------------------------------------------


def assert_flags_match_oracle(K):
    sd = barycentric_subdivision(K)
    new = complexes._maximal_flags(K, sd.face_vertex)
    assert new == old_maximal_flags(K, sd.face_vertex)


@pytest.mark.parametrize("name,K", surface_corpus(),
                         ids=[name for name, _ in surface_corpus()])
def test_flags_match_the_permutation_oracle_on_the_catalog(name, K):
    assert_flags_match_oracle(K)
    assert_flags_match_oracle(barycentric_subdivision(K).complex)


# mixed-dimensional complexes on up to 8 vertices, up to 8 simplices of
# dimension at most 5
mixed_complexes = st.integers(2, 8).flatmap(lambda n: st.lists(
    st.sets(st.integers(0, n - 1), min_size=1, max_size=6),
    min_size=1, max_size=8)).map(make_complex)


@settings(max_examples=150, deadline=None)
@given(mixed_complexes)
def test_flags_match_the_permutation_oracle_on_random_complexes(K):
    assert_flags_match_oracle(K)


# -- homology with clearing ---------------------------------------------------


# complexes of dimension at most 3 on up to 9 vertices
small_complexes = st.integers(1, 9).flatmap(lambda n: st.lists(
    st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
    min_size=1, max_size=14)).map(make_complex)


@settings(max_examples=300, deadline=None)
@given(small_complexes)
def test_clearing_matches_the_elimination_without_it(K):
    assert betti_numbers_mod2(K) == old_betti_numbers_mod2(K)


def test_clearing_matches_on_the_genus_two_ladder():
    K = genus_two_surface()
    for _ in range(3):  # d = 0, 1, 2
        assert betti_numbers_mod2(K) == old_betti_numbers_mod2(K) == [1, 4, 1]
        K = barycentric_subdivision(K).complex


def test_clearing_matches_on_solid_and_hollow_simplices():
    for n in range(1, 6):
        for K in (make_complex([range(n + 1)]),
                  make_complex(combinations(range(n + 1), n))):
            assert betti_numbers_mod2(K) == old_betti_numbers_mod2(K)


# -- the Morse check ----------------------------------------------------------


def hand_made_functions():
    """Functions on a triangle, a tetrahedron and a path, with mixed and
    prime denominators, ties, negative values and integers."""
    tri = make_complex([(0, 1, 2)]).faces
    tet = make_complex([(0, 1, 2, 3)]).faces
    path = make_complex([(0, 1), (1, 2), (2, 3)]).faces
    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    out = [
        # a gradient pair at a tie, and a negative vertex
        {(0,): Fraction(-1), (1,): Fraction(1, 3), (2,): Fraction(2, 7),
         (0, 1): Fraction(1, 3), (0, 2): Fraction(5, 4),
         (1, 2): Fraction(11, 10), (0, 1, 2): Fraction(13, 6)},
        # every value equal: every pair is an exception
        {f: Fraction(-3, 11) for f in tri},
        # integer values
        {f: len(f) - 1 for f in path},
    ]
    for domain in (tri, tet, path):
        for _ in range(40):
            out.append({f: Fraction(rng.randint(-9, 9), rng.choice(primes))
                        for f in domain})
            # ties within a dimension and across one
            out.append({f: Fraction(rng.randint(-2, 2) + len(f), 2)
                        for f in domain})
    return out


def test_morse_check_matches_the_per_face_oracle():
    for values in hand_made_functions():
        f = DiscreteMorseFunction(values, frozenset(values))
        try:
            matching = gradient_of(f).matching
        except ValueError:
            matching = None
        for W in (None, gradient_of(f) if matching is not None else None):
            rep = validate_morse_function(f, W)
            assert (rep.errors, rep.exceptions, rep.gradient_matches) == \
                old_validate_morse_function(f, W), values
        drops, rises = old_drops_and_rises(f)
        new_drops, new_rises = morse._drops_and_rises(f)
        assert {s: sorted(c) for s, c in new_drops.items()} == \
            {s: sorted(c) for s, c in drops.items()}
        assert dict(new_rises) == dict(rises)


def test_morse_check_reads_values_on_the_domain_only():
    # a value off the domain is not compared; a domain face without one
    # raises, as in the earlier code
    values = {(0,): Fraction(0), (1,): Fraction(1), (0, 1): Fraction(1, 2),
              (1, 2): Fraction(0)}
    f = DiscreteMorseFunction(values, frozenset(list(values)[:3]))
    rep = validate_morse_function(f)
    assert (rep.errors, rep.exceptions, rep.gradient_matches) == \
        old_validate_morse_function(f)
    assert rep.exceptions == {(1,): (1, 0), (0, 1): (0, 1)}
    with pytest.raises(KeyError):
        validate_morse_function(DiscreteMorseFunction(
            values, frozenset(values) | {(2,)}))


def test_from_list_rejects_a_face_given_twice():
    with pytest.raises(ValueError, match=r"face \(0, 1\) has two values"):
        DiscreteMorseFunction.from_list([[[0, 1], 1, 2], [[0], 0, 1],
                                         [[1, 0], 3, 4]])
    f = DiscreteMorseFunction.from_list([[[0, 1], 1, 2], [[0], 0, 1]])
    assert f.values == {(0, 1): Fraction(1, 2), (0,): Fraction(0)}


def test_picker_takes_any_lists_of_positions():
    cl = (4, 6, 9, 10, 15)
    for parts in ([(0, 1, 3)], [(2,)], [], [()], [(0, 2, 4), (1, 2)],
                  [(0, 1, 3), (2, 4)], [(1, 3), (), (4,)], [(2,), (0,)],
                  list(faces_of(tuple(range(5))))):
        picked = complexes._picker(parts)(cl)
        assert picked == tuple(tuple(cl[i] for i in p) for p in parts), parts
