"""Barycentric subdivision of tiles and tilings."""

import math
import random
from itertools import combinations
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell import complexes, tiling
from morseshell.catalog import moebius_kantor_torus, surface_corpus
from morseshell.complexes import (
    BarycentricSubdivision,
    Simplex,
    barycentric_subdivision,
    make_complex,
)
from morseshell.generators import HANDLE_VARIANTS, handle_tiling, shell_surface
from morseshell.tiles import (
    MorseTile,
    NotMorseTileError,
    _recognise,
    boundary_partition,
    cone,
    critical_tile,
    interval,
    standard_morse_tile,
    standard_tile,
)
from morseshell.tiling import (
    MorseTiling,
    SearchBudgetExceeded,
    critical_vector,
    h_table,
    pack_simplices,
    search_shelling,
    skeleton_tiling,
    subdivide_tile,
    subdivide_tiling,
    validate_shelling,
    validate_tiling,
)


def all_tiles(n):
    out = [standard_tile(n, k) for k in range(n + 2)]
    for k in range(n + 1):
        for l in range(max(k - 1, 0), n - 1):
            out.append(standard_morse_tile(n, k, l))
    return out


def boundary_simplex(n):
    return make_complex(combinations(range(n + 1), n))


def sphere_partition(n):
    K = boundary_simplex(n + 1)
    tiles = boundary_partition(standard_tile(n + 1, 0))
    return MorseTiling.over_complex(K, tiles, ordered=True)


def test_subdivided_segment_tiles():
    t = subdivide_tile(standard_tile(1, 0))
    assert [x.order for x in t.tiles] == [0, 1]
    assert validate_shelling(t).valid

    t = subdivide_tile(standard_tile(1, 1))
    assert [x.order for x in t.tiles] == [1, 1]
    assert all(x.dim == 1 for x in t.tiles)

    t = subdivide_tile(standard_tile(1, 2))
    assert sorted(x.order for x in t.tiles) == [1, 2]


def test_subdivided_triangle_order_census():
    t = subdivide_tile(standard_tile(2, 0))
    tab = h_table(t)
    assert tab.order_census(2) == (1, 4, 1, 0)
    assert validate_shelling(t).valid


def test_subdivided_triangle_census_matches_h_vector():
    # h-vector of the subdivided triangle computed straight from its face
    # numbers f = (7, 12, 6): sum_i f_{i-1} (x-1)^{d-i} = sum_k h_k x^{d-k}
    f = (1, 7, 12, 6)
    d = 3
    coeffs = [0] * (d + 1)
    for i, fi in enumerate(f):
        # expand fi * (x-1)^(d-i)
        e = d - i
        for j in range(e + 1):
            coeffs[d - (e - j)] += fi * ((-1) ** j) * math.comb(e, j)
    h = tuple(coeffs)
    tab = h_table(subdivide_tile(standard_tile(2, 0)))
    assert tab.order_census(2) == h


def test_subdivision_counts_and_validity_small():
    for n in range(1, 4):
        for tile in all_tiles(n):
            t = subdivide_tile(tile)
            assert len(t.tiles) == math.factorial(n + 1)
            assert all(x.dim == n for x in t.tiles)
            assert validate_shelling(t).valid, (tile, validate_shelling(t).errors[:3])


def test_subdivision_preserves_critical_census_small():
    for n in range(1, 4):
        for tile in all_tiles(n):
            t = subdivide_tile(tile)
            cv = critical_vector(t)
            if tile.is_critical:
                expect = [0] * (n + 1)
                expect[tile.index] = 1
                assert list(cv.counts) == expect, (tile, cv)
            else:
                assert cv.total == 0, (tile, cv)


def test_subdivision_carrier_is_extension_trace():
    tile = standard_morse_tile(3, 1, 1)
    t = subdivide_tile(tile)
    union = set()
    for x in t.tiles:
        assert not (union & x.extension)
        union |= x.extension
    assert union == t.carrier


def test_subdivision_regular_piece_shapes():
    # pieces of a subdivided critical tile are basic or share the removed
    # dimension pattern of the input
    tile = critical_tile(3, 2)
    t = subdivide_tile(tile)
    for x in t.tiles:
        if x.is_basic or x.is_critical:
            continue
        assert x.removed_dim == tile.index - 1
        assert 0 < x.order < tile.index


def test_subdivision_piece_shapes_all_inputs():
    # non-basic output pieces always inherit the input's removed dimension,
    # with orders bounded by it
    for n in range(1, 5):
        for tile in all_tiles(n):
            t = subdivide_tile(tile)
            for x in t.tiles:
                if x.is_basic:
                    continue
                if tile.is_critical:
                    if x.index == tile.index and x.removed_dim == tile.index - 1 \
                            and x.order == tile.index:
                        continue  # the single preserved critical tile
                    assert not x.is_critical
                    assert x.removed_dim == tile.index - 1
                    assert 0 < x.order < tile.index
                else:
                    assert not tile.is_basic
                    assert not x.is_critical
                    assert x.removed_dim == tile.removed_dim
                    low = 0 if tile.order == 0 else 1
                    assert low <= x.order <= tile.removed_dim


def test_subdivide_tiling_identity():
    t = sphere_partition(2)
    assert subdivide_tiling(t, 0) is t


def test_subdivide_tiling_sphere():
    t = subdivide_tiling(sphere_partition(2), 1)
    assert len(t.tiles) == 24
    assert validate_shelling(t).valid
    assert list(critical_vector(t).counts) == [1, 0, 1]


def test_subdivide_tiling_twice_on_triangle():
    K = make_complex([[0, 1, 2]])
    base = MorseTiling.over_complex(K, [MorseTile((0, 1, 2))], ordered=True)
    t = subdivide_tiling(base, 2)
    assert len(t.tiles) == 36
    assert validate_shelling(t).valid
    assert list(critical_vector(t).counts) == [1, 0, 0]


def test_subdivide_tiling_preserves_critical_vector():
    for n in (1, 2):
        t = sphere_partition(n)
        before = critical_vector(t).counts
        after = critical_vector(subdivide_tiling(t, 1)).counts
        assert before == after


def test_subdivide_empty_tile_rejected():
    from morseshell.tiles import EMPTY_TILE
    with pytest.raises(ValueError):
        subdivide_tile(EMPTY_TILE)


def test_subdivide_generator_outputs_preserve_critical_vector():
    from morseshell.catalog import moebius_kantor_torus
    from morseshell.generators import handle_tiling, shell_surface

    cases = [shell_surface(moebius_kantor_torus()),
             handle_tiling(2, "one-handle"),
             handle_tiling(3, "co-handle"),
             handle_tiling(3, "lateral")]
    for t in cases:
        before = critical_vector(t).counts
        s = subdivide_tiling(t, 1)
        assert validate_shelling(s).valid
        assert critical_vector(s).counts == before
        assert len(s.tiles) == sum(math.factorial(x.dim + 1) for x in t.tiles)


def test_subdivide_proper_carrier_trace():
    # subdividing a tiled subset keeps the carrier a subdivision trace
    from morseshell.generators import handle_tiling
    t = handle_tiling(2, "one-handle")
    s = subdivide_tiling(t, 1)
    union = set()
    for x in s.tiles:
        assert not (union & x.extension)
        union |= x.extension
    assert union == s.carrier
    assert s.carrier < s.ambient.faces


# -- per-shape templates against the per-tile construction -------------------


def _sd_basic_shelling(closure: Simplex, witnesses: frozenset[int],
                       face_vertex: Mapping[Simplex, int],
                       target: frozenset[int] = frozenset()) -> list[MorseTile]:
    """Shelling of the subdivided basic tile on the given closure, in flag
    coordinates mapped through ``face_vertex``.

    The boundary partition (removed facets first) is subdivided recursively
    and coned from the barycenter; only the globally first cone keeps its
    apex, and cones over subdivided removed facets lose their bases.

    ``target`` aligns the facet descent: its vertices are dropped last, so
    the flags over the target face end up as bases of cone towers.  This is
    what lets an extra removed face be subtracted tile by tile afterwards.
    """
    n = len(closure) - 1
    if n == 0:
        v = face_vertex[closure]
        return [MorseTile((v,), frozenset((v,)) if witnesses else frozenset())]
    k = len(witnesses)
    rest = set(closure) - witnesses
    order = (sorted(witnesses) + sorted(rest - target) + sorted(rest & target))
    pieces: list[tuple[int, MorseTile]] = []
    for j, w in enumerate(order):
        sub_closure = tuple(x for x in closure if x != w)
        sub_witnesses = frozenset(order[:j])
        sub_target = target & set(sub_closure)
        for u in _sd_basic_shelling(sub_closure, sub_witnesses, face_vertex,
                                    sub_target):
            pieces.append((j, u))
    apex = face_vertex[closure]
    out = []
    for p, (j, u) in enumerate(pieces):
        out.append(cone(u, apex, keep_apex=(p == 0), remove_base=(j < k)))
    return out


def _subdivided_tiles(tile: MorseTile,
                      sd: BarycentricSubdivision) -> list[MorseTile]:
    target = frozenset() if tile.removed_face is None else \
        frozenset(tile.removed_face)
    basic = _sd_basic_shelling(tile.closure, tile.witnesses, sd.face_vertex,
                               target)
    if tile.removed_face is None:
        return basic
    removed = interval(tile.witnesses, tile.removed_face)
    out = []
    for u in basic:
        keep = {f for f in u.extension if sd.carrier_face(f) not in removed}
        try:
            out.append(u if len(keep) == len(u.extension) else _recognise(keep))
        except NotMorseTileError as exc:  # pragma: no cover
            raise RuntimeError("subdivision produced a piece that is not a"
                               " Morse tile; this is a bug") from exc
    return out


def per_tile_subdivide_tiling(t, iterations=1):
    """Oracle: subdivide every tile through the recursive cone construction
    on its own labels, with no shared templates."""
    cur = t
    for _ in range(iterations):
        sd = barycentric_subdivision(cur.ambient)
        tiles = []
        for tile in cur.tiles:
            tiles.extend(_subdivided_tiles(tile, sd))
        carrier = sd.faces_over(cur.carrier)
        cur = MorseTiling(sd.complex, carrier, tuple(tiles), cur.ordered)
    return cur


def assert_same_subdivision(t, iterations):
    new = subdivide_tiling(t, iterations)
    old = per_tile_subdivide_tiling(t, iterations)
    assert new.tiles == old.tiles
    assert new.to_dict() == old.to_dict()


@pytest.mark.parametrize("name,K", surface_corpus(),
                         ids=[name for name, _ in surface_corpus()])
def test_templates_match_per_tile_on_catalog_surfaces(name, K):
    t = shell_surface(K)
    for d in (1, 2, 3):
        assert_same_subdivision(t, d)
    # the skeletons add point and edge tiles, open points among them
    for j in (0, 1):
        assert_same_subdivision(skeleton_tiling(t, j), 1)


def test_open_points_stay_open_after_subdivision():
    # attaching an open point would give back the closed point
    t = skeleton_tiling(shell_surface(moebius_kantor_torus()), 0)
    assert len(t.tiles) == 7
    assert sum(x.order == 1 for x in t.tiles) == 6
    s = subdivide_tiling(t, 1)
    assert s.tiles == t.tiles  # vertex i of the torus is vertex i after it
    assert validate_shelling(s).valid


def test_templates_match_per_tile_on_handles():
    for n in range(2, 6):
        for variant in HANDLE_VARIANTS:
            t = handle_tiling(n, variant)
            assert t.carrier < t.ambient.faces
            assert_same_subdivision(t, 1)
            if n == 2:
                assert_same_subdivision(t, 2)


def test_templates_match_per_tile_on_relabelled_tiles():
    # every tile shape up to dimension 4, on scattered vertex labels inside
    # a larger complex, so positions and labels differ
    rng = random.Random(6)
    for n in range(0, 5):
        for tile in all_tiles(n):
            for _ in range(3):
                labels = sorted(rng.sample(range(12), n + 1))
                relabel = dict(enumerate(labels))
                moved = MorseTile(
                    tuple(labels), frozenset(relabel[v] for v in tile.witnesses),
                    None if tile.removed_face is None
                    else tuple(relabel[v] for v in tile.removed_face))
                K = make_complex([labels, [labels[0], 12], [12, 13, 14]])
                t = MorseTiling(K, moved.extension, (moved,), True)
                assert validate_tiling(t).valid
                assert_same_subdivision(t, 1)
                if n <= 2:
                    assert_same_subdivision(t, 2)


def test_templates_match_per_tile_on_mixed_shapes():
    # every shape of dimension 2 and 3 twice, each on its own simplex, so
    # regular and critical tiles with a removed face share one tiling and
    # each template serves two tiles
    shapes = [x for n in (2, 3) for x in all_tiles(n)] * 2
    tiles, start = [], 0
    for x in shapes:
        tiles.append(MorseTile(
            tuple(v + start for v in x.closure),
            frozenset(v + start for v in x.witnesses),
            None if x.removed_face is None
            else tuple(v + start for v in x.removed_face)))
        start += len(x.closure)
    K = make_complex([x.closure for x in tiles])
    t = MorseTiling(K, frozenset().union(*(x.extension for x in tiles)),
                    tuple(tiles), True)
    assert validate_tiling(t).valid
    assert any(x.removed_face is not None and x.is_critical for x in tiles)
    assert any(x.removed_face is not None and not x.is_critical for x in tiles)
    for d in (1, 2):
        assert_same_subdivision(t, d)


def test_face_numbering_readers_build_no_flags(monkeypatch):
    t = subdivide_tiling(shell_surface(moebius_kantor_torus()), 1)
    packed = pack_simplices(t)

    def refuse(*args):
        raise AssertionError("maximal flags built")

    monkeypatch.setattr(complexes, "_maximal_flags", refuse)
    sd = barycentric_subdivision(t.ambient)
    assert sd.vertex_face == tuple(sorted(t.ambient.faces,
                                          key=lambda f: (len(f), f)))
    assert pack_simplices(t) == packed
    subs, pieces = tiling._tile_template(6, (), None)
    assert len(subs) == 2 ** 6 - 1
    assert len(pieces) == math.factorial(6)


# mixed-dimensional complexes on up to 7 vertices, up to 8 simplices of
# dimension at most 3
small_complexes = st.integers(3, 7).flatmap(lambda n: st.lists(
    st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
    min_size=1, max_size=8)).map(make_complex)


@settings(max_examples=150, deadline=None)
@given(small_complexes)
def test_subdivided_search_shellings_stay_shellings(K):
    try:
        t = search_shelling(K, budget=300)
    except SearchBudgetExceeded:
        return
    if t is None:
        return
    s = subdivide_tiling(t, 1)
    assert validate_shelling(s).valid
    assert critical_vector(s).counts == critical_vector(t).counts
    assert len(s.tiles) == sum(math.factorial(x.dim + 1) for x in t.tiles)
    assert s.to_dict() == per_tile_subdivide_tiling(t, 1).to_dict()
