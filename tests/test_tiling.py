"""Tiling and shelling validation, censuses, skeleton tilings, search."""

import random
from itertools import combinations, permutations

import pytest

from morseshell import tiling
from morseshell.complexes import (
    euler_characteristic,
    make_complex,
)
from morseshell.tiles import MorseTile, boundary_partition, standard_tile
from morseshell.tiling import (
    MorseTiling,
    NotShellableError,
    SearchBudgetExceeded,
    classical_shelling_order,
    critical_vector,
    h_table,
    search_shelling,
    skeleton_tiling,
    validate_shelling,
    validate_tiling,
)


def full_simplex(n):
    return make_complex([range(n + 1)])


def boundary_simplex(n):
    return make_complex(combinations(range(n + 1), n))


def sphere_partition(n):
    """The boundary of the (n+1)-simplex split into one basic tile of each
    order 0..n+1, in shelling order."""
    K = boundary_simplex(n + 1)
    tiles = boundary_partition(standard_tile(n + 1, 0))
    return MorseTiling.over_complex(K, tiles, ordered=True)


def test_sphere_partition_is_valid_shelling():
    for n in range(1, 5):
        t = sphere_partition(n)
        assert [tile.order for tile in t.tiles] == list(range(n + 2))
        assert validate_tiling(t).valid
        assert validate_shelling(t).valid


def test_sphere_partition_critical_vector():
    for n in range(1, 5):
        cv = critical_vector(sphere_partition(n))
        expect = [0] * (n + 1)
        expect[0] = expect[n] = 1
        assert list(cv.counts) == ([2] if n == 0 else expect)
        assert cv.euler_characteristic == 1 + (-1) ** n
        assert cv.consistent


def test_single_closed_simplex_tile_is_valid():
    K = full_simplex(3)
    t = MorseTiling.over_complex(K, [MorseTile((0, 1, 2, 3))], ordered=True)
    assert validate_shelling(t).valid
    assert critical_vector(t).counts == (1, 0, 0, 0)


def test_trivial_open_face_partition_is_invalid():
    K = full_simplex(2)
    tiles = [MorseTile(f, frozenset(f)) for f in sorted(K.faces)]
    t = MorseTiling.over_complex(K, tiles)
    rep = validate_tiling(t)
    assert not rep.valid
    assert any("subcomplex trace" in e for e in rep.errors)


def test_partition_must_cover_carrier():
    K = full_simplex(2)
    t = MorseTiling.over_complex(K, [MorseTile((0, 1, 2), frozenset({0}))])
    rep = validate_tiling(t)
    assert not rep.valid
    assert any("not covered" in e for e in rep.errors)


def test_shelling_prefix_failure_detected():
    # same tiles as the sphere partition but with the open tile first
    t = sphere_partition(2)
    bad = MorseTiling(t.ambient, t.carrier,
                      (t.tiles[3], t.tiles[0], t.tiles[1], t.tiles[2]),
                      ordered=True)
    assert validate_tiling(bad).valid
    rep = validate_shelling(bad)
    assert not rep.valid
    assert any(e.startswith("prefix 1:") for e in rep.errors)


def path_complex(n):
    """The path on vertices 0..n-1: 2n - 1 faces."""
    return make_complex([(i, i + 1) for i in range(n - 1)])


@pytest.mark.parametrize("K, listed", [
    (path_complex(50), 99),
    (make_complex([(i, i + 1) for i in range(49)] + [(60,)]), 100),
    (path_complex(51), 101),
    (path_complex(200), 101)])
def test_validate_tiling_lists_at_most_100_errors(K, listed):
    rep = validate_tiling(MorseTiling.over_complex(K, []))
    assert not rep.valid
    assert len(rep.errors) == listed
    uncovered = [f"carrier face {f} is not covered by any tile"
                 for f in sorted(K.faces)]
    assert rep.errors[:100] == uncovered[:100]
    if len(K.faces) > 100:
        assert rep.errors[100] == (f"{len(K.faces)} errors in all; the first"
                                   " 100 are listed")


@pytest.mark.parametrize("dropped", [1, 60])
def test_validate_shelling_bounds_tiling_and_prefix_errors_together(
        dropped, monkeypatch):
    # the reversed shelling of a path misses a vertex at every prefix, and
    # each dropped tile leaves its faces uncovered
    K = path_complex(121)
    tiles = search_shelling(K).tiles

    def build():
        return MorseTiling.over_complex(K, tiles[::-1][dropped:], ordered=True)

    with monkeypatch.context() as m:  # the whole list, on its own tiling
        m.setattr(tiling, "MAX_ERRORS", 10 ** 9)
        full = validate_shelling(build()).errors
    assert len(full) > 100
    assert any(e.startswith("prefix") for e in full)
    assert any("not covered" in e for e in full)
    rep = validate_shelling(build())
    assert not rep.valid
    assert rep.errors == full[:100] + [f"{len(full)} errors in all; the"
                                       " first 100 are listed"]


def test_nonclassical_shelling_with_connecting_edge():
    # two closed segments joined afterwards by a bare open edge
    K = make_complex([[0, 1], [1, 2]])
    tiles = (MorseTile((0, 1)), MorseTile((1, 2), frozenset({2})))
    assert validate_shelling(MorseTiling.over_complex(K, tiles, ordered=True)).valid
    # the open edge may connect two separately shelled closed edges
    K2 = make_complex([[0, 1], [2, 3], [1, 2]])
    tiles2 = (MorseTile((0, 1)), MorseTile((2, 3)),
              MorseTile((1, 2), frozenset({1, 2})))
    rep = validate_shelling(MorseTiling.over_complex(K2, tiles2, ordered=True))
    assert rep.valid


def test_classical_shelling_of_boundary_simplex():
    K = boundary_simplex(3)
    for order in permutations(K.maximal_simplices):
        t = classical_shelling_order(K, order)
        assert [tile.order for tile in t.tiles] == [0, 1, 2, 3]
        assert validate_shelling(t).valid


def test_classical_shelling_rejects_vertex_glued_triangles():
    K = make_complex([[0, 1, 2], [0, 3, 4]])
    with pytest.raises(NotShellableError) as exc:
        classical_shelling_order(K, [(0, 1, 2), (0, 3, 4)])
    assert exc.value.index == 1


def test_classical_shelling_single_simplex():
    K = full_simplex(2)
    t = classical_shelling_order(K, [(0, 1, 2)])
    assert t.tiles == (MorseTile((0, 1, 2)),)


def test_classical_shelling_rejects_bad_permutation():
    K = boundary_simplex(3)
    with pytest.raises(ValueError):
        classical_shelling_order(K, [(0, 1, 2)])


def test_h_table_vertex_identity():
    for n in range(1, 5):
        tab = h_table(sphere_partition(n))
        assert tab.order_census(n) == tuple([1] * (n + 2))
        assert tab.vertex_count == n + 2
        assert tab.vertex_identity_holds


def test_h_table_example_counts():
    tab = h_table(sphere_partition(2))
    assert tab.basic[(2, 0)] == 1 and tab.basic[(2, 1)] == 1
    assert tab.weighted_order_zero + tab.order_one_total == 4


def test_tile_chi_additivity():
    for n in range(1, 5):
        t = sphere_partition(n)
        assert sum(euler_characteristic(x.extension) for x in t.tiles) == \
            euler_characteristic(t.carrier)


def test_skeleton_tiling_of_sphere_partition():
    t = sphere_partition(2)
    s = skeleton_tiling(t, 1)
    assert validate_tiling(s).valid
    assert validate_shelling(s).valid
    assert s.carrier == frozenset(f for f in t.carrier if len(f) <= 2)
    # every skeleton tile sits inside exactly one original tile
    for piece in s.tiles:
        owners = [tile for tile in t.tiles if piece.extension <= tile.extension]
        assert len(owners) == 1


def test_skeleton_tiling_above_dim_is_identity():
    t = sphere_partition(2)
    assert skeleton_tiling(t, 5) is t


def test_skeleton_tiling_of_shelled_solid_simplex():
    K = full_simplex(3)
    t = classical_shelling_order(K, [(0, 1, 2, 3)])
    for j in (2, 1, 0):
        s = skeleton_tiling(t, j)
        assert validate_shelling(s).valid


def test_skeleton_tiling_keeps_a_lower_tile():
    t = search_shelling(make_complex([(0, 1, 2), (2, 3)]))
    kept = MorseTile((2, 3), frozenset({3}))
    assert t.tiles[-1] == kept
    s = skeleton_tiling(t, 1)
    assert s.tiles[-1] == kept
    assert validate_shelling(s).valid


def test_validate_shelling_rejects_an_unordered_tiling():
    t = MorseTiling.over_complex(full_simplex(2), [MorseTile((0, 1, 2))])
    with pytest.raises(ValueError, match="not marked as ordered"):
        validate_shelling(t)


def test_validate_tiling_reports_an_empty_tile():
    t = MorseTiling.over_complex(full_simplex(1),
                                 [MorseTile((0, 1)), MorseTile(())])
    rep = validate_tiling(t)
    assert not rep.valid
    assert "tile 1 is empty" in rep.errors


def test_validate_tiling_reports_a_face_outside_the_carrier():
    K = full_simplex(1)
    t = MorseTiling(K, frozenset({(0,), (0, 1)}), (MorseTile((0, 1)),))
    rep = validate_tiling(t)
    assert not rep.valid
    assert "face (1,) is covered but lies outside the carrier" in rep.errors


def test_skeleton_tiling_chain_matches_direct():
    t = sphere_partition(3)
    via_two = skeleton_tiling(skeleton_tiling(t, 2), 1)
    direct = skeleton_tiling(t, 1)
    assert via_two.tiles == direct.tiles


def test_pack_simplices_sphere_partition():
    from morseshell.tiling import pack_simplices
    t = sphere_partition(2)
    packed = pack_simplices(t)
    # one triangle for the closed tile, one for the order-one tile
    assert len(packed) == 2
    assert all(len(s) == 3 for s in packed)
    assert not (set(packed[0]) & set(packed[1]))


def test_pack_simplices_single_closed_simplex():
    from morseshell.tiling import pack_simplices
    K = full_simplex(3)
    t = MorseTiling.over_complex(K, [MorseTile((0, 1, 2, 3))], ordered=True)
    packed = pack_simplices(t)
    assert len(packed) == 1 and len(packed[0]) == 4


def test_search_shelling_finds_boundary_simplex():
    K = boundary_simplex(3)
    t = search_shelling(K)
    assert t is not None
    assert validate_shelling(t).valid
    # lexicographically first ordering keeps the maximal simplices sorted
    assert [tile.closure for tile in t.tiles] == list(K.maximal_simplices)


def test_search_shelling_single_simplex():
    t = search_shelling(full_simplex(2))
    assert t is not None and len(t.tiles) == 1


def test_search_shelling_mixed_dimension():
    K = make_complex([[0, 1, 2], [2, 3], [4]])
    t = search_shelling(K)
    assert t is not None
    assert validate_shelling(t).valid


def test_search_finds_morse_but_not_classical_shelling():
    # two triangles glued at a vertex: every classical ordering fails, but
    # the triangle-minus-a-vertex difference is still a Morse tile
    K = make_complex([[0, 1, 2], [0, 3, 4]])
    for order in permutations(K.maximal_simplices):
        with pytest.raises(NotShellableError):
            classical_shelling_order(K, order)
    t = search_shelling(K)
    assert t is not None
    assert validate_shelling(t).valid
    assert any(not tile.is_basic for tile in t.tiles)


def test_subdivide_mixed_dimension_tiling():
    from morseshell.tiling import subdivide_tiling as sd
    K = make_complex([[0, 1, 2], [2, 3], [4]])
    t = search_shelling(K)
    assert t is not None
    s = sd(t, 1)
    assert validate_shelling(s).valid
    assert critical_vector(s).counts == critical_vector(t).counts


def brute_force_has_shelling(K):
    """Independent oracle: try every ordering of maximal simplices and
    validate the induced tiling directly."""
    from morseshell.complexes import faces_of
    from morseshell.tiles import NotMorseTileError, normalize_tile

    for order in permutations(K.maximal_simplices):
        covered = set()
        tiles = []
        ok = True
        for s in order:
            ext = set(faces_of(s)) - covered
            try:
                tiles.append(normalize_tile(ext))
            except NotMorseTileError:
                ok = False
                break
            covered |= ext
        if ok and validate_shelling(
                MorseTiling.over_complex(K, tiles, ordered=True)).valid:
            return True
    return False


def test_search_shelling_matches_brute_force():
    from morseshell.catalog import untileable_wheel
    corpus = [
        boundary_simplex(3),
        make_complex([[0, 1, 2], [0, 3, 4]]),
        make_complex([[0, 1, 2], [1, 2, 3], [2, 3, 4]]),
        make_complex([[0, 1], [1, 2], [0, 2]]),
        make_complex([[0, 1, 2], [3, 4], [5]]),
        make_complex([[0, 1, 2], [0, 1, 3], [2, 3]]),
        untileable_wheel(),
        make_complex([[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 0, 1]]),
    ]
    for K in corpus:
        found = search_shelling(K)
        assert (found is not None) == brute_force_has_shelling(K)
        if found is not None:
            assert validate_shelling(found).valid


def test_search_sweep_over_all_small_complexes():
    # every complex on up to four vertices: the search agrees with the
    # brute-force oracle, and found shellings carry acyclic fields with
    # valid Morse functions
    from itertools import combinations as combs

    from morseshell.morse import (
        compatible_field,
        find_closed_vpath,
        morse_function,
        validate_morse_function,
    )

    universe = [f for r in range(1, 5) for f in combs(range(4), r)]
    seen = set()
    complexes = []
    for bits in range(1, 1 << len(universe)):
        chosen = [f for i, f in enumerate(universe) if bits >> i & 1]
        K = make_complex(chosen)
        if K.maximal_simplices in seen:
            continue
        seen.add(K.maximal_simplices)
        complexes.append(K)
    assert len(complexes) > 100
    found = 0
    for K in complexes:
        t = search_shelling(K)
        assert (t is not None) == brute_force_has_shelling(K), K.maximal_simplices
        if t is None:
            continue
        found += 1
        assert validate_shelling(t).valid
        W = compatible_field(t)
        assert find_closed_vpath(W) is None
        f = morse_function(W)
        assert validate_morse_function(f, W).valid
    assert found > 0


def test_search_shelling_budget():
    K = boundary_simplex(4)
    with pytest.raises(SearchBudgetExceeded):
        search_shelling(K, budget=2)


def test_search_shelling_rejects_negative_budget():
    with pytest.raises(ValueError, match="non-negative"):
        search_shelling(boundary_simplex(4), budget=-3)


def test_validate_tiling_skips_faces_of_a_closure_off_the_complex():
    # 2^40 faces, none enumerated; the complex's one point stays uncovered
    t = MorseTiling.over_complex(make_complex([(0,)]),
                                 [MorseTile(tuple(range(40)))], ordered=True)
    rep = validate_shelling(t)
    assert rep.errors == [
        f"tile 0: closure {tuple(range(40))} is not a simplex of the ambient"
        " complex", "carrier face (0,) is not covered by any tile"]


def test_search_shelling_long_path():
    # one stack frame per maximal simplex: far past the recursion limit
    K = make_complex([(i, i + 1) for i in range(1200)])
    t = search_shelling(K)
    assert len(t.tiles) == 1200
    assert validate_shelling(t).valid


def recursive_search_shelling(K, budget):
    """Oracle: the search as one recursive call per attached simplex, with
    the coface half of the admissibility check, which the explicit-stack
    search leaves out."""
    from collections import defaultdict

    from morseshell.complexes import faces_of
    from morseshell.tiles import NotMorseTileError, normalize_tile

    ms = list(K.maximal_simplices)
    n = len(ms)
    face_lists = [sorted(faces_of(s)) for s in ms]
    cofaces = defaultdict(list)
    for f in K.faces:
        for r in range(1, len(f)):
            for sub in combinations(f, r):
                cofaces[sub].append(f)
    tile_dim = {}
    covered = set()
    used = [False] * n
    chosen = []
    nodes = 0

    def admissible(ext, d):
        for f in ext:
            for r in range(1, len(f)):
                for sub in combinations(f, r):
                    ds = tile_dim.get(sub)
                    if ds is not None and ds < d:
                        return False
            for sup in cofaces[f]:
                ds = tile_dim.get(sup)
                if ds is not None and ds > d:
                    return False
        return True

    def rec():
        nonlocal nodes
        if len(chosen) == n:
            return []
        for i in range(n):
            if used[i]:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"gave up after {budget} search nodes")
            ext = [f for f in face_lists[i] if f not in covered]
            try:
                tile = normalize_tile(ext)
            except NotMorseTileError:
                continue
            if not admissible(ext, tile.dim):
                continue
            used[i] = True
            chosen.append(i)
            covered.update(ext)
            for f in ext:
                tile_dim[f] = tile.dim
            rest = rec()
            if rest is not None:
                return [tile] + rest
            used[i] = False
            chosen.pop()
            covered.difference_update(ext)
            for f in ext:
                del tile_dim[f]
        return None

    return rec()


def search_outcome(search, K, budget):
    try:
        tiles = search(K, budget)
    except SearchBudgetExceeded:
        return "budget exceeded"
    if isinstance(tiles, MorseTiling):
        tiles = list(tiles.tiles)
    return tiles


def test_search_shelling_matches_recursive_oracle():
    # random mixed-dimension complexes: 4-7 vertices, simplices of 1-4
    # vertices; every outcome (tiles, None, budget) occurs at both budgets
    kinds = set()
    for seed in range(400):
        rng = random.Random(seed)
        nv = rng.randint(4, 7)
        K = make_complex([rng.sample(range(nv), rng.randint(1, 4))
                          for _ in range(rng.randint(3, 20))])
        for budget in (50, 10_000):
            got = search_outcome(search_shelling, K, budget)
            assert got == search_outcome(recursive_search_shelling, K,
                                         budget), (seed, budget)
            kinds.add((budget, got if isinstance(got, str)
                       else type(got).__name__))
    assert len(kinds) == 6


def test_tiling_json_round_trip():
    t = sphere_partition(2)
    back = MorseTiling.from_dict(t.to_dict())
    assert back.tiles == t.tiles
    assert back.carrier == t.carrier
    assert back.ordered
    sub = MorseTiling(t.ambient, frozenset([(0, 1, 2)]),
                      (MorseTile((0, 1, 2), frozenset((0, 1, 2))),), False)
    back = MorseTiling.from_dict(sub.to_dict())
    assert back.carrier == sub.carrier


def test_tiling_from_dict_requires_a_bool_ordered_flag():
    data = sphere_partition(2).to_dict()
    for bad in ("no", "false", 1, 0, None, [True]):
        with pytest.raises(ValueError, match="ordered"):
            MorseTiling.from_dict(data | {"ordered": bad})
    assert MorseTiling.from_dict(data | {"ordered": False}).ordered is False
    del data["ordered"]
    assert MorseTiling.from_dict(data).ordered is False
