"""Tile algebra: construction, Euler characteristics, partitions, cones,
recognition."""

from itertools import permutations

import pytest

from morseshell.complexes import euler_characteristic
from morseshell.tiles import (
    EMPTY_TILE,
    MorseTile,
    NotMorseTileError,
    boundary_partition,
    codim1_partition,
    cone,
    critical_tile,
    normalize_tile,
    skeleton_partition,
    standard_morse_tile,
    standard_tile,
)


def all_tiles(n):
    """Every normal-form tile of dimension n (basic plus extra-face ones)."""
    out = [standard_tile(n, k) for k in range(n + 2)]
    for k in range(n + 1):
        for l in range(max(k - 1, 0), n - 1):
            out.append(standard_morse_tile(n, k, l))
    return out


def set_cone(ext, apex, keep_apex, remove_base):
    """Independent set-level cone on extensions."""
    out = set()
    if keep_apex:
        out.add((apex,))
    for f in ext:
        out.add(tuple(sorted(f + (apex,))))
        if not remove_base:
            out.add(f)
    return out


def test_standard_tile_shapes():
    t = standard_tile(2, 0)
    assert len(t.extension) == 7
    assert standard_tile(2, 3).extension == frozenset({(0, 1, 2)})
    assert standard_tile(2, 1).extension == frozenset(
        {(0,), (0, 1), (0, 2), (0, 1, 2)})
    with pytest.raises(ValueError):
        standard_tile(2, 4)


def test_basic_tile_face_counts():
    for n in range(0, 9):
        for k in range(n + 2):
            t = standard_tile(n, k)
            expected = 2 ** (n + 1 - k) - (1 if k == 0 else 0)
            assert len(t.extension) == expected


def test_extra_face_removes_an_interval():
    for n in range(1, 7):
        for k in range(n + 1):
            for l in range(max(k - 1, 0), n - 1):
                t = standard_morse_tile(n, k, l)
                basic = standard_tile(n, k)
                interval = {f for f in basic.extension
                            if set(f) <= set(range(l + 1))}
                assert t.extension == basic.extension - interval


def test_facet_removal_equals_order_bump():
    # removing a facet as the extra face is the same tile shape as raising
    # the order by one (the witness differs by the vertex relabelling)
    for n in range(1, 7):
        for k in range(n):
            t = standard_morse_tile(n, k, n - 1)
            assert t.is_basic and t.order == k + 1 and t.dim == n
            assert t.witnesses == frozenset(range(k)) | {n}
            relabel = {v: v for v in range(k)} | {n: k} | {
                v: v + 1 for v in range(k, n)}
            relabelled = {tuple(sorted(relabel[x] for x in f)) for f in t.extension}
            assert relabelled == set(standard_tile(n, k + 1).extension)


def test_critical_tile_normal_forms():
    assert critical_tile(2, 0) == standard_tile(2, 0)
    assert critical_tile(2, 2) == standard_tile(2, 3)
    t = critical_tile(3, 2)
    assert t.extension == frozenset({(0, 1, 2), (0, 1, 3), (0, 1, 2, 3)})
    assert t.is_critical and t.index == 2


def test_kind_classification():
    assert standard_tile(3, 0).kind.label == "critical"
    assert standard_tile(3, 0).index == 0
    assert standard_tile(3, 4).index == 3
    assert standard_tile(3, 2).kind.label == "basic"
    assert standard_morse_tile(3, 1, 1).kind.label == "regular"
    assert standard_morse_tile(3, 1, 1).index is None


def test_point_tiles_share_extension():
    closed = standard_tile(0, 0)
    open_pt = standard_tile(0, 1)
    assert closed != open_pt
    assert closed.extension == open_pt.extension
    assert closed.index == 0 and open_pt.index == 0


def test_invalid_removed_face_rejected():
    with pytest.raises(ValueError):
        MorseTile((0, 1, 2), frozenset({0}), (1,))  # witness not inside
    with pytest.raises(ValueError):
        MorseTile((0, 1, 2), frozenset(), (0, 1, 2))  # whole closure
    with pytest.raises(ValueError):
        standard_morse_tile(3, 3, 1)  # k > l+1


@pytest.mark.parametrize("build", [standard_tile, critical_tile])
def test_negative_dimension_has_its_own_message(build):
    with pytest.raises(ValueError,
                       match="^dimension must be non-negative, got -1$"):
        build(-1, 0)


def test_chi_closed_forms():
    for n in range(0, 9):
        for k in range(n + 1):
            assert euler_characteristic(
                critical_tile(n, k).extension) == (-1) ** k
        for k in range(1, n + 1):
            assert euler_characteristic(standard_tile(n, k).extension) == 0
        for k in range(n + 1):
            for l in range(max(k - 1, 0), n - 1):
                t = standard_morse_tile(n, k, l)
                expect = (-1) ** k if t.is_critical else 0
                assert euler_characteristic(t.extension) == expect
    assert euler_characteristic(standard_tile(0, 0).extension) == 1
    assert euler_characteristic(standard_tile(3, 0).extension) == 1


def test_boundary_partition_basics():
    t = standard_tile(3, 1)
    parts = boundary_partition(t, (1, 2, 3))
    assert [p.order for p in parts] == [1, 2, 3]
    assert [p.closure for p in parts] == [(0, 2, 3), (0, 1, 3), (0, 1, 2)]

    parts = boundary_partition(standard_tile(2, 0), (0, 1, 2))
    assert [p.order for p in parts] == [0, 1, 2]

    parts = boundary_partition(standard_tile(1, 1))
    assert len(parts) == 1 and parts[0] == MorseTile((0,), frozenset({0}))
    assert parts[0].order == 1


def test_boundary_partition_rejects_nonbasic():
    with pytest.raises(ValueError):
        boundary_partition(standard_morse_tile(3, 1, 1))


def test_boundary_partition_is_partition_every_order():
    for n in range(1, 7):
        for k in range(n + 2):
            t = standard_tile(n, k)
            rest = sorted(set(t.closure) - t.witnesses)
            for order in permutations(rest):
                parts = boundary_partition(t, order)
                assert [p.order for p in parts] == list(range(k, n + 1))
                union = set()
                for p in parts:
                    assert not (union & p.extension)
                    union |= p.extension
                assert union | {t.closure} == t.extension


def test_skeleton_partition_of_basic_tiles():
    # exactly one piece of minimal order, all pieces of dimension j
    for n in range(1, 6):
        for k in range(n + 2):
            t = standard_tile(n, k)
            for j in range(0, n):
                parts = skeleton_partition(t, j)
                trace = {f for f in t.extension if len(f) - 1 <= j}
                if j < k - 1:
                    assert parts == [] and trace == set()
                    continue
                assert all(p.dim == j for p in parts)
                assert all(p.order >= k for p in parts)
                assert sum(1 for p in parts if p.order == k) == 1
                union = set()
                for p in parts:
                    assert not (union & p.extension)
                    union |= p.extension
                assert union == trace


def test_skeleton_partition_of_critical_tiles():
    t = critical_tile(3, 2)
    assert skeleton_partition(t, 1) == []
    parts = skeleton_partition(t, 2)
    # at level j == k every piece is an open simplex (index k each)
    assert all(p.order == 3 and p.is_critical and p.index == 2 for p in parts)
    # generic census over critical tiles
    for n in range(1, 6):
        for k in range(n + 1):
            t = critical_tile(n, k)
            for j in range(0, n):
                parts = skeleton_partition(t, j)
                trace = {f for f in t.extension if len(f) - 1 <= j}
                union = set()
                for p in parts:
                    assert not (union & p.extension)
                    union |= p.extension
                assert union == trace
                if j < k:
                    assert parts == []
                elif j == k == 0:
                    assert sum(1 for p in parts if p.order == 0) == 1
                    assert all(p.is_basic and p.order <= 1 for p in parts)
                elif j == k:
                    assert all(p.is_basic and p.order == j + 1 for p in parts)
                else:
                    crit = [p for p in parts if p.is_critical and p.index == k]
                    assert len(crit) == 1
                    assert all(p.is_basic and p.order > k
                               for p in parts if p is not crit[0])


def test_skeleton_partition_of_regular_tiles():
    for n in range(2, 6):
        for k in range(n + 1):
            for l in range(max(k, 1), n - 1):  # strictly regular: l >= k
                t = standard_morse_tile(n, k, l)
                for j in range(0, n):
                    parts = skeleton_partition(t, j)
                    trace = {f for f in t.extension if len(f) - 1 <= j}
                    union = set()
                    for p in parts:
                        assert not (union & p.extension)
                        union |= p.extension
                    assert union == trace
                    if j < k:
                        assert parts == []
                    elif j <= l:
                        assert all(p.is_basic and p.order > k for p in parts)
                    elif j == l + 1:
                        # the leftover piece rewrites to a basic tile of
                        # order k+1, merging into the basic census
                        assert all(p.is_basic and p.order > k for p in parts)
                    else:
                        special = [p for p in parts if not p.is_basic]
                        assert len(special) == 1
                        sp = special[0]
                        assert sp.order == k and sp.removed_dim == l
                        assert all(p.order > k for p in parts if p.is_basic)


def test_cone_laws_named_cases():
    c = 9
    t = cone(critical_tile(2, 1), c, keep_apex=False, remove_base=False)
    assert t == MorseTile((0, 1, 2, c), frozenset({0}), (0, c))
    assert t.order == 1 and t.removed_dim == 1 and not t.is_critical

    t = cone(standard_tile(2, 1), c, keep_apex=False, remove_base=True)
    assert t.is_basic and t.order == 2 and t.dim == 3

    t = cone(standard_tile(1, 0), c, keep_apex=True, remove_base=False)
    assert t.is_basic and t.order == 0 and t.dim == 2

    t = cone(critical_tile(2, 1), c, keep_apex=False, remove_base=True)
    assert t.is_critical and t.index == 2 and t.dim == 3

    with pytest.raises(ValueError):
        cone(standard_tile(2, 1), c, keep_apex=True)
    with pytest.raises(ValueError):
        cone(standard_tile(2, 1), 0)  # apex already a vertex


def test_cone_laws_extensionally():
    apex = 99
    for n in range(0, 6):
        for t in all_tiles(n):
            for keep in (False, True):
                for rb in (False, True):
                    if keep and not (t.is_basic and t.order == 0):
                        continue
                    got = cone(t, apex, keep_apex=keep, remove_base=rb)
                    want = set_cone(t.extension, apex, keep, rb)
                    assert got.extension == frozenset(want), (t, keep, rb)


def test_normalize_round_trip():
    for n in range(0, 7):
        for t in all_tiles(n):
            if t == standard_tile(0, 1):
                # indistinguishable from the closed point by extension
                assert normalize_tile(t.extension) == standard_tile(0, 0)
                continue
            assert normalize_tile(t.extension) == t


def test_normalize_relabelled_tiles():
    # arbitrary vertex ids, not just 0..n
    t = MorseTile((3, 7, 20, 21), frozenset({7}), (3, 7))
    assert normalize_tile(t.extension) == t


def test_normalize_examples():
    t = normalize_tile({(0,), (0, 1), (0, 2), (0, 1, 2)})
    assert t == standard_tile(2, 1)
    with pytest.raises(NotMorseTileError):
        normalize_tile({(0, 1, 2), (0, 1), (0, 2), (1, 2)})
    assert normalize_tile({(0, 1, 2)}) == standard_tile(2, 3)
    with pytest.raises(NotMorseTileError):
        normalize_tile({(0, 1), (2, 3)})
    with pytest.raises(NotMorseTileError):
        normalize_tile([])


def test_empty_tile():
    assert EMPTY_TILE.is_empty
    assert EMPTY_TILE.extension == frozenset()
    assert EMPTY_TILE.dim == -1
    with pytest.raises(ValueError):
        cone(EMPTY_TILE, 0)


def test_codim1_partition_covers_boundary():
    for n in range(1, 6):
        for t in all_tiles(n):
            parts = codim1_partition(t)
            union = set()
            for p in parts:
                assert p.dim == t.dim - 1
                assert not (union & p.extension)
                union |= p.extension
            assert union == {f for f in t.extension if len(f) - 1 <= t.dim - 1}


def test_tile_json_round_trip():
    for t in all_tiles(3):
        assert MorseTile.from_dict(t.to_dict()) == t


@pytest.mark.parametrize("witnesses, error", [
    ([2.0], "vertex ids must be non-negative"),
    ([True], "vertex ids must be non-negative"),
    (["2"], "vertex ids must be non-negative"),
    ([-1], "vertex ids must be non-negative"),
    ([2, 2], "duplicate vertex id 2")])
def test_tile_from_dict_takes_only_vertex_id_witnesses(witnesses, error):
    with pytest.raises(ValueError, match=error):
        MorseTile.from_dict({"closure": [1, 2], "removed_witnesses": witnesses})


@pytest.mark.parametrize("witnesses", [None, 0, False, 2])
def test_tile_from_dict_takes_only_a_witness_list(witnesses):
    with pytest.raises(TypeError):
        MorseTile.from_dict({"closure": [1, 2], "removed_witnesses": witnesses})


def test_normalize_against_brute_force_recognizer():
    # every subset of the faces of the 3-simplex, checked against the full
    # table of tile extensions on its vertex subsets
    from itertools import chain, combinations

    verts = (0, 1, 2, 3)
    faces = [f for r in range(1, 5) for f in combinations(verts, r)]
    extensions = {}
    for closure in chain.from_iterable(
            combinations(verts, r) for r in range(1, 5)):
        n = len(closure) - 1
        for k in range(n + 2):
            for wits in combinations(closure, k):
                tile = MorseTile(closure, frozenset(wits))
                extensions.setdefault(tile.extension, tile)
                for l in range(max(k - 1, 0), n - 1):
                    for tau in combinations(closure, l + 1):
                        if not set(wits) <= set(tau):
                            continue
                        tile = MorseTile(closure, frozenset(wits), tau)
                        extensions.setdefault(tile.extension, tile)
    hits = 0
    for bits in range(1, 1 << len(faces)):
        subset = frozenset(f for i, f in enumerate(faces) if bits >> i & 1)
        expected = extensions.get(subset)
        if expected is None:
            with pytest.raises(NotMorseTileError):
                normalize_tile(subset)
        else:
            hits += 1
            assert normalize_tile(subset).extension == subset
    assert hits == len(extensions)


# -- equality, hashing and printing; rejected inputs ------------------------


def test_tiles_equal_and_hash_alike_after_normalisation():
    # a removed facet normalises to one more witness
    t = MorseTile((0, 1, 2), frozenset(), (1, 2))
    same = MorseTile((0, 1, 2), frozenset({0}))
    assert t == same and hash(t) == hash(same)
    assert len({t, same, MorseTile((0, 1, 2))}) == 2
    assert (t == t.to_dict()) is False
    assert t.__eq__((0, 1, 2)) is NotImplemented
    assert repr(t) == "MorseTile(closure=(0, 1, 2), witnesses=(0,))"
    assert repr(MorseTile((0, 1, 2, 3), frozenset({1}), (0, 1))) == \
        "MorseTile(closure=(0, 1, 2, 3), witnesses=(1,), removed=(0, 1))"
    assert repr(EMPTY_TILE) == "MorseTile(empty)"


@pytest.mark.parametrize("args,message", [
    (((0, 1, 2), frozenset(), (3,)), "removed face must be a face of the closure"),
    (((), frozenset({0})), "the empty tile has no witnesses or removed face"),
])
def test_tile_construction_rejects(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MorseTile(*args)


def test_a_tile_read_from_a_non_mapping_is_rejected():
    with pytest.raises(TypeError, match=r"^a tile must be an object, got"
                       r" \[0, 1\]$"):
        MorseTile.from_dict([0, 1])


def test_boundary_partition_rejects_a_point_and_a_bad_facet_order():
    with pytest.raises(ValueError, match="^boundary partition needs dimension"
                       " at least 1$"):
        boundary_partition(MorseTile((4,)))
    with pytest.raises(ValueError, match="^facet order must be a permutation"
                       " of the remaining facet witnesses$"):
        boundary_partition(MorseTile((0, 1, 2)), [0, 1])


def test_critical_tile_rejects_an_index_out_of_range():
    with pytest.raises(ValueError, match=r"^index must lie in 0\.\.2, got 3$"):
        critical_tile(2, 3)


def test_negative_skeleton_partition_dimension_is_rejected():
    with pytest.raises(ValueError, match="^skeleton dimension must be"
                       " non-negative$"):
        skeleton_partition(MorseTile((0, 1, 2)), -1)
