"""The one-pass tiling and shelling validators against the validators they
replaced, which compared every face with all of its proper sub-faces."""

import random
import re
from ast import literal_eval
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell import tiling
from morseshell.complexes import faces_of, make_complex
from morseshell.tiles import MorseTile, NotMorseTileError, normalize_tile
from morseshell.tiling import MorseTiling, validate_shelling, validate_tiling

# -- oracle: the all-sub-faces validators, kept as they were ------------------


def oracle_faces_under_lower_tiles(f, d, tile_dim):
    out = []
    for r in range(1, len(f)):
        for sub in combinations(f, r):
            ds = tile_dim.get(sub)
            if ds is not None and ds < d:
                out.append(sub)
    return out


def oracle_tiling_errors(t):
    errors = []
    ambient_faces = t.ambient.faces
    for f in sorted(t.carrier - ambient_faces):
        errors.append(f"carrier face {f} is not a face of the ambient complex")
    owner = {}
    for idx, tile in enumerate(t.tiles):
        if tile.is_empty:
            errors.append(f"tile {idx} is empty")
            continue
        if tile.closure not in ambient_faces:
            errors.append(f"tile {idx}: closure {tile.closure} is not a"
                          " simplex of the ambient complex")
        for f in tile.extension:
            if f in owner:
                errors.append(f"face {f} is covered by tiles {owner[f]} and {idx}")
            else:
                owner[f] = idx
    for f in sorted(t.carrier - owner.keys()):
        errors.append(f"carrier face {f} is not covered by any tile")
    for f in sorted(owner.keys() - t.carrier):
        errors.append(f"face {f} is covered but lies outside the carrier")
    if not errors:
        tile_dim = {f: t.tiles[i].dim for f, i in owner.items()}
        for f, d in sorted(tile_dim.items()):
            for sub in oracle_faces_under_lower_tiles(f, d, tile_dim):
                ds = tile_dim[sub]
                errors.append(
                    f"face {sub} lies in a tile of dimension {ds}"
                    f" under face {f} of a tile of dimension {d};"
                    f" the union of tiles of dimension > {ds} is not"
                    " a subcomplex trace")
    return tuple(errors[:tiling.MAX_ERRORS]), len(errors)


def oracle_validate_tiling(t):
    shown, total = oracle_tiling_errors(t)
    return tiling.Report(not total, tiling.bounded_errors(shown, total))


def oracle_validate_shelling(t):
    shown, total = oracle_tiling_errors(t)
    errors = list(shown)
    covered = set()
    for idx, tile in enumerate(t.tiles):
        covered |= tile.extension
        for f in sorted(tile.extension):
            for r in range(1, len(f)):
                for sub in combinations(f, r):
                    if sub in t.carrier and sub not in covered:
                        errors.append(
                            f"prefix {idx + 1}: carrier face {sub} under"
                            f" {f} is missing, so the prefix is not a"
                            " subcomplex trace")
    total += len(errors) - len(shown)
    return tiling.Report(not total, tiling.bounded_errors(errors, total))


# -- random complexes, carriers and Morse-tile partitions ---------------------


def random_complex(rng):
    """Mostly k-simplices on a few vertices, sometimes a smaller one too."""
    k = rng.randint(1, 3)
    n = rng.randint(k + 1, k + 4)
    sizes = [k + 1] * rng.randint(1, 6) + [rng.randint(1, k)] * rng.randint(0, 2)
    return make_complex(rng.sample(range(n), size) for size in sizes)


def random_carrier(rng, K):
    """The whole complex, a skeleton, the complement of a subcomplex (both
    closed or open under faces), or a random subset of faces."""
    kind = rng.randrange(4)
    if kind == 0:
        return K.faces
    if kind == 1:
        return frozenset(f for f in K.faces if len(f) <= rng.randint(1, 3))
    if kind == 2:
        bottom = set(rng.sample(K.vertices, min(len(K.vertices), 3)))
        return frozenset(f for f in K.faces if not set(f) <= bottom)
    return frozenset(f for f in K.faces if rng.random() < 0.8)


def pieces(rng, ext):
    """ext cut into Morse tiles: whole when it is one, else (or at random)
    into open faces or two random halves."""
    ext = sorted(ext)
    roll = rng.random()
    if roll < 0.15:
        return [MorseTile(f, frozenset(f)) for f in ext]
    if roll < 0.3 and len(ext) > 1:
        cut = set(rng.sample(ext, rng.randint(1, len(ext) - 1)))
        halves = [cut, set(ext) - cut]
    else:
        halves = [set(ext)]
    out = []
    for half in halves:
        try:
            out.append(normalize_tile(half))
        except NotMorseTileError:
            out.extend(MorseTile(f, frozenset(f)) for f in sorted(half))
    return out


def random_tiling(rng):
    K = random_complex(rng)
    carrier = random_carrier(rng, K)
    covered, tiles = set(), []
    order = list(K.maximal_simplices)
    rng.shuffle(order)
    if rng.random() < 0.5:  # larger simplices first keep the filtration
        order.sort(key=len, reverse=True)
    for sigma in order:
        ext = (set(faces_of(sigma)) - covered) & carrier
        covered |= ext
        if ext:
            tiles.extend(pieces(rng, ext))
    roll = rng.random()
    if roll < 0.25:
        rng.shuffle(tiles)
    elif roll < 0.45:
        tiles.reverse()
    elif roll < 0.55 and len(tiles) > 1:
        i, j = rng.sample(range(len(tiles)), 2)
        tiles[i], tiles[j] = tiles[j], tiles[i]
    if tiles and rng.random() < 0.1:  # an uncovered face
        tiles.pop(rng.randrange(len(tiles)))
    if tiles and rng.random() < 0.1:  # a face covered twice
        tiles.insert(rng.randrange(len(tiles) + 1), rng.choice(tiles))
    if rng.random() < 0.05:  # a carrier face off the complex
        carrier = carrier | {(max(K.vertices) + 1,)}
    return MorseTiling(K, carrier, tuple(tiles), ordered=True)


def is_subsequence(part, whole):
    it = iter(whole)
    return all(x in it for x in part)


def filtration_message(e):
    return "lies in a tile of dimension" in e


def prefix_message(e):
    return e.startswith("prefix ")


def named_pair(e):
    """The sub-face and the face a filtration or prefix message names."""
    sub, f = re.search(r"face (\([\d, ]*\)).* under (?:face )?(\([\d, ]*\))",
                       e).groups()
    return literal_eval(sub), literal_eval(f)


def unbounded(validator, t):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tiling, "MAX_ERRORS", 10 ** 9)
        return validator(t)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_validators_agree_with_the_all_sub_faces_oracle(seed):
    t = random_tiling(random.Random(seed))
    new_t = unbounded(validate_tiling, t)
    new_s = unbounded(validate_shelling, t)
    old_t = unbounded(oracle_validate_tiling, t)
    old_s = unbounded(oracle_validate_shelling, t)
    assert new_t.valid is old_t.valid
    assert new_s.valid is old_s.valid
    if old_t.valid:
        assert new_t.errors == old_t.errors == []
    if old_s.valid:
        assert new_s.errors == old_s.errors == []
    # partition messages are the oracle's; filtration and prefix messages
    # are the oracle's for adjacent pairs, in the oracle's order
    assert [e for e in new_t.errors if not filtration_message(e)] == \
        [e for e in old_t.errors if not filtration_message(e)]
    assert [e for e in new_s.errors if not prefix_message(e)] == new_t.errors
    partition_ok = all(map(filtration_message, old_t.errors))
    for keep in (filtration_message, prefix_message):
        new = [e for e in new_s.errors if keep(e)]
        old = [e for e in old_s.errors if keep(e)]
        assert is_subsequence(new, old)
        assert bool(new) is bool(old) or not partition_ok
    for e in new_s.errors:
        if filtration_message(e) or prefix_message(e):
            sub, f = named_pair(e)
            assert not any(set(sub) < set(g) < set(f) for g in t.carrier)


def test_random_tilings_reach_every_verdict():
    seen = set()
    for seed in range(400):
        t = random_tiling(random.Random(seed))
        errors = unbounded(oracle_validate_tiling, t).errors
        verdict = ("shelling" if oracle_validate_shelling(t).valid
                   else "tiling" if not errors
                   else "filtration" if all(map(filtration_message, errors))
                   else "partition")
        seen.add((verdict, t.covers_complex()))
    assert seen == {(v, whole) for v in ("shelling", "tiling", "filtration",
                                         "partition")
                    for whole in (True, False)}


TRIANGLE = make_complex([(0, 1, 2)])
OPEN_TRIANGLE = MorseTile((0, 1, 2), frozenset({0, 1, 2}))
TWO_TRIANGLES = make_complex([(0, 1, 2), (1, 2, 3)])


@pytest.mark.parametrize("K, carrier, tiles, pairs, oracle_count", [
    # the open triangle before its closed boundary: only the edges are
    # adjacent to it (and the partition is no tiling, which does not matter)
    (TRIANGLE, TRIANGLE.faces,
     (OPEN_TRIANGLE, MorseTile((0, 1)), MorseTile((0, 2), frozenset({2})),
      MorseTile((1, 2), frozenset({1, 2}))),
     [((0, 1), (0, 1, 2)), ((0, 2), (0, 1, 2)), ((1, 2), (0, 1, 2))], 6),
    # no edge in the carrier: the vertices are next to the triangle
    (TRIANGLE, frozenset({(0,), (1,), (2,), (0, 1, 2)}),
     (OPEN_TRIANGLE, MorseTile((0,)), MorseTile((1,)), MorseTile((2,))),
     [((0,), (0, 1, 2)), ((1,), (0, 1, 2)), ((2,), (0, 1, 2))], 3),
    # the edge (0, 1) left out: past it, (0,) and (1,) lie under other edges
    (TRIANGLE, TRIANGLE.faces - {(0, 1)},
     (OPEN_TRIANGLE, MorseTile((0,)), MorseTile((1,)), MorseTile((2,)),
      MorseTile((0, 2), frozenset({0, 2})),
      MorseTile((1, 2), frozenset({1, 2}))),
     [((0, 2), (0, 1, 2)), ((1, 2), (0, 1, 2))], 5),
    # a valid tiling of two triangles, the second one first
    (TWO_TRIANGLES, TWO_TRIANGLES.faces,
     (MorseTile((1, 2, 3), frozenset({3})), MorseTile((0, 1, 2))),
     [((1, 2), (1, 2, 3)), ((1,), (1, 3)), ((2,), (2, 3))], 5),
])
def test_prefix_messages_name_nearest_carrier_faces(K, carrier, tiles, pairs,
                                                    oracle_count):
    t = MorseTiling(K, carrier, tiles, ordered=True)
    prefix = [e for e in validate_shelling(t).errors if prefix_message(e)]
    assert prefix == [f"prefix 1: carrier face {sub} under {f} is missing, so"
                      " the prefix is not a subcomplex trace"
                      for sub, f in pairs]
    old = [e for e in oracle_validate_shelling(t).errors if prefix_message(e)]
    assert is_subsequence(prefix, old) and len(old) == oracle_count
