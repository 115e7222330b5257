"""Tile recognition against the earlier recogniser, which found the
witnesses, the candidate interval and the removed face by a loop of its
own; the current one reads them off the interval rule that builds tiles."""

from itertools import chain, combinations

import pytest

from morseshell.complexes import faces_of, simplex
from morseshell.tiles import MorseTile, NotMorseTileError, normalize_tile
from morseshell.tiling import attach


def old_normalize_tile(faces):
    """The earlier ``normalize_tile``, kept verbatim as an oracle."""
    fs = {simplex(f) for f in faces}
    if not fs:
        raise NotMorseTileError("empty face set")
    closure = max(fs, key=lambda f: (len(f), f))
    if sum(1 for f in fs if len(f) == len(closure)) != 1:
        raise NotMorseTileError("no unique maximal face")
    clset = set(closure)
    if any(not set(f) <= clset for f in fs):
        raise NotMorseTileError("faces do not lie in a single simplex")
    if len(closure) == 1:
        return MorseTile(closure)
    core = set(clset)
    for f in fs:
        core &= set(f)
    witnesses = frozenset(core)
    rest = sorted(clset - witnesses)
    candidate = set()
    base = tuple(sorted(witnesses))
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            phi = tuple(sorted(base + extra))
            if phi:
                candidate.add(phi)
    missing = candidate - fs
    if not missing:
        return MorseTile(closure, witnesses)
    tau = max(missing, key=len)
    if sum(1 for f in missing if len(f) == len(tau)) != 1:
        raise NotMorseTileError("missing faces have no unique maximal element")
    interval = {f for f in faces_of(tau) if witnesses <= set(f)}
    if missing != interval:
        raise NotMorseTileError("missing faces do not form a single interval")
    return MorseTile(closure, witnesses, tau)


def outcome(recognise, faces):
    """The tile's fields, or None when the faces are no tile."""
    try:
        t = recognise(faces)
    except NotMorseTileError:
        return None
    return t.closure, t.witnesses, t.removed_face


def subsets(items):
    return chain.from_iterable(combinations(items, r)
                               for r in range(len(items) + 1))


def tiles_on(closure):
    """Every tile on the closure, once per extension."""
    out = {}
    for ws in subsets(closure):
        for tau in chain([None], subsets(closure)):
            if tau is not None and not set(ws) <= set(tau):
                continue
            try:
                t = MorseTile(closure, frozenset(ws), tau or None)
            except ValueError:  # tau is the whole closure
                continue
            out.setdefault(t.extension, t)
    return list(out.values())


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_every_face_subset_of_a_small_simplex(n):
    faces = list(faces_of(tuple(range(n + 1))))
    accepted = 0
    for fs in subsets(faces):
        expected = outcome(old_normalize_tile, fs)
        assert outcome(normalize_tile, fs) == expected, fs
        accepted += expected is not None
    # the accepted sets are the extensions of the tiles on the faces
    assert accepted == sum(len(tiles_on(f)) for f in faces)


def test_tiles_of_the_5_simplex_and_one_face_deletions():
    tiles = tiles_on(tuple(range(6)))
    # 2^6 basic tiles, and C(6, t) 2^t with a removed face on t vertices
    assert len(tiles) == 64 + 12 + 60 + 160 + 240
    for t in tiles:
        ext = t.extension
        assert outcome(normalize_tile, ext) == outcome(old_normalize_tile, ext)
        for f in ext:
            rest = ext - {f}
            assert outcome(normalize_tile, rest) == \
                outcome(old_normalize_tile, rest), (t, f)


def test_attach_recognises_as_normalize_tile_does():
    sigma = (0, 1, 2, 3)
    all_faces = list(faces_of(sigma))
    tiles = 0
    for covered in subsets(all_faces[:8]):  # the vertices and some edges
        covered = set(covered)
        ext = set(all_faces) - covered
        expected = outcome(normalize_tile, ext)
        assert outcome(lambda _: attach(sigma, covered)[0], ext) == expected
        if expected is not None:
            assert attach(sigma, covered)[1] == ext
            tiles += 1
    assert tiles >= 5


def test_attach_of_a_covered_simplex_raises():
    sigma = (0, 1, 2)
    with pytest.raises(NotMorseTileError):
        attach(sigma, set(faces_of(sigma)))
