"""Morse tilings and shellings over complexes or tiled subsets.

A tiling is a partition of a carrier (a set of open faces of an ambient
complex) by Morse tiles such that for every j, the union of tiles of
dimension greater than j is the trace of a subcomplex on the carrier.
Equivalently: whenever a carrier face lies under a face of a tile, its own
tile has dimension at least as large.  A shelling is an ordering whose
prefixes are all traces of subcomplexes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .complexes import (
    BarycentricSubdivision,
    SimplicialComplex,
    Simplex,
    barycentric_subdivision,
    euler_characteristic,
    faces_of,
    make_complex,
    simplex,
    skeleton,
)
from .tiles import (
    MorseTile,
    NotMorseTileError,
    cone,
    normalize_tile,
    skeleton_partition,
)


class NotShellableError(ValueError):
    """An ordering of maximal simplices fails to shell the complex."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class SearchBudgetExceeded(RuntimeError):
    """The shelling search ran out of its node budget."""


# messages a validator lists; a closing line gives the total beyond them
MAX_ERRORS = 100


@dataclass(frozen=True, eq=False)
class MorseTiling:
    ambient: SimplicialComplex
    carrier: frozenset[Simplex]
    tiles: tuple[MorseTile, ...]
    ordered: bool = False

    def __post_init__(self) -> None:
        # frozen fields, so that what is derived from them is computed once
        object.__setattr__(self, "carrier", frozenset(self.carrier))
        object.__setattr__(self, "tiles", tuple(self.tiles))

    @classmethod
    def over_complex(cls, K: SimplicialComplex, tiles: Iterable[MorseTile],
                     ordered: bool = False) -> "MorseTiling":
        return cls(K, K.faces, tuple(tiles), ordered)

    @property
    def dim(self) -> int:
        return max((t.dim for t in self.tiles), default=-1)

    def covers_complex(self) -> bool:
        return self.carrier == self.ambient.faces

    @cached_property
    def _errors(self) -> tuple[tuple[str, ...], int, tuple[str, ...], int]:
        return _tiling_errors(self)

    @cached_property
    def _field(self):
        from .morse import _compatible_field  # morse imports this module
        return _compatible_field(self)

    def __repr__(self) -> str:
        tag = "shelling-ordered" if self.ordered else "unordered"
        return (f"MorseTiling({len(self.tiles)} tiles over"
                f" {len(self.carrier)} faces, {tag})")

    def to_dict(self) -> dict:
        carrier: object = "all" if self.covers_complex() else \
            [list(f) for f in sorted(self.carrier)]
        return {"complex": self.ambient.to_dict(),
                "carrier": carrier,
                "ordered": self.ordered,
                "tiles": [t.to_dict() for t in self.tiles]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MorseTiling":
        K = SimplicialComplex.from_dict(data["complex"])
        raw = data.get("carrier", "all")
        carrier = K.faces if raw == "all" else \
            frozenset(simplex(f) for f in raw)
        tiles = tuple(MorseTile.from_dict(t) for t in data["tiles"])
        ordered = data.get("ordered", False)
        if not isinstance(ordered, bool):
            raise ValueError(f'"ordered" must be true or false, got {ordered!r}')
        return cls(K, carrier, tiles, ordered)


@dataclass
class Report:
    """Outcome of a validator: valid exactly when no error was found."""

    valid: bool
    errors: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.valid


def attach(sigma: Simplex, covered: set[Simplex],
           carrier: frozenset[Simplex] | None = None) -> tuple[MorseTile, set[Simplex]]:
    """The shelling step: the closed simplex sigma minus the covered faces,
    restricted to the carrier when one is given.

    Returns the normalized tile and its open faces; raises
    :class:`NotMorseTileError` when the difference is not a Morse tile.
    """
    ext = set(faces_of(sigma)) - covered
    if carrier is not None:
        ext &= carrier
    return normalize_tile(ext), ext


def _faces_under_lower_tiles(f: Simplex, d: int,
                             tile_dim: Mapping[Simplex, int]) -> list[Simplex]:
    """Proper sub-faces of f whose tile has dimension below d; each one
    breaks the filtration when f lies in a tile of dimension d."""
    out = []
    for r in range(1, len(f)):
        for sub in combinations(f, r):
            ds = tile_dim.get(sub)
            if ds is not None and ds < d:
                out.append(sub)
    return out


def bounded_errors(errors: Sequence[str], total: int | None = None) -> list[str]:
    """The first MAX_ERRORS of a validator's messages, closed by a line
    with the total count (default ``len(errors)``) when there are more."""
    total = len(errors) if total is None else total
    shown = list(errors[:MAX_ERRORS])
    if total > MAX_ERRORS:
        shown.append(f"{total} errors in all; the first {MAX_ERRORS} are"
                     " listed")
    return shown


def _nearest_carrier_faces(f: Simplex, carrier: frozenset[Simplex]) -> list[Simplex]:
    """The carrier faces under f with no carrier face between them and f:
    the facets of f when the carrier is closed under faces."""
    found, level = set(), {f}
    while level:  # one size down at a time, through faces off the carrier
        level = {h for g in level for h in combinations(g, len(g) - 1) if h}
        found |= level & carrier
        level -= carrier
    return [s for s in found if not any(set(s) < set(o) for o in found)]


def _tiling_errors(t: MorseTiling) -> tuple[tuple[str, ...], int, tuple[str, ...], int]:
    """The first MAX_ERRORS messages of :func:`validate_tiling` and their
    total, then those of the prefix check of :func:`validate_shelling`.

    Both conditions are transitive along chains of faces, so each covered
    face is compared only with its nearest carrier faces.
    """
    errors: list[str] = []
    ambient_faces = t.ambient.faces
    for f in sorted(t.carrier - ambient_faces):
        errors.append(f"carrier face {f} is not a face of the ambient complex")
    owner: dict[Simplex, int] = {}
    for idx, tile in enumerate(t.tiles):
        if tile.is_empty:
            errors.append(f"tile {idx} is empty")
            continue
        if tile.closure not in ambient_faces:
            errors.append(f"tile {idx}: closure {tile.closure} is not a"
                          " simplex of the ambient complex")
            continue  # its 2^n faces are not enumerated
        for f in tile.extension:
            if f in owner:
                errors.append(f"face {f} is covered by tiles {owner[f]} and {idx}")
            else:
                owner[f] = idx
    for f in sorted(t.carrier - owner.keys()):
        errors.append(f"carrier face {f} is not covered by any tile")
    for f in sorted(owner.keys() - t.carrier):
        errors.append(f"face {f} is covered but lies outside the carrier")
    partition_ok, closed = not errors, t.covers_complex()
    dims = [u.dim for u in t.tiles]
    lower, later = [], []
    for f, i in owner.items():
        for sub in (combinations(f, len(f) - 1) if closed
                    else _nearest_carrier_faces(f, t.carrier)):
            j = owner.get(sub, i)  # i itself for an uncovered or empty face
            if partition_ok and dims[j] < dims[i]:
                lower.append((f, len(sub), sub, dims[j], dims[i]))
            if j > i:
                later.append((i, f, len(sub), sub))
    total = len(errors) + len(lower)
    errors += [f"face {sub} lies in a tile of dimension {ds} under face {f}"
               f" of a tile of dimension {d}; the union of tiles of dimension"
               f" > {ds} is not a subcomplex trace"
               for f, _, sub, ds, d in sorted(lower)[:MAX_ERRORS]]
    prefix = [f"prefix {i + 1}: carrier face {sub} under {f} is missing, so"
              " the prefix is not a subcomplex trace"
              for i, f, _, sub in sorted(later)[:MAX_ERRORS]]
    return tuple(errors[:MAX_ERRORS]), total, tuple(prefix), len(later)


def validate_tiling(t: MorseTiling) -> Report:
    """Check the partition and the dimension-filtration criterion.

    The check runs once per tiling; each call returns a fresh report."""
    shown, total, _, _ = t._errors
    return Report(not total, bounded_errors(shown, total))


def validate_shelling(t: MorseTiling) -> Report:
    """Check tiling validity plus the prefix filtration of the tile order."""
    if not t.ordered:
        raise ValueError("tiling is not marked as ordered")
    shown, total, prefix, prefix_total = t._errors
    total += prefix_total  # the tiling's errors, then the prefix check's
    return Report(not total, bounded_errors(shown + prefix, total))


def classical_shelling_order(K: SimplicialComplex,
                             order: Sequence[Iterable[int]]) -> MorseTiling:
    """Tile K along an ordering of its maximal simplices, requiring every
    difference to be a basic tile."""
    ms = [simplex(s) for s in order]
    if sorted(ms) != list(K.maximal_simplices):
        raise ValueError("order must be a permutation of the maximal simplices")
    covered: set[Simplex] = set()
    tiles: list[MorseTile] = []
    for i, sigma in enumerate(ms):
        try:
            tile, ext = attach(sigma, covered)
        except NotMorseTileError as exc:
            raise NotShellableError(
                f"step {i + 1} ({sigma}): difference is not a Morse tile:"
                f" {exc}", index=i) from exc
        if not tile.is_basic:
            raise NotShellableError(
                f"step {i + 1} ({sigma}): difference is a Morse tile but"
                " not basic", index=i)
        tiles.append(tile)
        covered |= ext
    return MorseTiling.over_complex(K, tiles, ordered=True)


# -- censuses ---------------------------------------------------------------


@dataclass(frozen=True)
class CriticalVector:
    """Counts of critical tiles per index, with the Euler cross-check."""

    counts: tuple[int, ...]
    euler_characteristic: int

    def __getitem__(self, k: int) -> int:
        return self.counts[k] if 0 <= k < len(self.counts) else 0

    @property
    def consistent(self) -> bool:
        return sum((-1) ** k * c for k, c in enumerate(self.counts)) == \
            self.euler_characteristic

    @property
    def total(self) -> int:
        return sum(self.counts)


def critical_vector(t: MorseTiling) -> CriticalVector:
    n = max((tile.dim for tile in t.tiles), default=0)
    counts = [0] * (n + 1)
    for tile in t.tiles:
        if tile.is_critical:
            counts[tile.index] += 1
    return CriticalVector(tuple(counts), euler_characteristic(t.carrier))


@dataclass(frozen=True)
class HTable:
    """Tile counts: basic tiles by (dimension, order), the rest tallied
    separately, plus the vertex-count identity check."""

    basic: Mapping[tuple[int, int], int]
    regular: Mapping[tuple[int, int, int], int]
    critical_nonbasic: Mapping[tuple[int, int], int]
    vertex_count: int

    @property
    def tile_count(self) -> int:
        return (sum(self.basic.values()) + sum(self.regular.values())
                + sum(self.critical_nonbasic.values()))

    @property
    def order_one_total(self) -> int:
        return sum(c for (j, k), c in self.basic.items() if k == 1)

    @property
    def weighted_order_zero(self) -> int:
        return sum((j + 1) * c for (j, k), c in self.basic.items() if k == 0)

    @property
    def vertex_identity_holds(self) -> bool:
        """(j+1)-weighted order-zero count plus order-one count equals the
        number of vertices of the carrier.

        Regular tiles of order zero (a closed simplex minus a smaller
        closed face) contain vertices too, so tilings using them fall
        outside this identity; no generator in this package emits them.
        """
        return self.weighted_order_zero + self.order_one_total == self.vertex_count

    def order_census(self, dim: int) -> tuple[int, ...]:
        return tuple(self.basic.get((dim, k), 0) for k in range(dim + 2))


def h_table(t: MorseTiling) -> HTable:
    basic: Counter = Counter()
    regular: Counter = Counter()
    critical_nonbasic: Counter = Counter()
    for tile in t.tiles:
        if tile.is_basic:
            basic[(tile.dim, tile.order)] += 1
        elif tile.is_critical:
            critical_nonbasic[(tile.dim, tile.index)] += 1
        else:
            regular[(tile.dim, tile.order, tile.removed_dim)] += 1
    vertices = sum(1 for f in t.carrier if len(f) == 1)
    return HTable(dict(basic), dict(regular), dict(critical_nonbasic), vertices)


# -- skeletons --------------------------------------------------------------


def skeleton_tiling(t: MorseTiling, dim: int) -> MorseTiling:
    """Induced tiling of the dim-skeleton trace of the carrier.

    Tiles of dimension at most dim are kept; larger tiles are replaced by
    their skeleton partitions in place, which preserves shelling orders.
    """
    if dim < 0:
        raise ValueError("skeleton dimension must be non-negative")
    if dim >= t.dim:
        return t
    tiles: list[MorseTile] = []
    for tile in t.tiles:
        if tile.dim <= dim:
            tiles.append(tile)
        else:
            tiles.extend(skeleton_partition(tile, dim))
    carrier = frozenset(f for f in t.carrier if len(f) - 1 <= dim)
    return MorseTiling(skeleton(t.ambient, dim), carrier, tuple(tiles), t.ordered)


# -- barycentric subdivision -------------------------------------------------


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
    interval = {f for f in faces_of(tile.removed_face)
                if tile.witnesses <= set(f)}
    out = []
    for u in basic:
        keep = {f for f in u.extension if sd.carrier_face(f) not in interval}
        if len(keep) == len(u.extension):
            out.append(u)
        else:
            try:
                out.append(normalize_tile(keep))
            except NotMorseTileError as exc:  # pragma: no cover
                raise RuntimeError(
                    "subdivision produced a piece that is not a Morse tile;"
                    " this is a bug") from exc
    return out


def subdivide_tile(tile: MorseTile,
                   subdivision: BarycentricSubdivision | None = None) -> MorseTiling:
    """Shell the first barycentric subdivision of a tile by (n+1)! tiles of
    the same dimension.

    Critical tiles keep exactly one critical tile of the same index; other
    tiles subdivide without critical pieces.
    """
    if tile.is_empty:
        raise ValueError("cannot subdivide the empty tile")
    sd = subdivision or barycentric_subdivision(make_complex([tile.closure]))
    if tile.closure not in sd.base.faces:
        raise ValueError("tile closure is not a face of the subdivided complex")
    tiles = tuple(_subdivided_tiles(tile, sd))
    carrier = sd.faces_over(tile.extension)
    return MorseTiling(sd.complex, carrier, tiles, ordered=True)


def _tile_template(size: int, witnesses: Simplex, removed: Simplex | None) -> \
        tuple[tuple[Simplex, ...], list[MorseTile]]:
    """The subdivided tiles of the tile on the standard simplex 0..size-1
    with the given witness and removed-face positions, and the face of
    positions that each vertex of the standard subdivision splits."""
    std = tuple(range(size))
    sd = barycentric_subdivision(make_complex([std]))
    return sd.vertex_face, _subdivided_tiles(MorseTile(std, frozenset(witnesses),
                                                       removed), sd)


def subdivide_tiling(t: MorseTiling, iterations: int = 1) -> MorseTiling:
    """Subdivide tile by tile; the critical vector is preserved and shelling
    orders carry over by concatenation.

    Tiles of one shape (closure size, witness and removed-face positions)
    subdivide alike, so each shape is subdivided once on the standard
    simplex and relabelled onto every tile of that shape: position i is the
    i-th closure vertex, which keeps the vertex order and the tile order.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    cur = t
    for _ in range(iterations):
        sd = barycentric_subdivision(cur.ambient)
        fv = sd.face_vertex
        templates: dict[tuple, tuple[tuple[Simplex, ...], list[MorseTile]]] = {}
        tiles: list[MorseTile] = []
        for tile in cur.tiles:
            cl = tile.closure
            pos = {v: i for i, v in enumerate(cl)}
            key = (len(cl), tuple(sorted(pos[v] for v in tile.witnesses)),
                   None if tile.removed_face is None
                   else tuple(pos[v] for v in tile.removed_face))
            if key not in templates:
                templates[key] = _tile_template(*key)
            subs, pieces = templates[key]
            # increasing: the ambient numbers faces by (size, vertices), and
            # the positions map onto the increasing closure
            ids = [fv[tuple(cl[i] for i in sub)] for sub in subs]
            for u in pieces:
                tiles.append(MorseTile._trusted(
                    tuple(ids[v] for v in u.closure),
                    frozenset(ids[v] for v in u.witnesses),
                    None if u.removed_face is None
                    else tuple(ids[v] for v in u.removed_face)))
        carrier = sd.complex.faces if cur.covers_complex() else \
            sd.faces_over(cur.carrier)
        cur = MorseTiling(sd.complex, carrier, tuple(tiles), cur.ordered)
    return cur


# -- packing ------------------------------------------------------------------


def pack_simplices(t: MorseTiling,
                   subdivision: BarycentricSubdivision | None = None) -> list[Simplex]:
    """Vertex-disjoint closed simplices in the subdivided carrier: one
    j-simplex per basic tile of order 0 or 1 and dimension j, chosen as a
    flag through a vertex of the tile."""
    sd = subdivision or barycentric_subdivision(t.ambient)
    out: list[Simplex] = []
    for tile in t.tiles:
        if not tile.is_basic or tile.order > 1:
            continue
        v = min(tile.witnesses) if tile.order == 1 else min(tile.closure)
        chain = [(v,)]
        for x in sorted(set(tile.closure) - {v}):
            chain.append(tuple(sorted(chain[-1] + (x,))))
        out.append(tuple(sorted(sd.face_vertex[f] for f in chain)))
    return out


# -- exhaustive shelling search ----------------------------------------------


def search_shelling(K: SimplicialComplex,
                    budget: int = 10_000_000) -> MorseTiling | None:
    """Backtracking search for a Morse shelling over orderings of the
    maximal simplices.

    Returns the lexicographically first shelling, or None after exhausting
    the space.  Raises :class:`SearchBudgetExceeded` past the node budget
    (ValueError if it is negative).  Only shellings whose tile closures are
    maximal simplices exist for a full complex, so the search is complete.

    The search keeps an explicit stack of attached simplices, so its depth
    is not bounded by the interpreter's recursion limit.  A candidate's new
    faces cannot lie under a covered face (that face's closed simplex was
    attached whole), so only their sub-faces are checked.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    ms = list(K.maximal_simplices)
    n = len(ms)
    tile_dim: dict[Simplex, int] = {}
    covered: set[Simplex] = set()
    used = [False] * n
    stack: list[tuple[int, MorseTile, set[Simplex]]] = []
    nodes = 0
    start = 0
    while len(stack) < n:
        for i in range(start, n):
            if used[i]:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"gave up after {budget} search nodes")
            try:
                tile, ext = attach(ms[i], covered)
            except NotMorseTileError:
                continue
            if not any(_faces_under_lower_tiles(f, tile.dim, tile_dim)
                       for f in ext):
                break
        else:  # no simplex extends this prefix: undo its last step
            if not stack:
                return None
            i, _, ext = stack.pop()
            used[i] = False
            covered -= ext
            for f in ext:
                del tile_dim[f]
            start = i + 1
            continue
        used[i] = True
        covered |= ext
        for f in ext:
            tile_dim[f] = tile.dim
        stack.append((i, tile, ext))
        start = 0
    return MorseTiling.over_complex(K, [tile for _, tile, _ in stack],
                                    ordered=True)
