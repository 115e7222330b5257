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
from functools import cached_property, partial
from itertools import combinations
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .complexes import (
    SimplicialComplex,
    Simplex,
    _PerShape,
    _picker,
    _Record,
    barycentric_subdivision,
    euler_characteristic,
    faces_of,
    facets_of,
    make_complex,
    simplex,
    skeleton,
)
from .tiles import MorseTile, NotMorseTileError, _recognise, skeleton_partition


class NotShellableError(ValueError):
    """An ordering of maximal simplices fails to shell the complex."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class SearchBudgetExceeded(RuntimeError):
    """The shelling search ran out of its node budget."""


# messages a validator lists; a closing line gives the total beyond them
MAX_ERRORS = 100


class MorseTiling:
    def __init__(self, ambient: SimplicialComplex, carrier: Iterable[Simplex],
                 tiles: Iterable[MorseTile], ordered: bool = False) -> None:
        self.ambient = ambient
        # frozen fields, so that what is derived from them is computed once
        self.carrier: frozenset[Simplex] = frozenset(carrier)
        self.tiles: tuple[MorseTile, ...] = tuple(tiles)
        self.ordered = ordered

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


class Report(_Record):
    """Outcome of a validator: valid exactly when no error was found."""

    def __init__(self, valid: bool, errors: list[str] | None = None) -> None:
        self.valid = valid
        self.errors = [] if errors is None else errors

    __hash__ = None  # mutable

    def __bool__(self) -> bool:
        return self.valid


def attach(sigma: Simplex, covered: Container[Simplex]) -> tuple[MorseTile, set[Simplex]]:
    """The shelling step: the closed simplex sigma minus the covered faces.

    Returns the normalized tile and its open faces; raises
    :class:`NotMorseTileError` when the difference is not a Morse tile.
    """
    ext = {f for f in faces_of(sigma) if f not in covered}
    return _recognise(ext), ext  # faces_of gives canonical faces


class _Covered:
    """The covered faces of a shelling of a carrier: the attached faces and
    every face off the carrier, which are tested rather than listed."""

    def __init__(self, on_carrier: Callable[[Simplex], bool]):
        self.attached: set[Simplex] = set()
        self.on_carrier = on_carrier

    def __contains__(self, f: Simplex) -> bool:
        return f in self.attached or not self.on_carrier(f)


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


class CriticalVector(_Record):
    """Counts of critical tiles per index, with the Euler cross-check."""

    def __init__(self, counts: tuple[int, ...], euler_characteristic: int) -> None:
        self.counts = counts
        self.euler_characteristic = euler_characteristic

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


class HTable(_Record):
    """Tile counts: basic tiles by (dimension, order), the rest tallied
    separately, plus the vertex-count identity check."""

    def __init__(self, basic: Mapping[tuple[int, int], int],
                 regular: Mapping[tuple[int, int, int], int],
                 critical_nonbasic: Mapping[tuple[int, int], int],
                 vertex_count: int) -> None:
        self.basic = basic
        self.regular = regular
        self.critical_nonbasic = critical_nonbasic
        self.vertex_count = vertex_count

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


def subdivide_tile(tile: MorseTile) -> MorseTiling:
    """Shell the first barycentric subdivision of a tile by (n+1)! tiles of
    the same dimension.

    Critical tiles keep exactly one critical tile of the same index; other
    tiles subdivide without critical pieces.
    """
    if tile.is_empty:
        raise ValueError("cannot subdivide the empty tile")
    return subdivide_tiling(MorseTiling(make_complex([tile.closure]),
                                        tile.extension, (tile,), ordered=True))


def _flags(face: Simplex, witnesses: Sequence[int],
           removed: Simplex) -> Iterator[tuple[Simplex, ...]]:
    """The flags of faces from face down to a vertex, in facet-descent
    order: each level drops its witnesses first (sorted), then the vertices
    outside the removed face, then those inside it, and the vertices
    dropped before w at one level are the witnesses of the level below."""
    if len(face) == 1:
        yield (face,)
        return
    rest = [v for v in face if v not in witnesses]
    order = sorted(witnesses) + [v for v in rest if v not in removed] \
        + [v for v in rest if v in removed]
    for j, w in enumerate(order):
        for flag in _flags(tuple(v for v in face if v != w), order[:j],
                           removed):
            yield (face,) + flag


def _tile_template(size: int, witnesses: Simplex, removed: Simplex | None) -> \
        tuple[tuple[Simplex, ...], list[MorseTile]]:
    """The subdivided tiles of the tile on the standard simplex 0..size-1
    with the given witness and removed-face positions, and the face of
    positions that each vertex of the standard subdivision splits.

    Each flag is attached in facet-descent order, with the subdivision
    faces off the tile counted as covered."""
    std = tuple(range(size))
    sd = barycentric_subdivision(make_complex([std]))
    tile = MorseTile(std, frozenset(witnesses), removed)
    if size == 1:  # attach would read an open point as the closed one
        return sd.vertex_face, [tile]
    ext = tile.extension
    covered = _Covered(lambda f: sd.carrier_face(f) in ext)
    pieces = []
    for flag in _flags(std, witnesses, removed or ()):
        # ids grow with face size, so the sorted flag runs bottom up
        piece, new = attach(tuple(sd.face_vertex[f] for f in reversed(flag)),
                            covered)
        pieces.append(piece)
        covered.attached |= new
    return sd.vertex_face, pieces


# tetrahedra at most: the data of all 536 shapes on 6 vertices, 720 pieces
# each, would take about 190 MiB
@partial(_PerShape, limit=4)
def _tile_relabel(size: int, witnesses: Simplex, removed: Simplex | None):
    """The picker of the closures, witness sets and removed faces (empty
    when absent) of the template's pieces out of the subdivision ids of
    the closure's faces in ``faces_of`` order, and the pieces' shapes."""
    pieces = _tile_template(size, witnesses, removed)[1]
    return (_picker([part for u in pieces for part in (
        u.closure, sorted(u.witnesses), u.removed_face or ())]),
        [u._shape for u in pieces])


def subdivide_tiling(t: MorseTiling, iterations: int = 1) -> MorseTiling:
    """Subdivide tile by tile; the critical vector is preserved and shelling
    orders carry over by concatenation.

    Tiles of one shape (closure size, witness and removed-face positions)
    subdivide alike, so each shape is subdivided once on the standard
    simplex and relabelled onto every tile of that shape: the standard
    subdivision's vertex i splits the i-th face of the closure in
    ``faces_of`` order, which keeps the vertex order and the tile order.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    cur = t
    for _ in range(iterations):
        sd = barycentric_subdivision(cur.ambient)
        # per round too, for shapes past the cache's limit
        relabels: dict[tuple, tuple] = {}
        tiles: list[MorseTile] = []
        for tile in cur.tiles:
            key = tile._shape
            if key not in relabels:
                relabels[key] = _tile_relabel[key]
            pick, shapes = relabels[key]
            # increasing: the ambient numbers faces by (size, vertices), as
            # faces_of lists them
            parts = iter(pick(tuple(map(sd.face_vertex.__getitem__,
                                        faces_of(tile.closure)))))
            tiles += [MorseTile._trusted(cl, frozenset(ws), tau or None, shape)
                      for shape, cl, ws, tau in zip(shapes, parts, parts, parts)]
        carrier = sd.complex.faces if cur.covers_complex() else \
            sd.faces_over(cur.carrier)
        cur = MorseTiling(sd.complex, carrier, tuple(tiles), cur.ordered)
    return cur


# -- packing ------------------------------------------------------------------


def pack_simplices(t: MorseTiling) -> list[Simplex]:
    """Vertex-disjoint closed simplices in the subdivided carrier: one
    j-simplex per basic tile of order 0 or 1 and dimension j, chosen as a
    flag through a vertex of the tile."""
    fv = barycentric_subdivision(t.ambient).face_vertex
    out: list[Simplex] = []
    for tile in t.tiles:
        if not tile.is_basic or tile.order > 1:
            continue
        v = min(tile.witnesses) if tile.order == 1 else min(tile.closure)
        chain = [(v,)]
        for x in sorted(set(tile.closure) - {v}):
            chain.append(tuple(sorted(chain[-1] + (x,))))
        out.append(tuple(sorted(fv[f] for f in chain)))
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
    attached whole), so only their facets are checked.  That suffices: the
    covered faces form a subcomplex that already meets the filtration, so
    on a chain down from a new face the first covered face, a facet of a
    new face, lies in a tile no larger than any covered face below it.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    ms = list(K.maximal_simplices)
    n = len(ms)
    tile_dim: dict[Simplex, int] = {}  # the covered faces
    stack: list[tuple[int, MorseTile, set[Simplex]]] = []
    nodes = 0
    start = 0
    while len(stack) < n:
        for i in range(start, n):
            if ms[i] in tile_dim:  # only its own step covers it
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"gave up after {budget} search nodes")
            try:
                tile, ext = attach(ms[i], tile_dim)
            except NotMorseTileError:
                continue
            d = tile.dim
            if all(tile_dim.get(h, d) >= d for f in ext for h in facets_of(f)):
                break
        else:  # no simplex extends this prefix: undo its last step
            if not stack:
                return None
            i, _, ext = stack.pop()
            for f in ext:
                del tile_dim[f]
            start = i + 1
            continue
        for f in ext:
            tile_dim[f] = tile.dim
        stack.append((i, tile, ext))
        start = 0
    return MorseTiling.over_complex(K, [tile for _, tile, _ in stack],
                                    ordered=True)
