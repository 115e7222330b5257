"""Morse tiles: a closed simplex with some closed facets removed, plus at
most one extra removed closed face.

A tile is stored as (closure, witnesses, removed_face).  Each witness
vertex a marks the removed facet opposite to a, so a face phi of the
closure belongs to the tile iff it contains every witness and is not
contained in the extra removed face.  The number of witnesses is the
order of the tile.  A tile is critical when the extra removed face equals
the witness set (then the order is also called the index); the closed and
the open simplex count as critical of index 0 and n.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .complexes import Simplex, _PerShape, _picker, _Record, faces_of, simplex


class NotMorseTileError(ValueError):
    """Raised when a face set is not the extension of any Morse tile."""


class MorseTile:
    """A Morse tile, normalised at construction: a removed facet given as
    the extra removed face becomes one more witness.  Tiles are equal, and
    hash alike, when their three fields are."""

    def __init__(self, closure: Simplex, witnesses: frozenset[int] = frozenset(),
                 removed_face: Simplex | None = None) -> None:
        if tuple(closure) == ():
            # the empty tile, kept as an explicit convention
            if witnesses or removed_face is not None:
                raise ValueError("the empty tile has no witnesses or removed face")
            self.closure, self.witnesses, self.removed_face = (), witnesses, None
            return
        cl = simplex(closure)
        ws = frozenset(witnesses)
        if not ws <= set(cl):
            raise ValueError("witnesses must be vertices of the closure")
        tau = removed_face
        if tau is not None:
            tau = simplex(tau)
            if not set(tau) <= set(cl):
                raise ValueError("removed face must be a face of the closure")
            if tau == cl:
                raise ValueError("cannot remove the whole closure")
            if not ws <= set(tau):
                raise ValueError("removed face may not lie inside a removed facet")
            if len(tau) == len(cl) - 1:
                # removing a facet as the extra face just bumps the order
                extra = (set(cl) - set(tau)).pop()
                ws, tau = ws | {extra}, None
        self.closure, self.witnesses, self.removed_face = cl, ws, tau

    @classmethod
    def _trusted(cls, closure: Simplex, witnesses: frozenset[int],
                 removed_face: Simplex | None,
                 shape: tuple | None = None) -> "MorseTile":
        """Trusted constructor, without the checks and normalisation of
        ``__init__``: the fields must already be those of a normalised
        tile, as in a tile the library recognises from canonical faces or
        relabels by an order-preserving map, which keeps its ``shape``."""
        tile = cls.__new__(cls)
        tile.__dict__.update(closure=closure, witnesses=witnesses,
                             removed_face=removed_face)
        if shape is not None:
            tile.__dict__["_shape"] = shape
        return tile

    # -- basic shape data ------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.closure == ()

    @property
    def dim(self) -> int:
        return len(self.closure) - 1

    @property
    def order(self) -> int:
        return len(self.witnesses)

    @property
    def removed_dim(self) -> int | None:
        return None if self.removed_face is None else len(self.removed_face) - 1

    @property
    def is_basic(self) -> bool:
        return self.removed_face is None

    @property
    def is_critical(self) -> bool:
        if self.is_empty:
            return False
        if self.removed_face is not None:
            return self.removed_dim == self.order - 1
        return self.order == 0 or self.order == self.dim + 1

    @property
    def index(self) -> int | None:
        """Critical index, or None for regular tiles."""
        if not self.is_critical:
            return None
        if self.removed_face is not None:
            return self.order
        return 0 if self.order == 0 else self.dim

    @property
    def kind(self) -> "TileKind":
        if self.is_critical:
            return TileKind("critical", self.dim, self.order, self.removed_dim, self.index)
        if self.is_basic:
            return TileKind("basic", self.dim, self.order)
        return TileKind("regular", self.dim, self.order, self.removed_dim)

    @cached_property
    def _shape(self) -> tuple[int, Simplex, Simplex | None]:
        """The closure size and the positions in it of the witnesses and the
        removed face; tiles of one shape differ by an order-preserving map."""
        cl, tau = self.closure, self.removed_face
        return (len(cl), tuple(map(cl.index, sorted(self.witnesses))),
                None if tau is None else tuple(map(cl.index, tau)))

    @cached_property
    def extension(self) -> frozenset[Simplex]:
        """The open faces making up the tile: the faces between the witness
        set and the closure, minus those up to the removed face."""
        if self.is_empty:
            return frozenset()
        whole, removed = _shape_extension[self._shape]
        ext = frozenset(whole(self.closure))
        # the set difference of the interval rule, for its iteration order
        return ext if removed is None else ext - frozenset(removed(self.closure))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.closure, self.witnesses, self.removed_face) == \
            (other.closure, other.witnesses, other.removed_face)

    def __hash__(self) -> int:
        return hash((self.closure, self.witnesses, self.removed_face))

    def __repr__(self) -> str:
        if self.is_empty:
            return "MorseTile(empty)"
        tau = "" if self.removed_face is None else f", removed={self.removed_face}"
        return (f"MorseTile(closure={self.closure},"
                f" witnesses={tuple(sorted(self.witnesses))}{tau})")

    def to_dict(self) -> dict:
        return {"closure": list(self.closure),
                "removed_witnesses": sorted(self.witnesses),
                "removed_face": None if self.removed_face is None
                else list(self.removed_face)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MorseTile":
        if not isinstance(data, Mapping):
            raise TypeError(f"a tile must be an object, got {data!r}")
        tau = data.get("removed_face")
        ws = data.get("removed_witnesses", ())
        return cls(tuple(data["closure"]),
                   frozenset(ws and simplex(ws)),  # distinct vertex ids
                   None if tau is None else tuple(tau))


EMPTY_TILE = MorseTile(())


class TileKind(_Record):
    def __init__(self, label: str, dim: int, order: int,
                 removed_dim: int | None = None, index: int | None = None) -> None:
        self.label = label  # "basic" | "regular" | "critical"
        self.dim = dim
        self.order = order
        self.removed_dim = removed_dim
        self.index = index

    def __str__(self) -> str:
        if self.label == "critical":
            return f"critical tile of dimension {self.dim} and index {self.index}"
        if self.label == "basic":
            return f"basic tile of dimension {self.dim} and order {self.order}"
        return (f"regular tile of dimension {self.dim}, order {self.order},"
                f" removed face of dimension {self.removed_dim}")


# -- constructors ----------------------------------------------------------


def standard_tile(n: int, k: int) -> MorseTile:
    """The n-simplex on vertices 0..n with its first k facets removed."""
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")
    if not 0 <= k <= n + 1:
        raise ValueError(f"order must lie in 0..{n + 1}, got {k}")
    return MorseTile(tuple(range(n + 1)), frozenset(range(k)))


def standard_morse_tile(n: int, k: int, l: int) -> MorseTile:
    """The standard tile of order k with the extra closed face 0..l removed."""
    if not 0 <= k <= l + 1 <= n:
        raise ValueError(f"need 0 <= k <= l+1 <= n, got k={k}, l={l}, n={n}")
    if l < 0:
        return standard_tile(n, 0)
    return MorseTile(tuple(range(n + 1)), frozenset(range(k)), tuple(range(l + 1)))


def critical_tile(n: int, k: int) -> MorseTile:
    """The critical tile of dimension n and index k."""
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"index must lie in 0..{n}, got {k}")
    if k == 0:
        return standard_tile(n, 0)
    if k == n:
        return standard_tile(n, n + 1)
    return standard_morse_tile(n, k, k - 1)


# -- partitions ------------------------------------------------------------


def boundary_partition(t: MorseTile,
                       facet_order: Sequence[int] | None = None) -> list[MorseTile]:
    """Split the boundary trace of a basic tile into basic tiles of one
    lower dimension and orders k, k+1, ..., n.

    ``facet_order`` lists the witnesses of the remaining facets (default
    ascending).  Together with the open top face the pieces partition the
    tile.
    """
    if not t.is_basic:
        raise ValueError("boundary partition applies to basic tiles only")
    if t.dim < 1:
        raise ValueError("boundary partition needs dimension at least 1")
    rest = sorted(set(t.closure) - t.witnesses)
    order = list(facet_order) if facet_order is not None else rest
    if sorted(order) != rest:
        raise ValueError("facet order must be a permutation of the remaining"
                         " facet witnesses")
    return _drop_facets(t, order)


def codim1_partition(t: MorseTile) -> list[MorseTile]:
    """Partition of the codimension-one skeleton of any Morse tile, ordered
    so that prefixes shell it."""
    if t.is_empty or t.dim <= 0:
        return []
    order = sorted(set(t.closure) - t.witnesses)
    if t.removed_face is not None:  # the least facet keeping it goes first
        w1 = min(set(order) - set(t.removed_face))
        order.sort(key=lambda x: x != w1)
    return _drop_facets(t, order)


def _drop_facets(t: MorseTile, order: Sequence[int]) -> list[MorseTile]:
    """Piece i is the facet opposite order[i] with the earlier pieces'
    facets removed; the first piece keeps the tile's removed face."""
    return [MorseTile(tuple(x for x in t.closure if x != w),
                      t.witnesses | set(order[:i]),
                      t.removed_face if i == 0 else None)
            for i, w in enumerate(order)]


def skeleton_partition(t: MorseTile, j: int) -> list[MorseTile]:
    """Partition of the j-skeleton trace of a tile by Morse tiles."""
    if j < 0:
        raise ValueError("skeleton dimension must be non-negative")
    if t.is_empty:
        return []
    if j >= t.dim:
        return [t]
    out: list[MorseTile] = []
    for p in codim1_partition(t):
        out.extend(skeleton_partition(p, j))
    return out


def cone(t: MorseTile, apex: int, keep_apex: bool = False,
         remove_base: bool = False) -> MorseTile:
    """Cone a tile from a fresh apex vertex.

    The apex may be kept only over a closed simplex; otherwise the cone is
    deprived of its apex.  Removing the base adds the apex as a witness,
    bumping the order by one.
    """
    if t.is_empty:
        raise ValueError("cannot cone the empty tile")
    if apex in t.closure:
        raise ValueError("apex must be a fresh vertex")
    cl2 = tuple(sorted(t.closure + (apex,)))
    if keep_apex:
        if not (t.is_basic and t.order == 0):
            raise ValueError("the apex can be kept only over a closed simplex")
        return MorseTile(cl2, frozenset({apex}) if remove_base else frozenset())
    ws2 = t.witnesses | ({apex} if remove_base else set())
    if t.removed_face is not None:
        tau2: Simplex | None = tuple(sorted(t.removed_face + (apex,)))
    elif t.order == 0:
        tau2 = (apex,)  # the open apex vertex is never part of the cone
    else:
        tau2 = None
    return MorseTile(cl2, ws2, tau2)


def interval(low: Iterable[int], high: Iterable[int]) -> frozenset[Simplex]:
    """The non-empty faces phi with low <= phi <= high, as sorted tuples."""
    low = tuple(low)
    rest = [v for v in high if v not in low]
    return frozenset(phi for r in range(len(rest) + 1)
                     for extra in combinations(rest, r)
                     if (phi := tuple(sorted(low + extra))))


@_PerShape
def _shape_extension(size: int, witnesses: Simplex, removed: Simplex | None):
    """The face pickers, in ``faces_of`` order, of the interval from the
    witnesses to the closure and of the interval up to the removed face
    (None without one): the interval rule on the standard simplex."""
    faces = list(faces_of(tuple(range(size))))
    whole = interval(witnesses, faces[-1])
    cut = None if removed is None else interval(witnesses, removed)
    return (_picker([f for f in faces if f in whole]),
            None if cut is None else _picker([f for f in faces if f in cut]))


def normalize_tile(faces: Iterable[Simplex]) -> MorseTile:
    """Recognise a set of open faces as the extension of a Morse tile.

    A single vertex is returned as the closed point; it is the one face
    set realised by two different tiles (closed and open point).
    """
    return _recognise({simplex(f) for f in faces})


def _recognise(fs: set[Simplex]) -> MorseTile:
    """:func:`normalize_tile` on canonical faces.

    The closure is the largest face, the witnesses the vertices all faces
    share, and the removed face the largest face of the interval between
    them that fs misses; fs is a tile exactly when it lies in that interval
    and misses nothing or exactly the interval up to the removed face.
    """
    if not fs:
        raise NotMorseTileError("empty face set")
    closure = max(fs, key=len)
    # a lone vertex is the closed point, not the open one
    core = frozenset(closure).intersection(*fs) if len(closure) > 1 else ()
    whole = interval(core, closure)
    missing = whole - fs
    tau = max(missing, key=len) if missing else None
    if not fs <= whole or (missing and missing != interval(core, tau)):
        raise NotMorseTileError("faces are not a closed simplex minus closed"
                                " facets and one closed face")
    # normal already: canonical closure and tau, W <= tau != closure, and tau
    # is no facet (the vertex it misses would lie in every face, so in W)
    return MorseTile._trusted(closure, frozenset(core), tau)
