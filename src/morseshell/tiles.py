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

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .complexes import Simplex, faces_of, simplex


class NotMorseTileError(ValueError):
    """Raised when a face set is not the extension of any Morse tile."""


@dataclass(frozen=True)
class MorseTile:
    closure: Simplex
    witnesses: frozenset[int] = frozenset()
    removed_face: Simplex | None = None

    def __post_init__(self) -> None:
        if tuple(self.closure) == ():
            # the empty tile, kept as an explicit convention
            if self.witnesses or self.removed_face is not None:
                raise ValueError("the empty tile has no witnesses or removed face")
            object.__setattr__(self, "closure", ())
            return
        cl = simplex(self.closure)
        object.__setattr__(self, "closure", cl)
        ws = frozenset(self.witnesses)
        if not ws <= set(cl):
            raise ValueError("witnesses must be vertices of the closure")
        object.__setattr__(self, "witnesses", ws)
        tau = self.removed_face
        if tau is None:
            return
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
            object.__setattr__(self, "witnesses", ws | {extra})
            object.__setattr__(self, "removed_face", None)
        else:
            object.__setattr__(self, "removed_face", tau)

    @classmethod
    def _trusted(cls, closure: Simplex, witnesses: frozenset[int],
                 removed_face: Simplex | None) -> "MorseTile":
        """Trusted constructor, without the checks and normalisation of
        ``__post_init__``: the fields must already be those of a normalised
        tile, as in a tile the library relabels by an order-preserving
        vertex map."""
        tile = cls.__new__(cls)
        tile.__dict__.update(closure=closure, witnesses=witnesses,
                             removed_face=removed_face)
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
    def extension(self) -> frozenset[Simplex]:
        """The open faces making up the tile."""
        if self.is_empty:
            return frozenset()
        core = tuple(sorted(self.witnesses))
        rest = sorted(set(self.closure) - self.witnesses)
        tau = None if self.removed_face is None else set(self.removed_face)
        out = []
        for r in range(len(rest) + 1):
            for extra in combinations(rest, r):
                phi = tuple(sorted(core + extra))
                if not phi:
                    continue
                if tau is not None and set(phi) <= tau:
                    continue
                out.append(phi)
        return frozenset(out)

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


@dataclass(frozen=True)
class TileKind:
    label: str  # "basic" | "regular" | "critical"
    dim: int
    order: int
    removed_dim: int | None = None
    index: int | None = None

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
    if n < 0 or not 0 <= k <= n + 1:
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
    pieces = []
    for i, w in enumerate(order):
        closure_i = tuple(x for x in t.closure if x != w)
        pieces.append(MorseTile(closure_i, t.witnesses | set(order[:i])))
    return pieces


def codim1_partition(t: MorseTile) -> list[MorseTile]:
    """Partition of the codimension-one skeleton of any Morse tile, ordered
    so that prefixes shell it."""
    if t.is_empty or t.dim <= 0:
        return []
    if t.is_basic:
        return boundary_partition(t)
    tau = set(t.removed_face)
    rest = sorted(set(t.closure) - t.witnesses)
    w1 = min(x for x in rest if x not in tau)
    order = [w1] + [x for x in rest if x != w1]
    first_closure = tuple(x for x in t.closure if x != w1)
    pieces = [MorseTile(first_closure, t.witnesses, t.removed_face)]
    for i, w in enumerate(order[1:], start=1):
        closure_i = tuple(x for x in t.closure if x != w)
        pieces.append(MorseTile(closure_i, t.witnesses | set(order[:i])))
    return pieces


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


def normalize_tile(faces: Iterable[Simplex]) -> MorseTile:
    """Recognise a set of open faces as the extension of a Morse tile.

    A single vertex is returned as the closed point; it is the one face
    set realised by two different tiles (closed and open point).
    """
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
