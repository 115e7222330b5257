"""Finite simplicial complexes: faces, skeletons, links, barycentric
subdivision, Euler characteristic and mod-2 homology.

Simplices are strictly increasing tuples of non-negative integer vertex
ids.  A complex is stored by its maximal simplices; the full face set is
derived lazily.  All values are immutable after construction and all
operations are deterministic, so everything here is safe to share across
threads.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import accumulate, chain, combinations, permutations
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

Simplex = tuple[int, ...]


def simplex(vertices: Iterable[int]) -> Simplex:
    """Canonical simplex: a sorted tuple of distinct non-negative ints."""
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValueError("a simplex needs at least one vertex")
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex id {a} in simplex")
    return vs


class _Record:
    """Base of plain classes whose instance attributes are exactly their
    constructor's fields, set in its order.  A record equals an instance of
    the same class with equal fields, hashes its field tuple and prints as
    ``Name(field=value, ...)``; a mutable one sets ``__hash__ = None``."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


def faces_of(s: Simplex) -> Iterator[Simplex]:
    """All non-empty faces of a simplex, including the simplex itself."""
    for r in range(1, len(s) + 1):
        yield from combinations(s, r)


def facets_of(s: Simplex) -> Iterator[Simplex]:
    """Codimension-one faces."""
    return combinations(s, len(s) - 1)


def _picker(parts: Sequence[Sequence[int]]) -> Callable[[tuple], tuple[tuple, ...]]:
    """A function taking a tuple to the tuple of its sub-tuples at the given
    lists of positions, by C-level getters: one of items, then one of slices."""
    ends = list(accumulate(map(len, parts), initial=0))
    # spare items, so that each getter returns a tuple for any count
    flat = itemgetter(*chain.from_iterable(parts), 0, 0)
    cut = itemgetter(*map(slice, ends, ends[1:]), slice(0))
    return lambda s: cut(flat(s))[:-1]


class _PerShape(dict):
    """``build(*key)`` read as ``cache[key]``, for keys led by a simplex
    size, kept for sizes up to ``limit``, which have finitely many shapes."""

    # a limit of 4 made validate_shelling plus compatible_field 3.4-4.5x
    # slower on subdivided 4- and 5-dimensional complexes
    def __init__(self, build: Callable, limit: int = 6) -> None:
        self.build, self.limit = build, limit

    def __missing__(self, key: tuple):
        value = self.build(*key)
        if key[0] <= self.limit:
            self[key] = value
        return value


class SimplicialComplex:
    """A finite simplicial complex given by its maximal simplices.

    Duplicate and dominated input simplices are dropped.  Equality and
    hashing go through the tuple of maximal simplices.
    """

    def __init__(self, maximal: Iterable[Iterable[int]], name: str = "",
                 _allow_empty: bool = False):
        sims = sorted({simplex(m) for m in maximal}, key=lambda s: (-len(s), s))
        keep: list[Simplex] = []
        kept_at: dict[int, list[Simplex]] = defaultdict(list)  # vertex -> kept
        for s in sims:  # decreasing size, so faces of kept simplices are dominated
            # same-size simplices never dominate each other, and a dominating
            # simplex contains the least vertex
            if len(s) < len(sims[0]) and any(set(s).issubset(t)
                                             for t in kept_at[s[0]]):
                continue
            keep.append(s)
            for v in s:
                kept_at[v].append(s)
        if not keep and not _allow_empty:
            raise ValueError("empty complex")
        self.maximal_simplices: tuple[Simplex, ...] = tuple(sorted(keep))
        self.name = name

    @classmethod
    def _trusted(cls, maximal: Iterable[Simplex], name: str = "") -> "SimplicialComplex":
        """Trusted constructor, without the checks of ``__init__``: the
        simplices must be canonical, distinct, and none may contain another,
        as in data the library derives from an already valid complex."""
        K = cls.__new__(cls)
        K.maximal_simplices = tuple(sorted(maximal))
        if not K.maximal_simplices:
            raise ValueError("empty complex")
        K.name = name
        return K

    @cached_property
    def faces(self) -> frozenset[Simplex]:
        out: set[Simplex] = set()
        for m in self.maximal_simplices:
            out.update(faces_of(m))
        return frozenset(out)

    @cached_property
    def dim(self) -> int:
        if not self.maximal_simplices:
            return -1
        return max(len(m) for m in self.maximal_simplices) - 1

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for m in self.maximal_simplices for v in m}))

    @cached_property
    def cofacets(self) -> Mapping[Simplex, tuple[Simplex, ...]]:
        """Each face mapped to the faces one dimension up that contain it,
        in increasing order; a top face maps to ().  Faces are keyed in
        increasing order."""
        up: dict[Simplex, list[Simplex]] = {f: [] for f in sorted(self.faces)}
        for f in up:
            if len(f) > 1:
                for facet in facets_of(f):
                    up[facet].append(f)
        return MappingProxyType({f: tuple(c) for f, c in up.items()})

    @cached_property
    def faces_by_dim(self) -> tuple[tuple[Simplex, ...], ...]:
        """The faces of each dimension 0..dim, each in increasing order."""
        groups: list[list[Simplex]] = [[] for _ in range(self.dim + 1)]
        for f in self.faces:
            groups[len(f) - 1].append(f)
        return tuple(tuple(sorted(g)) for g in groups)

    def faces_of_dim(self, d: int) -> list[Simplex]:
        return list(self.faces_by_dim[d]) if 0 <= d <= self.dim else []

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.faces_by_dim)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.maximal_simplices == other.maximal_simplices

    def __hash__(self) -> int:
        return hash(self.maximal_simplices)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return (f"SimplicialComplex({len(self.maximal_simplices)} maximal,"
                f" dim {self.dim}{tag})")

    def to_dict(self) -> dict:
        return {"name": self.name,
                "maximal_simplices": [list(m) for m in self.maximal_simplices]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimplicialComplex":
        return cls(data["maximal_simplices"], name=data.get("name", ""))


def make_complex(maximal: Iterable[Iterable[int]], name: str = "") -> SimplicialComplex:
    """Build a complex from vertex lists; see :class:`SimplicialComplex`."""
    return SimplicialComplex(maximal, name=name)


def skeleton(K: SimplicialComplex, j: int) -> SimplicialComplex:
    """The subcomplex of all faces of dimension at most j."""
    if j < 0:
        raise ValueError("skeleton dimension must be non-negative")
    if j >= K.dim:
        return K
    mx = [m for m in K.maximal_simplices if len(m) - 1 <= j]
    mx += K.faces_by_dim[j]
    return SimplicialComplex(mx, name=K.name)


def star(K: SimplicialComplex, v: int) -> frozenset[Simplex]:
    """The open star of a vertex: all faces containing it."""
    if (v,) not in K.faces:
        raise ValueError(f"vertex {v} is not in the complex")
    return frozenset(f for f in K.faces if v in f)


def link(K: SimplicialComplex, v: int) -> SimplicialComplex:
    """The link of a vertex (empty complex when v is isolated)."""
    if (v,) not in K.faces:
        raise ValueError(f"vertex {v} is not in the complex")
    mx = [tuple(x for x in m if x != v) for m in K.maximal_simplices if v in m]
    return SimplicialComplex([m for m in mx if m], _allow_empty=True)


def euler_characteristic(faces: Iterable[Simplex]) -> int:
    """Alternating sum of face counts over a set of (open) faces."""
    return sum((-1) ** (len(f) - 1) for f in faces)


def connected_components(K: SimplicialComplex) -> list[SimplicialComplex]:
    """Connected components, ordered by least vertex."""
    parent = {v: v for v in K.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in K.maximal_simplices:
        for a, b in zip(m, m[1:]):
            parent[find(a)] = find(b)
    groups: dict[int, list[Simplex]] = defaultdict(list)
    for m in K.maximal_simplices:
        groups[find(m[0])].append(m)
    comps = [SimplicialComplex._trusted(ms, name=K.name)
             for ms in groups.values()]
    return sorted(comps, key=lambda c: c.vertices[0])


def is_closed_surface(K: SimplicialComplex) -> bool:
    """True iff K is pure 2-dimensional, every edge lies in exactly two
    triangles and every vertex link is a single cycle."""
    if K.dim != 2 or any(len(m) != 3 for m in K.maximal_simplices):
        return False
    up = K.cofacets
    if any(len(f) == 2 and len(c) != 2 for f, c in up.items()):
        return False
    # each link is a union of cycles: walk the one through v's first edge,
    # crossing each triangle at v to its other edge at v
    for f, edges in up.items():
        if len(f) != 1:
            continue
        e, t, steps = edges[0], up[edges[0]][0], 1
        # t's other edge at v ends at t's third vertex
        while (e := tuple(sorted((f[0], sum(t) - sum(e))))) != edges[0]:
            a, b = up[e]
            t = b if a == t else a
            steps += 1
        if steps != len(edges):
            return False
    return True


def is_subcomplex(K: SimplicialComplex, L: SimplicialComplex) -> bool:
    return L.faces <= K.faces


def single_face_intersection(K: SimplicialComplex, L: SimplicialComplex) -> bool:
    """True iff every simplex of K meets L in the face lattice of a single
    face (or not at all)."""
    if not is_subcomplex(K, L):
        raise ValueError("second complex is not a subcomplex of the first")
    lf = L.faces
    for s in K.faces:
        hits = [f for f in faces_of(s) if f in lf]
        if not hits:
            continue
        top = max(hits, key=len)
        if sum(1 for f in hits if len(f) == len(top)) != 1:
            return False
        if len(hits) != 2 ** len(top) - 1:
            return False
    return True


def _gf2_pivots(rows: Iterable[int]) -> dict[int, int]:
    """Pivot rows by leading bit of a GF(2) matrix of int bitsets: a row is
    XORed only with the pivot that shares its leading bit, until it vanishes
    or its leading bit is new (the persistence reduction of Edelsbrunner,
    Letscher and Zomorodian)."""
    pivots: dict[int, int] = {}  # leading bit -> pivot row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return pivots


def betti_numbers_mod2(K: SimplicialComplex) -> list[int]:
    """Ranks of mod-2 homology, one entry per dimension 0..dim K."""
    n = K.dim
    ranks = [0] * (n + 2)  # ranks[p] = rank of the boundary map in degree p
    # clearing (Chen and Kerber, 2011): going down, a face that is the leading
    # bit of a pivot above gets no row; faces by dimension, then vertices, are
    # a filtration, so that row would reduce to zero
    cleared: Container[int] = ()
    for p in range(n, 0, -1):
        lower = {f: i for i, f in enumerate(K.faces_by_dim[p - 1])}
        rows = []
        for i, f in enumerate(K.faces_by_dim[p]):
            if i not in cleared:
                mask = 0
                for fac in combinations(f, p):
                    mask |= 1 << lower[fac]
                rows.append(mask)
        cleared = _gf2_pivots(rows).keys()
        ranks[p] = len(cleared)
    fv = K.f_vector
    return [fv[p] - ranks[p] - ranks[p + 1] for p in range(n + 1)]


class BarycentricSubdivision:
    """First barycentric subdivision of a complex.

    Vertices of the subdivision are fresh dense ids; ``vertex_face[i]`` is
    the face of the base complex whose barycenter the new vertex i labels.
    Simplices of the subdivision are flags of base faces; they are built
    the first time ``complex`` is read.
    """

    def __init__(self, base: SimplicialComplex, vertex_face: tuple[Simplex, ...],
                 face_vertex: Mapping[Simplex, int]) -> None:
        self.base = base
        self.vertex_face = vertex_face
        self.face_vertex = face_vertex

    @cached_property
    def complex(self) -> SimplicialComplex:
        # the maximal flags are distinct and none contains another
        K = self.base
        return SimplicialComplex._trusted(_maximal_flags(K, self.face_vertex),
                                          name=f"sd({K.name})" if K.name else "")

    def carrier_face(self, sd_face: Simplex) -> Simplex:
        """The base face whose interior carries the given flag simplex: the
        largest face of the flag, whose vertex has the largest id, since ids
        number base faces by (size, vertices)."""
        return self.vertex_face[max(sd_face)]

    def faces_over(self, base_faces: Iterable[Simplex]) -> frozenset[Simplex]:
        """All subdivision faces carried by the given set of open base faces."""
        bs = set(base_faces)
        return frozenset(f for f in self.complex.faces
                         if self.carrier_face(f) in bs)

    def subcomplex(self, L: SimplicialComplex) -> SimplicialComplex:
        """The subdivision of a subcomplex, inside this subdivision."""
        if not is_subcomplex(self.base, L):
            raise ValueError("not a subcomplex of the base")
        return SimplicialComplex._trusted(_maximal_flags(L, self.face_vertex),
                                          name=L.name)


@_PerShape
def _flags_picker(size: int) -> Callable[[tuple], tuple[Simplex, ...]]:
    """The picker of the chains of prefixes of the permutations of a
    simplex on ``size`` vertices, out of its faces in ``faces_of`` order."""
    local = {f: i for i, f in enumerate(faces_of(tuple(range(size))))}
    return _picker([[local[tuple(sorted(perm[:i]))] for i in range(1, size + 1)]
                    for perm in permutations(range(size))])


def _maximal_flags(K: SimplicialComplex, face_vertex: Mapping[Simplex, int]) -> list[Simplex]:
    # ids grow with face size, so a chain of prefixes runs up in id order
    flags: list[Simplex] = []
    for m in K.maximal_simplices:
        ids = tuple(map(face_vertex.__getitem__, faces_of(m)))
        flags += _flags_picker[(len(m),)](ids)
    return flags


def barycentric_subdivision(K: SimplicialComplex) -> BarycentricSubdivision:
    """Subdivide, labelling each fresh vertex by the base face it splits."""
    ordered = tuple(f for g in K.faces_by_dim for f in g)
    return BarycentricSubdivision(base=K, vertex_face=ordered,
                                  face_vertex={f: i for i, f in enumerate(ordered)})
