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
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping

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


def faces_of(s: Simplex) -> Iterator[Simplex]:
    """All non-empty faces of a simplex, including the simplex itself."""
    for r in range(1, len(s) + 1):
        yield from combinations(s, r)


def facets_of(s: Simplex) -> Iterator[Simplex]:
    """Codimension-one faces."""
    return combinations(s, len(s) - 1)


def dim_of(s: Simplex) -> int:
    return len(s) - 1


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

    def faces_of_dim(self, d: int) -> list[Simplex]:
        return sorted(f for f in self.faces if len(f) - 1 == d)

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            counts[len(f) - 1] += 1
        return tuple(counts)

    def has_face(self, s: Iterable[int]) -> bool:
        return simplex(s) in self.faces

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
    mx += K.faces_of_dim(j)
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
    comps = [SimplicialComplex(ms, name=K.name) for ms in groups.values()]
    return sorted(comps, key=lambda c: c.vertices[0])


def is_closed_surface(K: SimplicialComplex) -> bool:
    """True iff K is pure 2-dimensional, every edge lies in exactly two
    triangles and every vertex link is a single cycle."""
    if K.dim != 2 or any(len(m) != 3 for m in K.maximal_simplices):
        return False
    # all maximal simplices are triangles: build every vertex link in one
    # pass; x's degree in the link of v counts the triangles on edge vx
    links: dict[int, dict[int, set[int]]] = defaultdict(lambda: defaultdict(set))
    for a, b, c in K.maximal_simplices:
        for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
            links[v][x].add(y)
            links[v][y].add(x)
    for nbrs in links.values():
        if any(len(s) != 2 for s in nbrs.values()):
            return False
        seen = set()
        stack = [next(iter(nbrs))]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(nbrs[x])
        if seen != set(nbrs):
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


def _gf2_rank(rows: list[int]) -> int:
    """Rank of a GF(2) matrix given as int bitsets, by elimination with
    pivot lookup by leading bit: a row is XORed only with the pivot that
    shares its leading bit, until it vanishes or its leading bit is new
    (the persistence reduction of Edelsbrunner, Letscher and Zomorodian)."""
    pivots: dict[int, int] = {}  # leading bit -> pivot row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def betti_numbers_mod2(K: SimplicialComplex) -> list[int]:
    """Ranks of mod-2 homology, one entry per dimension 0..dim K."""
    n = K.dim
    ranks = [0] * (n + 2)  # ranks[p] = rank of the boundary map in degree p
    for p in range(1, n + 1):
        lower = {f: i for i, f in enumerate(K.faces_of_dim(p - 1))}
        rows = []
        for f in K.faces_of_dim(p):
            mask = 0
            for fac in combinations(f, len(f) - 1):
                mask |= 1 << lower[fac]
            rows.append(mask)
        ranks[p] = _gf2_rank(rows)
    fv = K.f_vector
    return [fv[p] - ranks[p] - ranks[p + 1] for p in range(n + 1)]


@dataclass(frozen=True, eq=False)
class BarycentricSubdivision:
    """First barycentric subdivision of a complex.

    Vertices of the subdivision are fresh dense ids; ``vertex_face[i]`` is
    the face of the base complex whose barycenter the new vertex i labels.
    Simplices of the subdivision are flags of base faces.
    """

    base: SimplicialComplex
    complex: SimplicialComplex
    vertex_face: tuple[Simplex, ...]
    face_vertex: Mapping[Simplex, int]

    def carrier_face(self, sd_face: Simplex) -> Simplex:
        """The base face whose interior carries the given flag simplex."""
        return max((self.vertex_face[i] for i in sd_face), key=len)

    def faces_over(self, base_faces: Iterable[Simplex]) -> frozenset[Simplex]:
        """All subdivision faces carried by the given set of open base faces."""
        bs = set(base_faces)
        return frozenset(f for f in self.complex.faces
                         if self.carrier_face(f) in bs)

    def flag_simplex(self, chain: Iterable[Simplex]) -> Simplex:
        """Subdivision simplex with the given strictly nested base faces."""
        return tuple(sorted(self.face_vertex[f] for f in chain))

    def subcomplex(self, L: SimplicialComplex) -> SimplicialComplex:
        """The subdivision of a subcomplex, inside this subdivision."""
        if not is_subcomplex(self.base, L):
            raise ValueError("not a subcomplex of the base")
        return SimplicialComplex(_maximal_flags(L, self.face_vertex), name=L.name)


def _maximal_flags(K: SimplicialComplex, face_vertex: Mapping[Simplex, int]) -> list[Simplex]:
    flags = []
    for m in K.maximal_simplices:
        for perm in permutations(m):
            chain = [tuple(sorted(perm[: i + 1])) for i in range(len(perm))]
            flags.append(tuple(sorted(face_vertex[f] for f in chain)))
    return flags


def barycentric_subdivision(K: SimplicialComplex) -> BarycentricSubdivision:
    """Subdivide, labelling each fresh vertex by the base face it splits."""
    ordered = sorted(K.faces, key=lambda f: (len(f), f))
    face_vertex = {f: i for i, f in enumerate(ordered)}
    sd = SimplicialComplex(_maximal_flags(K, face_vertex),
                           name=f"sd({K.name})" if K.name else "")
    return BarycentricSubdivision(base=K, complex=sd,
                                  vertex_face=tuple(ordered),
                                  face_vertex=face_vertex)
