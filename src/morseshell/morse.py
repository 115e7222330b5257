"""Discrete vector fields compatible with a tiling, V-path acyclicity,
self-indexing discrete Morse functions and Morse-inequality reports.

A discrete vector field is a partial matching of faces to cofaces one
dimension up, injective and with disjoint domain and image.  Critical
cells are the unmatched faces.  A field is the gradient of a discrete
Morse function exactly when it has no non-stationary closed V-path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .complexes import SimplicialComplex, Simplex, betti_numbers_mod2, simplex
from .tiles import MorseTile
from .tiling import MorseTiling, critical_vector, validate_tiling


class CyclicFieldError(ValueError):
    """The vector field has a non-stationary closed V-path."""

    def __init__(self, cycle: list[Simplex]):
        super().__init__(f"closed V-path of length {len(cycle) - 1} through"
                         f" {cycle[0]}")
        self.cycle = cycle


@dataclass(frozen=True, eq=False)
class DiscreteVectorField:
    """Matching from faces to cofaces over a domain of open faces."""

    matching: Mapping[Simplex, Simplex]
    domain: frozenset[Simplex]

    @property
    def pairs(self) -> list[tuple[Simplex, Simplex]]:
        return sorted(self.matching.items())

    @property
    def images(self) -> frozenset[Simplex]:
        return frozenset(self.matching.values())

    def critical_cells(self) -> list[Simplex]:
        out = self.domain - self.matching.keys() - self.images
        return sorted(out, key=lambda f: (len(f), f))

    def to_list(self) -> list:
        return [[list(a), list(b)] for a, b in self.pairs]

    @classmethod
    def from_list(cls, pairs: Iterable, domain: Iterable[Simplex] | None = None) -> \
            "DiscreteVectorField":
        matching: dict[Simplex, Simplex] = {}
        for a, b in pairs:
            a = simplex(a)
            if a in matching:
                raise ValueError(f"face {a} is matched twice")
            matching[a] = simplex(b)
        if domain is None:
            dom = frozenset(matching.keys()) | frozenset(matching.values())
        else:
            dom = frozenset(simplex(f) for f in domain)
        return cls(matching, dom)


def critical_cells(W: DiscreteVectorField) -> list[Simplex]:
    return W.critical_cells()


@dataclass
class FieldReport:
    valid: bool
    errors: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.valid


def validate_field(W: DiscreteVectorField) -> FieldReport:
    """Check the four matching conditions: dimension step one, face
    inclusion, disjoint domain and image, injectivity."""
    errors = []
    for a, b in W.pairs:
        if a not in W.domain or b not in W.domain:
            errors.append(f"pair ({a}, {b}) leaves the domain")
        if len(b) != len(a) + 1:
            errors.append(f"pair ({a}, {b}): codimension is not one")
        if not set(a) <= set(b):
            errors.append(f"pair ({a}, {b}): not a face of its partner")
    images = W.images
    for a in sorted(W.matching):
        if a in images:
            errors.append(f"face {a} is both matched up and an image")
    seen: dict[Simplex, Simplex] = {}
    for a, b in W.pairs:
        if b in seen:
            errors.append(f"faces {seen[b]} and {a} are both matched to {b}")
        else:
            seen[b] = a
    return FieldReport(not errors, errors)


# -- tile fields -------------------------------------------------------------


def tile_field(t: MorseTile) -> DiscreteVectorField:
    """The canonical matching on a tile's open faces.

    Pair each face with its toggle by the least vertex outside the removed
    face (outside the witnesses when absent); faces losing their partner to
    the removed face are re-paired by toggling the least vertex of the
    removed face beyond the witnesses.  Critical cells: one vertex on a
    closed simplex, the top face on an open one, the face one above the
    witness set on a critical tile, none on regular tiles.
    """
    ext = t.extension
    if t.is_empty:
        return DiscreteVectorField({}, frozenset())
    cl = set(t.closure)
    if t.witnesses == cl:  # open simplex
        return DiscreteVectorField({}, frozenset(ext))
    tau = None if t.removed_face is None else set(t.removed_face)
    w = min(cl - (tau if tau is not None else t.witnesses))
    matching: dict[Simplex, Simplex] = {}
    for f in ext:
        if w not in f:
            matching[f] = tuple(sorted(f + (w,)))
    if tau is not None:
        stranded = [f for f in ext
                    if w in f and set(f) - {w} <= tau]
        spare = tau - t.witnesses
        if spare:  # regular: re-pair inside the stranded block
            w2 = min(spare)
            for f in stranded:
                if w2 not in f:
                    matching[f] = tuple(sorted(f + (w2,)))
        # critical: the single stranded face stays unmatched
    return DiscreteVectorField(matching, frozenset(ext))


def compatible_field(t: MorseTiling) -> DiscreteVectorField:
    """Union of the canonical tile fields over a tiling; critical cells
    correspond to critical tiles, preserving the index."""
    matching: dict[Simplex, Simplex] = {}
    for tile in t.tiles:
        matching.update(tile_field(tile).matching)
    return DiscreteVectorField(matching, frozenset(t.carrier))


# -- V-paths -----------------------------------------------------------------


def _vpath_successors(W: DiscreteVectorField, f: Simplex) -> list[Simplex]:
    up = W.matching.get(f)
    if up is None:
        return []
    return [s for s in combinations(up, len(up) - 1)
            if s != f and s in W.matching]


def find_closed_vpath(W: DiscreteVectorField) -> list[Simplex] | None:
    """A non-stationary closed V-path as a witness list (first face
    repeated at the end), or None when the field is acyclic."""
    color: dict[Simplex, int] = {}
    for start in sorted(W.matching):
        if color.get(start):
            continue
        stack = [(start, iter(_vpath_successors(W, start)))]
        color[start] = 1
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 1:
                    cycle = path[path.index(nxt):] + [nxt]
                    return cycle
                if not color.get(nxt):
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(_vpath_successors(W, nxt))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()
    return None


def is_vpath(W: DiscreteVectorField, seq: list[Simplex]) -> bool:
    """Whether a face sequence satisfies the V-path step rule."""
    for a, b in zip(seq, seq[1:]):
        up = W.matching.get(a)
        if up is None:
            if b != a:
                return False
        elif b == a or not (set(b) <= set(up) and len(b) == len(up) - 1):
            return False
    return True


# -- Morse functions ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteMorseFunction:
    values: Mapping[Simplex, Fraction]
    domain: frozenset[Simplex]

    def __getitem__(self, f: Simplex) -> Fraction:
        return self.values[f]

    def critical_values(self) -> dict[Simplex, Fraction]:
        W = gradient_of(self)
        return {f: self.values[f] for f in W.critical_cells()}

    def to_list(self) -> list:
        return [[list(f), v.numerator, v.denominator]
                for f, v in sorted(self.values.items())]

    @classmethod
    def from_list(cls, rows: Iterable) -> "DiscreteMorseFunction":
        values = {simplex(f): Fraction(num, den) for f, num, den in rows}
        return cls(values, frozenset(values))


def morse_function(W: DiscreteVectorField) -> DiscreteMorseFunction:
    """A self-indexing discrete Morse function whose gradient is W.

    Critical p-cells take the value p exactly; matched pairs share a value
    slightly above the lower cell's dimension, ordered along descending
    V-paths so that the two Morse conditions hold.
    """
    cycle = find_closed_vpath(W)
    if cycle is not None:
        raise CyclicFieldError(cycle)
    by_dim: dict[int, list[Simplex]] = defaultdict(list)
    for f in W.domain:
        by_dim[len(f) - 1].append(f)
    images = W.images
    values: dict[Simplex, Fraction] = {}
    for p, faces in sorted(by_dim.items()):
        depth: dict[Simplex, int] = {}

        def depth_of(f: Simplex) -> int:
            stack = [f]
            while stack:
                x = stack[-1]
                if x in depth:
                    stack.pop()
                    continue
                if x not in W.matching:
                    depth[x] = 0
                    stack.pop()
                    continue
                pending = [s for s in _vpath_successors(W, x) if s not in depth]
                if pending:
                    stack.extend(pending)
                    continue
                depth[x] = 1 + max((depth[s] for s in _vpath_successors(W, x)),
                                   default=0)
                stack.pop()
            return depth[f]

        max_depth = max((depth_of(f) for f in faces), default=0)
        eps = Fraction(1, 2 * (max_depth + 2))
        for f in faces:
            if f in W.matching:
                values[f] = p + (depth_of(f) + 1) * eps
            elif f not in images:
                values[f] = Fraction(p)
    for a, b in W.pairs:
        values[b] = values[a]
    return DiscreteMorseFunction(values, W.domain)


def _coface_index(domain: frozenset[Simplex]) -> dict[Simplex, list[Simplex]]:
    up: dict[Simplex, list[Simplex]] = defaultdict(list)
    for f in domain:
        for s in combinations(f, len(f) - 1):
            if s in domain:
                up[s].append(f)
    return up


@dataclass
class MorseFunctionReport:
    valid: bool
    errors: list[str] = field(default_factory=list)
    exceptions: dict = field(default_factory=dict)  # face -> (up, down) counts
    gradient_matches: bool | None = None

    def __bool__(self) -> bool:
        return self.valid


def validate_morse_function(f: DiscreteMorseFunction,
                            W: DiscreteVectorField | None = None) -> MorseFunctionReport:
    """Check both Morse conditions at every face of the domain; optionally
    compare the extracted gradient against a given field."""
    errors = []
    exceptions = {}
    up = _coface_index(f.domain)
    down: dict[Simplex, list[Simplex]] = defaultdict(list)
    for a, cofs in up.items():
        for b in cofs:
            down[b].append(a)
    for face in sorted(f.domain, key=lambda x: (len(x), x)):
        ups = sum(1 for c in up.get(face, ()) if f.values[c] <= f.values[face])
        downs = sum(1 for c in down.get(face, ()) if f.values[c] >= f.values[face])
        if ups or downs:
            exceptions[face] = (ups, downs)
        if ups > 1:
            errors.append(f"face {face}: {ups} cofaces with no larger value")
        if downs > 1:
            errors.append(f"face {face}: {downs} facets with no smaller value")
    matches = None
    if W is not None:
        try:
            matches = gradient_of(f).matching == dict(W.matching)
        except ValueError:
            matches = False
        if not matches:
            errors.append("extracted gradient differs from the given field")
    return MorseFunctionReport(not errors, errors, exceptions, matches)


def gradient_of(f: DiscreteMorseFunction) -> DiscreteVectorField:
    """The gradient field: each face maps to its unique coface with no
    larger value, when one exists."""
    up = _coface_index(f.domain)
    matching: dict[Simplex, Simplex] = {}
    for face in f.domain:
        drops = [c for c in up.get(face, ()) if f.values[c] <= f.values[face]]
        if len(drops) > 1:
            raise ValueError(f"face {face} has {len(drops)} cofaces with no"
                             " larger value; not a discrete Morse function")
        if drops:
            matching[face] = drops[0]
    return DiscreteVectorField(matching, f.domain)


# -- Morse inequalities -------------------------------------------------------


@dataclass
class InequalitiesReport:
    certified: bool
    betti: list[int]
    critical: list[int]
    betti_bounded: bool
    alternating_ok: bool
    euler_equality: bool
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.certified and self.betti_bounded and self.alternating_ok
                and self.euler_equality)


def morse_inequalities_report(K: SimplicialComplex,
                              t: MorseTiling) -> InequalitiesReport:
    """Compare mod-2 Betti numbers against the critical tile counts of a
    tiling of the whole complex."""
    if t.carrier != K.faces:
        raise ValueError("the tiling must cover the whole complex")
    rep = validate_tiling(t)
    if not rep.valid:
        raise ValueError("invalid tiling: " + "; ".join(rep.errors[:3]))
    betti = betti_numbers_mod2(K)
    cv = critical_vector(t)
    critical = list(cv.counts) + [0] * (len(betti) - len(cv.counts))
    critical = critical[: max(len(betti), len(cv.counts))]
    messages = []
    W = compatible_field(t)
    cycle = find_closed_vpath(W)
    certified = cycle is None
    if not certified:
        messages.append("inequalities not certified by this method: the"
                        " compatible field has a closed V-path")
    n = len(betti) - 1
    bounded = all(betti[k] <= critical[k] for k in range(n + 1))
    alternating = True
    for k in range(n + 1):
        lhs = sum((-1) ** (k - i) * betti[i] for i in range(k + 1))
        rhs = sum((-1) ** (k - i) * critical[i] for i in range(k + 1))
        if lhs > rhs:
            alternating = False
        if k == n and lhs != rhs:
            messages.append(f"top alternating sums differ: {lhs} vs {rhs}")
    euler_eq = (sum((-1) ** i * b for i, b in enumerate(betti))
                == sum((-1) ** i * c for i, c in enumerate(critical)))
    return InequalitiesReport(certified, betti, critical, bounded,
                              alternating, euler_eq, messages)
