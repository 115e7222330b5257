"""Discrete vector fields compatible with a tiling, V-path acyclicity,
self-indexing discrete Morse functions and Morse-inequality reports.

A discrete vector field is a partial matching of faces to cofaces one
dimension up, injective and with disjoint domain and image.  Critical
cells are the unmatched faces.  A field is the gradient of a discrete
Morse function exactly when it has no non-stationary closed V-path.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping

from .complexes import (SimplicialComplex, Simplex, _PerShape, _picker, _Record,
                         betti_numbers_mod2, simplex)
from .tiles import MorseTile, interval
from .tiling import (
    MorseTiling,
    Report,
    bounded_errors,
    critical_vector,
    validate_tiling,
)


class CyclicFieldError(ValueError):
    """The vector field has a non-stationary closed V-path."""

    def __init__(self, cycle: list[Simplex]):
        super().__init__(f"closed V-path of length {len(cycle) - 1} through"
                         f" {cycle[0]}")
        self.cycle = cycle


class DiscreteVectorField:
    """Matching from faces to cofaces over a domain of open faces.

    The matching is copied into a read-only mapping at construction, so
    what is derived from it (the V-path walk) is computed once per field.
    """

    def __init__(self, matching: Mapping[Simplex, Simplex],
                 domain: Iterable[Simplex]) -> None:
        self._matching = dict(matching)  # the walk reads it without the proxy
        self.matching: Mapping[Simplex, Simplex] = MappingProxyType(self._matching)
        self.domain: frozenset[Simplex] = frozenset(domain)

    @cached_property
    def _walk(self) -> tuple[tuple[Simplex, ...] | None, dict[Simplex, int]]:
        return _vpath_walk(self)

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


def validate_field(W: DiscreteVectorField) -> Report:
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
    return Report(not errors, bounded_errors(errors))


# -- tile fields -------------------------------------------------------------


def tile_field(t: MorseTile) -> DiscreteVectorField:
    """The canonical matching on a tile's open faces; see
    :func:`_match_tile` for the rule."""
    matching: dict[Simplex, Simplex] = {}
    _match_tile(t, matching)
    return DiscreteVectorField(matching, t.extension)


def _match_tile(t: MorseTile, matching: dict[Simplex, Simplex]) -> None:
    """Add the canonical matching on a tile's open faces to ``matching``:
    the pairs of its shape, relabelled through its closure."""
    if len(t.witnesses) < len(t.closure):  # else the empty tile or an open simplex
        low, high = _shape_pairs[t._shape]
        matching.update(zip(low(t.closure), high(t.closure)))


@_PerShape
def _shape_pairs(size: int, witnesses: Simplex, removed: Simplex | None):
    """The face pickers of the lower and of the upper faces of the
    canonical matching on the tile of this shape.

    Pair each face with its toggle by the least vertex outside the removed
    face (outside the witnesses when absent); faces losing their partner to
    the removed face are re-paired by toggling the least vertex of the
    removed face beyond the witnesses.  Critical cells: one vertex on a
    closed simplex, the top face on an open one, the face one above the
    witness set on a critical tile, none on regular tiles.
    """
    t = MorseTile._trusted(tuple(range(size)), frozenset(witnesses), removed)
    matching: dict[Simplex, Simplex] = {}
    ext = t.extension
    cl = set(t.closure)
    tau = None if t.removed_face is None else set(t.removed_face)
    w = min(cl - (tau if tau is not None else t.witnesses))
    for f in ext:
        if w not in f:
            matching[f] = tuple(sorted(f + (w,)))
    if tau is not None:
        spare = tau - t.witnesses
        if spare:  # regular: re-pair inside the stranded block
            w2 = min(spare)
            for f in interval(t.witnesses | {w}, tau | {w}):
                if w2 not in f:
                    matching[f] = tuple(sorted(f + (w2,)))
        # critical: the single stranded face stays unmatched
    return _picker(list(matching)), _picker(list(matching.values()))


def compatible_field(t: MorseTiling) -> DiscreteVectorField:
    """Union of the canonical tile fields over a tiling; critical cells
    correspond to critical tiles, preserving the index.

    The field is built once per tiling and shared by later calls."""
    return t._field


def _compatible_field(t: MorseTiling) -> DiscreteVectorField:
    matching: dict[Simplex, Simplex] = {}
    for tile in t.tiles:
        _match_tile(tile, matching)
    return DiscreteVectorField(matching, t.carrier)


# -- V-paths -----------------------------------------------------------------


def _vpath_successors(W: DiscreteVectorField, f: Simplex) -> list[Simplex]:
    up = W._matching.get(f)
    if up is None:
        return []
    return [s for s in combinations(up, len(up) - 1)
            if s != f and s in W._matching]


def _vpath_walk(W: DiscreteVectorField) -> \
        tuple[tuple[Simplex, ...] | None, dict[Simplex, int]]:
    """One depth-first walk of the V-path graph from every matched face in
    sorted order.

    Returns the first closed V-path met (first face repeated at the end),
    or None and the depth of every matched face: one more than the largest
    depth among its successors, taken in post-order.
    """
    depth: dict[Simplex, int] = {}  # finished faces
    for start in sorted(W.matching):
        if start in depth:
            continue
        succ = _vpath_successors(W, start)
        stack = [(start, succ, iter(succ))]  # the faces on the path
        on_path = {start: 0}  # face -> its position in stack
        while stack:
            node, succ, it = stack[-1]
            for nxt in it:
                if nxt in depth:
                    continue
                if nxt in on_path:
                    return (tuple(frame[0] for frame in stack[on_path[nxt]:])
                            + (nxt,)), depth
                nsucc = _vpath_successors(W, nxt)
                if not nsucc:  # finished at once, so never pushed
                    depth[nxt] = 1
                    continue
                on_path[nxt] = len(stack)
                stack.append((nxt, nsucc, iter(nsucc)))
                break
            else:
                depth[node] = 1 + max(map(depth.__getitem__, succ), default=0)
                del on_path[node]
                stack.pop()
    return None, depth


def find_closed_vpath(W: DiscreteVectorField) -> list[Simplex] | None:
    """A non-stationary closed V-path as a witness list (first face
    repeated at the end), or None when the field is acyclic."""
    cycle = W._walk[0]
    return None if cycle is None else list(cycle)


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


class DiscreteMorseFunction:
    def __init__(self, values: Mapping[Simplex, Fraction],
                 domain: frozenset[Simplex]) -> None:
        self.values = values
        self.domain = domain

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
        values: dict[Simplex, Fraction] = {}
        for f, num, den in rows:
            f = simplex(f)
            if f in values:
                raise ValueError(f"face {f} has two values")
            values[f] = Fraction(num, den)
        return cls(values, frozenset(values))


def morse_function(W: DiscreteVectorField) -> DiscreteMorseFunction:
    """A self-indexing discrete Morse function whose gradient is W.

    Critical p-cells take the value p exactly; matched pairs share a value
    slightly above the lower cell's dimension, ordered along descending
    V-paths so that the two Morse conditions hold.
    """
    cycle, depth = W._walk
    if cycle is not None:
        raise CyclicFieldError(list(cycle))
    by_dim: dict[int, list[Simplex]] = defaultdict(list)
    for f in W.domain:
        by_dim[len(f) - 1].append(f)
    matching, images = W._matching, W.images
    values: dict[Simplex, Fraction] = {}
    for p, faces in sorted(by_dim.items()):
        # a face of depth d takes p + (d + 1) / den, den = 2 (max depth + 2);
        # level[k] holds p + k / den, so no face needs Fraction arithmetic
        max_depth = max((depth.get(f, 0) for f in faces), default=0)
        den = 2 * (max_depth + 2)
        level = [Fraction(p)] + [Fraction(p * den + k, den)
                                 for k in range(1, max_depth + 2)]
        for f in faces:
            if f in matching:
                values[f] = level[depth[f] + 1]
            elif f not in images:
                values[f] = level[0]
    for a, b in matching.items():
        values[b] = values[a]
    return DiscreteMorseFunction(values, W.domain)


def _drops_and_rises(f: DiscreteMorseFunction) -> \
        tuple[dict[Simplex, list[Simplex]], dict[Simplex, int]]:
    """Compare f across every (facet, coface) pair of its domain, once.

    Returns, per face, its cofaces with no larger value (drops) and the
    number of its facets with no smaller value (rises); one comparison
    settles both.  Values are compared by integer cross-multiplication,
    which is exact because denominators are positive.
    """
    # per domain face, so that a face without a value raises KeyError
    ratio = {x: f.values[x].as_integer_ratio() for x in f.domain}
    drops: dict[Simplex, list[Simplex]] = defaultdict(list)
    rises: dict[Simplex, int] = defaultdict(int)
    for c, (cn, cd) in ratio.items():
        for s in combinations(c, len(c) - 1):
            r = ratio.get(s)
            if r is not None and cn * r[1] <= r[0] * cd:
                drops[s].append(c)
                rises[c] += 1
    return drops, rises


class MorseFunctionReport(Report):
    def __init__(self, valid: bool, errors: list[str] | None = None,
                 exceptions: dict | None = None,
                 gradient_matches: bool | None = None) -> None:
        super().__init__(valid, errors)
        # face -> (up, down) counts
        self.exceptions = {} if exceptions is None else exceptions
        self.gradient_matches = gradient_matches


def validate_morse_function(f: DiscreteMorseFunction,
                            W: DiscreteVectorField | None = None) -> MorseFunctionReport:
    """Check both Morse conditions at every face of the domain; optionally
    compare the extracted gradient against a given field."""
    errors = []
    exceptions = {}
    drops, rises = _drops_and_rises(f)
    gradient: dict[Simplex, Simplex] = {}
    unique_drops = True
    for face in sorted(sorted(f.domain), key=len):
        falling = drops.get(face, ())
        ups = len(falling)
        downs = rises.get(face, 0)
        if ups or downs:
            exceptions[face] = (ups, downs)
        if ups > 1:
            errors.append(f"face {face}: {ups} cofaces with no larger value")
            unique_drops = False
        elif falling:
            gradient[face] = falling[0]
        if downs > 1:
            errors.append(f"face {face}: {downs} facets with no smaller value")
    matches = None
    if W is not None:
        matches = unique_drops and gradient == dict(W.matching)
        if not matches:
            errors.append("extracted gradient differs from the given field")
    return MorseFunctionReport(not errors, bounded_errors(errors), exceptions,
                               matches)


def gradient_of(f: DiscreteMorseFunction) -> DiscreteVectorField:
    """The gradient field: each face maps to its unique coface with no
    larger value, when one exists."""
    drops, _ = _drops_and_rises(f)
    matching: dict[Simplex, Simplex] = {}
    for face in f.domain:
        falling = drops.get(face, ())
        if len(falling) > 1:
            raise ValueError(f"face {face} has {len(falling)} cofaces with no"
                             " larger value; not a discrete Morse function")
        if falling:
            matching[face] = falling[0]
    return DiscreteVectorField(matching, f.domain)


# -- Morse inequalities -------------------------------------------------------


class InequalitiesReport(_Record):
    def __init__(self, certified: bool, betti: list[int], critical: list[int],
                 betti_bounded: bool, alternating_ok: bool, euler_equality: bool,
                 messages: list[str] | None = None) -> None:
        self.certified = certified
        self.betti = betti
        self.critical = critical
        self.betti_bounded = betti_bounded
        self.alternating_ok = alternating_ok
        self.euler_equality = euler_equality
        self.messages = [] if messages is None else messages

    __hash__ = None  # mutable

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
    lhs = rhs = 0  # the sums over the empty complex
    for k in range(n + 1):
        lhs = sum((-1) ** (k - i) * betti[i] for i in range(k + 1))
        rhs = sum((-1) ** (k - i) * critical[i] for i in range(k + 1))
        if lhs > rhs:
            alternating = False
    # at k = n the sums are (-1)^n times the two Euler characteristics
    euler_eq = lhs == rhs
    if not euler_eq:
        messages.append(f"top alternating sums differ: {lhs} vs {rhs}")
    return InequalitiesReport(certified, betti, critical, bounded,
                              alternating, euler_eq, messages)
