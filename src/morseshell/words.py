"""Cyclic words over {d, u} encoding simple annulus triangulations, and
the rewriting system that reduces every valid word to ududdu.

A triangulated annulus is simple when each triangle has one edge on one
boundary circle and the opposite vertex on the other.  Reading the
triangles around the annulus gives a cyclic word; valid words contain
each letter at least three times.  Rewrites: compression dd -> d and
uu -> u, suppression udu -> ud and dud -> du, and the subdivision
u -> duud, d -> dd applied to every letter at once.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from .complexes import SimplicialComplex, Simplex, make_complex

ALPHABET = "du"


@dataclass(frozen=True)
class CyclicWord:
    """A cyclic word stored as its lexicographically least rotation."""

    letters: str

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("empty word")
        if set(self.letters) - set(ALPHABET):
            raise ValueError(f"letters must come from '{ALPHABET}'")
        k = _least_rotation(self.letters)
        object.__setattr__(self, "letters",
                           self.letters[k:] + self.letters[:k])

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def count(self, letter: str) -> int:
        return self.letters.count(letter)

    @property
    def is_valid_annulus(self) -> bool:
        return self.count("d") >= 3 and self.count("u") >= 3


def _least_rotation(s: str) -> int:
    """Start of the lexicographically least rotation of s, in O(len(s)).

    Two candidate starts i < j are compared letter by letter over s + s;
    no start below j other than i begins a least rotation.  When the
    candidates first differ, k letters in, the one with the larger letter
    and the k starts after it do not either: the other beats each of them.
    """
    ss = s + s
    n = len(s)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = ss[i + k], ss[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j + 1, i + k + 1)
        else:
            j += k + 1
        k = 0
    return i


def word(letters: str) -> CyclicWord:
    return CyclicWord(letters)


REDUCTION_TARGET = word("ududdu")
SIX_LETTER_WORDS = (word("ududdu"), word("duduud"), word("uuuddd"),
                    word("ududud"))


def word_compress(w: CyclicWord, position: int) -> CyclicWord:
    """Replace a doubled letter at the cyclic position by a single one."""
    s = w.letters
    m = len(s)
    if s[position % m] != s[(position + 1) % m]:
        raise ValueError(f"no doubled letter at position {position} of {s}")
    drop = (position + 1) % m
    return CyclicWord(s[:drop] + s[drop + 1:])


def word_suppress(w: CyclicWord, position: int) -> CyclicWord:
    """Replace udu (resp. dud) starting at the cyclic position by ud
    (resp. du)."""
    s = w.letters
    m = len(s)
    triple = "".join(s[(position + i) % m] for i in range(3))
    if triple not in ("udu", "dud"):
        raise ValueError(f"no alternating triple at position {position} of {s}")
    drop = (position + 2) % m
    return CyclicWord(s[:drop] + s[drop + 1:])


def word_subdivide(w: CyclicWord) -> CyclicWord:
    """Replace every u by duud and every d by dd simultaneously."""
    return CyclicWord("".join("duud" if c == "u" else "dd" for c in w.letters))


@dataclass(frozen=True)
class RewriteStep:
    op: str  # "compress" | "suppress" | "subdivide"
    position: int | None
    result: CyclicWord

    def to_dict(self) -> dict:
        return {"op": self.op, "position": self.position,
                "result": self.result.letters}


def apply_step(w: CyclicWord, step: RewriteStep) -> CyclicWord:
    if step.op == "compress":
        return word_compress(w, step.position)
    if step.op == "suppress":
        return word_suppress(w, step.position)
    if step.op == "subdivide":
        return word_subdivide(w)
    raise ValueError(f"unknown rewrite {step.op!r}")


def _validity_preserving_steps(w: CyclicWord) -> Iterator[RewriteStep]:
    """Every compression or suppression keeping both letter counts >= 3,
    in a fixed deterministic order: compressions by position, then
    suppressions by position.  Each rewrite is built only when asked for,
    so taking the first one costs one rewrite, not one per candidate."""
    s = w.letters
    m = len(s)
    spare = {c: s.count(c) > 3 for c in ALPHABET}
    for pos in range(m):
        if s[pos] == s[(pos + 1) % m] and spare[s[pos]]:
            yield RewriteStep("compress", pos, word_compress(w, pos))
    for pos in range(m):
        triple = s[pos] + s[(pos + 1) % m] + s[(pos + 2) % m]
        # udu -> ud drops a u, dud -> du drops a d
        if triple in ("udu", "dud") and spare[triple[0]]:
            yield RewriteStep("suppress", pos, word_suppress(w, pos))


@lru_cache(maxsize=None)
def _descent_to_target(start_letters: str) -> tuple[RewriteStep, ...]:
    """Shortest validity-preserving rewrite path from the given canonical
    word down to the reduction target (breadth-first, deterministic)."""
    start = CyclicWord(start_letters)
    paths: dict[CyclicWord, tuple[RewriteStep, ...]] = {start: ()}
    queue = deque([start])
    while REDUCTION_TARGET not in paths:
        if not queue:
            raise RuntimeError(f"no reduction path from {start_letters}")
        cur = queue.popleft()
        for step in _validity_preserving_steps(cur):
            if step.result not in paths:
                paths[step.result] = paths[cur] + (step,)
                queue.append(step.result)
    return paths[REDUCTION_TARGET]


def reduce_word(w: CyclicWord) -> list[RewriteStep]:
    """Reduction trace from a valid word down to ududdu.

    First shrink to six letters using compressions and suppressions of a
    letter occurring at least four times, then, unless the six-letter word
    is already the target, subdivide once and descend back to the target.
    The trace contains at most one subdivision.
    """
    if not w.is_valid_annulus:
        raise ValueError("each letter must occur at least three times")
    steps: list[RewriteStep] = []
    cur = w
    while len(cur) > 6:
        step = next(_validity_preserving_steps(cur), None)
        if step is None:  # pragma: no cover
            raise RuntimeError(f"stuck while shrinking {cur}")
        steps.append(step)
        cur = step.result
    if cur == REDUCTION_TARGET:
        return steps
    sub = word_subdivide(cur)
    steps.append(RewriteStep("subdivide", None, sub))
    steps.extend(_descent_to_target(sub.letters))
    return steps


# -- simple annulus triangulations -------------------------------------------


@dataclass(frozen=True)
class Annulus:
    """A simple annulus triangulation with its two boundary vertex sets."""

    complex: SimplicialComplex
    boundary_d: frozenset[int]
    boundary_u: frozenset[int]


def _block_count(letters: str, letter: str) -> int:
    m = len(letters)
    return sum(1 for i in range(m)
               if letters[i] == letter and letters[i - 1] != letter)


def annulus_of_word(w: CyclicWord) -> Annulus:
    """The standard model annulus of a valid word: one triangle per letter
    in cyclic order, consecutive triangles glued along interior edges,
    d-side vertices numbered first.

    Words with all copies of a letter in one block have no simplicial
    model: a full same-letter run forces two interior edges onto the same
    vertex pair.  Those are rejected.
    """
    if not w.is_valid_annulus:
        raise ValueError("each letter must occur at least three times")
    if _block_count(w.letters, "d") < 2:
        raise ValueError("a word with a single block of each letter has no"
                         " simplicial annulus model")
    p = w.count("d")
    q = w.count("u")
    d_ids = list(range(p))
    u_ids = list(range(p, p + q))
    triangles = []
    di = ui = 0
    for c in w.letters:
        if c == "d":
            triangles.append((d_ids[di % p], d_ids[(di + 1) % p], u_ids[ui % q]))
            di += 1
        else:
            triangles.append((d_ids[di % p], u_ids[ui % q], u_ids[(ui + 1) % q]))
            ui += 1
    K = make_complex(triangles, name=f"annulus-{w.letters}")
    return Annulus(K, frozenset(d_ids), frozenset(u_ids))


def word_of_annulus(K: SimplicialComplex, boundary_d: Iterable[int],
                    boundary_u: Iterable[int]) -> CyclicWord:
    """Read the cyclic word of a simple annulus triangulation.

    The reading direction is fixed by the least vertex of the d-boundary
    cycle and its lesser neighbour, so the construction above reads back
    as the identity.
    """
    bd = frozenset(boundary_d)
    bu = frozenset(boundary_u)
    if bd & bu:
        raise ValueError("boundary vertex sets overlap")
    if bd | bu != set(K.vertices):
        raise ValueError("not simple: interior vertices present")
    if any(len(m) != 3 for m in K.maximal_simplices):
        raise ValueError("not a pure two-dimensional complex")
    triangles = K.maximal_simplices

    letters: dict[Simplex, str] = {}
    base_edge: dict[Simplex, Simplex] = {}
    for t in triangles:
        in_d = [v for v in t if v in bd]
        in_u = [v for v in t if v in bu]
        if len(in_d) == 2 and len(in_u) == 1:
            letters[t] = "d"
            base_edge[t] = tuple(in_d)
        elif len(in_u) == 2 and len(in_d) == 1:
            letters[t] = "u"
            base_edge[t] = tuple(in_u)
        else:
            raise ValueError(f"not simple: triangle {t} has no single base"
                             " edge on one boundary")
    up = K.cofacets
    for t in triangles:
        if len(up[base_edge[t]]) != 1:
            raise ValueError(f"base edge {base_edge[t]} is not on the boundary")
        for e in combinations(t, 2):
            if e != base_edge[t] and len(up[e]) != 2:
                raise ValueError(f"interior edge {e} is not shared by two"
                                 " triangles")
    # the checks above leave only base edges in a single triangle
    cycle_nbrs: dict[int, set[int]] = defaultdict(set)
    for e, ts in up.items():
        if len(e) == 2 and len(ts) == 1:
            cycle_nbrs[e[0]].add(e[1])
            cycle_nbrs[e[1]].add(e[0])
    if set(cycle_nbrs) != bd | bu or \
            any(len(s) != 2 for s in cycle_nbrs.values()):
        raise ValueError("a boundary vertex set is not a single cycle")

    v0 = min(bd)
    nxt = min(cycle_nbrs[v0])
    t0 = next(t for t, e in base_edge.items() if set(e) == {v0, nxt})
    out = []
    visited = set()
    current = t0
    # entering t0 across its edge off nxt makes the first exit its edge on nxt
    entry = next(e for e in combinations(t0, 2) if nxt not in e)
    for _ in range(len(triangles)):
        out.append(letters[current])
        visited.add(current)
        exit_edge = next(e for e in combinations(current, 2)
                         if e != base_edge[current] and e != entry)
        a, b = up[exit_edge]  # an interior edge: two triangles
        current, entry = (b if a == current else a), exit_edge
    if current != t0 or len(visited) != len(triangles):
        raise ValueError("the triangles do not form a single annulus cycle")
    return CyclicWord("".join(out))
