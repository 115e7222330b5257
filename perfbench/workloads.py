"""The four seeded workloads of the benchmark.

Each workload turns ``(seed, item index)`` into the inputs of one item,
runs the item's library calls (through a tracer, so the traced and the
untraced run execute the same code), checks the outputs against facts
known independently of the code under test, and returns the item's
canonical output, whose sha256 is the item's determinism digest.

Only the library calls of ``run`` are timed.  Input generation happens
before the timer starts and checks after it stops.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any

from morseshell import (
    MorseTiling,
    SearchBudgetExceeded,
    SimplicialComplex,
    annulus_of_word,
    apply_step,
    barycentric_subdivision,
    betti_numbers_mod2,
    compatible_field,
    critical_vector,
    find_closed_vpath,
    is_closed_surface,
    make_complex,
    morse_function,
    morse_inequalities_report,
    normalize_tile,
    reduce_word,
    search_shelling,
    shell_surface,
    subdivide_tiling,
    validate_field,
    validate_morse_function,
    validate_shelling,
    validate_tiling,
    word,
    word_of_annulus,
)
from morseshell.catalog import (
    bipyramid,
    boundary_sphere,
    genus_two_surface,
    icosahedron,
    moebius_kantor_torus,
    octahedron,
    projective_plane,
    untileable_wheel,
)

from spans import NullTracer, Tracer

# run records, digests, spans and the CLI's working directories
OUT = Path(__file__).resolve().parent / "out"


class CheckFailed(Exception):
    """An output contradicts a known fact."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def relabel(K: SimplicialComplex, rng: random.Random) -> list[tuple[int, ...]]:
    """The maximal simplices of K under a random permutation of its
    vertex ids."""
    old = list(K.vertices)
    new = old[:]
    rng.shuffle(new)
    to = dict(zip(old, new))
    return [tuple(sorted(to[v] for v in m)) for m in K.maximal_simplices]


def closure_faces(maximal: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Every non-empty face of the given simplices."""
    return {f for m in maximal for r in range(1, len(m) + 1)
            for f in combinations(sorted(m), r)}


def alternating_sum(counts: list[int]) -> int:
    return sum((-1) ** k * c for k, c in enumerate(counts))


def _rebuild(maximal: tuple) -> SimplicialComplex:
    """A fresh complex from its maximal simplices, with its face set."""
    K = make_complex(maximal)
    K.faces
    return K


class Workload:
    """One family of seeded inputs and the item that processes them."""

    name = ""
    # items whose counts the traced run reports, so counts repeat exactly
    fixed_items = 1

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.counters: Counter = Counter()

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def inputs(self, i: int) -> Any:
        raise NotImplementedError

    def run(self, inp: Any, tr: Tracer | NullTracer) -> Any:
        raise NotImplementedError

    def check(self, inp: Any, res: Any) -> Any:
        """Raise CheckFailed on a wrong output; return the canonical one."""
        raise NotImplementedError

    def trace_extra(self, i: int, inp: Any, res: Any, tr: Tracer) -> None:
        """Traced run only: per-layer calls beyond the item itself."""

    def count(self, inp: Any, res: Any) -> None:
        """Traced run only: add this item's counts to ``counters``."""

    def layer_metrics(self, tr: Tracer) -> dict[str, float]:
        """Per-layer metrics beyond the span medians and the counters."""
        return {}

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


# -- certify-subdivided ------------------------------------------------------

# name: (catalog constructor, mod-2 Betti numbers, Euler characteristic)
CERTIFY_SURFACES = {
    "projective-plane": (projective_plane, [1, 1, 1], 1),
    "torus-7": (moebius_kantor_torus, [1, 2, 1], 0),
}
CERTIFY_DEPTH = 3
# stages whose growth from the d = 2 rung to the d = 3 rung is reported
GROWTH_STAGES = (
    "tiling.subdivide_tiling", "tiling.validate_shelling",
    "morse.compatible_field", "morse.find_closed_vpath",
    "morse.morse_function", "morse.validate_morse_function",
    "morse.morse_inequalities_report", "complexes.betti_numbers_mod2",
    "tiling.validate_tiling", "complexes.make_complex",
    "complexes.barycentric_subdivision",
)


@dataclass
class CertifyInput:
    surface: str
    triangles: list[tuple[int, ...]]
    start: tuple[int, ...]


@dataclass
class CertifyResult:
    base: MorseTiling
    tiling: MorseTiling
    shelling_valid: bool
    field: Any
    cycle: Any
    function: Any
    function_report: Any
    inequalities: Any


class CertifySubdivided(Workload):
    """The paper's path: shell a surface, subdivide three times, build the
    compatible field and the self-indexing Morse function, certify the
    Morse inequalities.

    One item certifies one relabeled copy of each surface.  The host's
    speed drifts over seconds; an item of several seconds averages the
    drift, where the median of single surfaces would pick one moment of it.
    """

    name = "certify-subdivided"
    fixed_items = 1

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.surfaces = {name: make() for name, (make, _, _)
                         in CERTIFY_SURFACES.items()}
        self.sizes: dict[tuple[int, str | None], int] = {}

    def inputs(self, i: int) -> list[CertifyInput]:
        rng = self.rng(i)
        parts = []
        for surface, K in self.surfaces.items():
            triangles = relabel(K, rng)
            parts.append(CertifyInput(surface, triangles, rng.choice(triangles)))
        return parts

    def run(self, inp: list[CertifyInput], tr,
            depth: int = CERTIFY_DEPTH) -> list[CertifyResult]:
        return [self._certify(part, tr, depth) for part in inp]

    def _certify(self, inp: CertifyInput, tr, depth: int) -> CertifyResult:
        K = make_complex(inp.triangles)
        check(tr.call("complexes.is_closed_surface", is_closed_surface, K),
              f"{inp.surface} is not recognised as a closed surface")
        base = tr.call("generators.shell_surface", shell_surface, K,
                       start=inp.start)
        t = tr.call("tiling.subdivide_tiling", subdivide_tiling, base, depth)
        shelling = tr.call("tiling.validate_shelling", validate_shelling, t)
        W = tr.call("morse.compatible_field", compatible_field, t)
        cycle = tr.call("morse.find_closed_vpath", find_closed_vpath, W)
        f = tr.call("morse.morse_function", morse_function, W)
        report = tr.call("morse.validate_morse_function",
                         validate_morse_function, f, W)
        ineq = tr.call("morse.morse_inequalities_report",
                       morse_inequalities_report, t.ambient, t)
        return CertifyResult(base, t, shelling.valid, W, cycle, f, report, ineq)

    def check(self, inp: list[CertifyInput], res: list[CertifyResult],
              depth: int = CERTIFY_DEPTH) -> Any:
        check(len(res) == len(inp), "not every surface was certified")
        return [self._check_surface(part, r, depth) for part, r in zip(inp, res)]

    def _check_surface(self, inp: CertifyInput, res: CertifyResult,
                       depth: int) -> Any:
        _, betti, chi = CERTIFY_SURFACES[inp.surface]
        check(len(res.base.tiles) == len(inp.triangles),
              "the surface shelling does not have one tile per triangle")
        check(len(res.tiling.tiles) == 6 ** depth * len(res.base.tiles),
              f"subdivision gave {len(res.tiling.tiles)} tiles, not 6^{depth}"
              f" times {len(res.base.tiles)}")
        base_cv = list(critical_vector(res.base).counts)
        cv = list(critical_vector(res.tiling).counts)
        check(cv == base_cv, f"critical vector {cv} differs from the base"
              f" {base_cv}")
        check(alternating_sum(cv) == chi,
              f"critical vector {cv} does not sum to chi = {chi}")
        check(res.shelling_valid, "subdivided shelling is not valid")
        check(validate_field(res.field).valid, "compatible field is invalid")
        check(res.cycle is None, "compatible field has a closed V-path")
        check(res.function_report.valid, "Morse function is invalid")
        check(res.function_report.gradient_matches is True,
              "Morse function gradient differs from the field")
        critical = res.field.critical_cells()
        check(len(critical) == sum(cv), f"{len(critical)} critical cells for"
              f" {sum(cv)} critical tiles")
        check(all(res.function[c] == len(c) - 1 for c in critical),
              "Morse function is not self-indexing")
        check(res.inequalities.betti == betti,
              f"Betti numbers {res.inequalities.betti}, expected {betti}")
        check(res.inequalities.ok, "Morse inequalities report is not ok")
        return res.function.to_list()

    def _probe(self, inp: CertifyInput, res: CertifyResult, tr: Tracer,
               depth: int) -> None:
        K = res.tiling.ambient
        betti = tr.call("complexes.betti_numbers_mod2", betti_numbers_mod2, K)
        check(betti == CERTIFY_SURFACES[inp.surface][1],
              f"Betti numbers {betti} on their own call")
        check(tr.call("tiling.validate_tiling", validate_tiling,
                      res.tiling).valid, "subdivided tiling is invalid")
        check(tr.call("complexes.make_complex", _rebuild,
                      K.maximal_simplices).faces == K.faces,
              "rebuilt complex has other faces")
        coarser = subdivide_tiling(res.base, depth - 1).ambient
        sd = tr.call("complexes.barycentric_subdivision",
                     barycentric_subdivision, coarser)
        check(sd.complex == K, "subdividing the coarser complex differs")
        key = (tr.item, tr.tag)
        self.sizes[key] = self.sizes.get(key, 0) + len(res.tiling.carrier)

    def trace_extra(self, i: int, inp: list[CertifyInput],
                    res: list[CertifyResult], tr: Tracer) -> None:
        for part, r in zip(inp, res):
            self._probe(part, r, tr, CERTIFY_DEPTH)
        tr.tag = "d2"
        try:
            lower = self.run(inp, tr, depth=2)
            self.check(inp, lower, depth=2)
            for part, r in zip(inp, lower):
                self._probe(part, r, tr, 2)
        finally:
            tr.tag = None

    def count(self, inp: list[CertifyInput], res: list[CertifyResult]) -> None:
        self.counters["morse.critical_cells"] += sum(
            len(r.field.critical_cells()) for r in res)

    def layer_metrics(self, tr: Tracer) -> dict[str, float]:
        """Growth exponent per stage: log(t3 / t2) / log(n3 / n2), with t
        the stage's time and n the number of faces, both summed over an
        item's surfaces, as a median over items."""
        seconds: dict[tuple[str, int, str | None], float] = {}
        for name, item, tag, s in tr.self_times():
            seconds[(name, item, tag)] = seconds.get((name, item, tag), 0.0) + s
        out = {}
        items = sorted({item for (item, tag) in self.sizes if tag == "d2"})
        for stage in GROWTH_STAGES:
            exps = []
            for item in items:
                t3 = seconds.get((stage, item, None))
                t2 = seconds.get((stage, item, "d2"))
                if t3 and t2:
                    ratio = self.sizes[(item, None)] / self.sizes[(item, "d2")]
                    exps.append(math.log(t3 / t2) / math.log(ratio))
            if exps:
                out[f"{stage}.growth"] = statistics.median(exps)
        return out


# -- cli-sweep ---------------------------------------------------------------

# The complex branch of `subdivide` subdivides once whatever --iterations
# says, so the chain calls it twice.
CLI_CHAIN = (
    ("subdivide", "--complex", "surface.json", "--out", "sd1.json"),
    ("subdivide", "--complex", "sd1.json", "--out", "sd2.json"),
    ("shell-surface", "--complex", "sd2.json", "--out", "shelling.json"),
    ("verify-shelling", "--tiling", "shelling.json"),
    ("field", "--tiling", "shelling.json", "--out", "field.json"),
    ("vpath-check", "--field", "field.json", "--tiling", "shelling.json"),
    ("morse-function", "--tiling", "shelling.json", "--out", "morse.json"),
    ("inequalities", "--complex", "sd2.json", "--tiling", "shelling.json"),
)
GENUS_TWO_BETTI = [1, 4, 1]
GENUS_TWO_CHI = -2


def subdivided_f_vector(fv: tuple[int, int, int]) -> tuple[int, int, int]:
    """f-vector of the barycentric subdivision of a closed surface: a new
    vertex per face, two halves per edge plus six inner edges and six
    triangles per triangle."""
    v, e, f = fv
    return (v + e + f, 2 * e + 6 * f, 6 * f)


@dataclass
class StageRun:
    command: str
    code: int
    stdout: bytes
    stderr: bytes


class CliSweep(Workload):
    """The CLI pipeline as subprocesses over JSON files."""

    name = "cli-sweep"
    fixed_items = 1

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.surface = genus_two_surface()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-sweep-", dir=OUT))
        self.child_rss_kib = 0

    def inputs(self, i: int) -> list[tuple[int, ...]]:
        triangles = relabel(self.surface, self.rng(i))
        with open(self.dir / "surface.json", "w", encoding="utf-8") as fh:
            json.dump({"name": "genus-2",
                       "maximal_simplices": [list(m) for m in triangles]}, fh)
        return triangles

    def _child(self, argv: list[str], stem: str) -> tuple[int, bytes, bytes]:
        out_path = self.dir / f"{stem}.stdout"
        err_path = self.dir / f"{stem}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kib = max(self.child_rss_kib, usage.ru_maxrss)
        return proc.returncode, out_path.read_bytes(), err_path.read_bytes()

    def _stage(self, k: int, args: tuple[str, ...]) -> StageRun:
        argv = [sys.executable, "-m", "morseshell.cli", *args]
        return StageRun(args[0], *self._child(argv, f"stage{k}"))

    def run(self, inp, tr) -> list[StageRun]:
        stages = []
        for k, args in enumerate(CLI_CHAIN):
            stage = tr.call(f"cli.{args[0]}", self._stage, k, args)
            stages.append(stage)
            if stage.code != 0:
                break
        return stages

    def check(self, inp: list[tuple[int, ...]], res: list[StageRun]) -> Any:
        check(len(res) == len(CLI_CHAIN),
              f"stage {res[-1].command} exited {res[-1].code}:"
              f" {res[-1].stderr[:200]!r}")
        for stage in res:
            check(stage.code == 0, f"{stage.command} exited {stage.code}")
            check(stage.stderr == b"", f"{stage.command} wrote to stderr:"
                  f" {stage.stderr[:200]!r}")
        sub1, sub2, shell, verify, field, vpath, morse, ineq = (
            json.loads(stage.stdout) for stage in res)
        faces = closure_faces(inp)
        fv0 = tuple(sum(1 for f in faces if len(f) == d) for d in (1, 2, 3))
        fv1 = subdivided_f_vector(fv0)
        fv2 = subdivided_f_vector(fv1)
        check(tuple(sub1["f_vector"]) == fv1, f"first subdivision has"
              f" f-vector {sub1['f_vector']}, expected {fv1}")
        check(tuple(sub2["f_vector"]) == fv2, f"second subdivision has"
              f" f-vector {sub2['f_vector']}, expected {fv2}")
        check(shell["tiles"] == fv2[2], f"{shell['tiles']} tiles for"
              f" {fv2[2]} triangles")
        check(shell["carrier_faces"] == sum(fv2), "shelling misses faces")
        check(shell["euler_characteristic"] == GENUS_TWO_CHI,
              "wrong Euler characteristic")
        check(alternating_sum(shell["critical_vector"]) == GENUS_TWO_CHI,
              "critical vector does not sum to chi")
        check(verify["valid"] is True and verify["errors"] == [],
              "verify-shelling rejects the shelling")
        check(field["valid"] is True, "field is invalid")
        check(len(field["critical_cells"]) == sum(shell["critical_vector"]),
              "critical cells do not match critical tiles")
        check(vpath["valid"] is True and vpath["acyclic"] is True,
              "field is not acyclic")
        check(morse["valid"] is True and morse["gradient_matches"] is True,
              "Morse function is invalid or not the field's gradient")
        check(all(value == str(len(cell) - 1)
                  for cell, value in morse["critical_values"]),
              "Morse function is not self-indexing")
        check(all(ineq[key] is True for key in (
            "certified", "betti_bounded", "alternating_sums_ok",
            "euler_equality")), "inequalities verdicts are not all true")
        check(ineq["betti_mod2"] == GENUS_TWO_BETTI,
              f"Betti numbers {ineq['betti_mod2']}, expected"
              f" {GENUS_TWO_BETTI}")
        return [stage.stdout.decode() for stage in res]

    def trace_extra(self, i: int, inp, res: list[StageRun], tr: Tracer) -> None:
        """In-process versions of what the stages do, on the stage files."""
        code, _, err = tr.call("cli.startup", self._child,
                               [sys.executable, "-c", "import morseshell.cli"],
                               "startup")
        check(code == 0 and err == b"", "importing morseshell.cli failed")
        with open(self.dir / "shelling.json", encoding="utf-8") as fh:
            data = json.load(fh)
        with open(self.dir / "sd1.json", encoding="utf-8") as fh:
            K1 = SimplicialComplex.from_dict(json.load(fh))
        t = tr.call("tiling.from_dict", MorseTiling.from_dict, data)
        check(tr.call("tiling.to_dict", t.to_dict) == data,
              "tiling does not survive a JSON round trip")
        K2 = t.ambient
        tr.call("complexes.make_complex", _rebuild, K2.maximal_simplices)
        check(tr.call("complexes.barycentric_subdivision",
                      barycentric_subdivision, K1).complex == K2,
              "subdividing sd1.json does not give sd2.json")
        check(tr.call("complexes.is_closed_surface", is_closed_surface, K2),
              "subdivided surface is not closed")
        check(tr.call("generators.shell_surface", shell_surface,
                      K2).to_dict() == data,
              "library and CLI shellings differ")
        check(tr.call("tiling.validate_tiling", validate_tiling, t).valid,
              "tiling is invalid")
        check(tr.call("tiling.validate_shelling", validate_shelling, t).valid,
              "shelling is invalid")
        W = tr.call("morse.compatible_field", compatible_field, t)
        check(tr.call("morse.find_closed_vpath", find_closed_vpath, W) is None,
              "field has a closed V-path")
        f = tr.call("morse.morse_function", morse_function, W)
        check(tr.call("morse.validate_morse_function", validate_morse_function,
                      f, W).valid, "Morse function is invalid")
        check(tr.call("complexes.betti_numbers_mod2", betti_numbers_mod2,
                      K2) == GENUS_TWO_BETTI, "wrong Betti numbers")
        check(tr.call("morse.morse_inequalities_report",
                      morse_inequalities_report, K2, t).ok,
              "inequalities report is not ok")

    def count(self, inp, res: list[StageRun]) -> None:
        written = sum((self.dir / args[args.index("--out") + 1]).stat().st_size
                      for args in CLI_CHAIN if "--out" in args)
        self.counters["cli.json_bytes"] += written + sum(
            len(stage.stdout) for stage in res)

    def peak_rss_kib(self) -> int:
        return self.child_rss_kib

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# -- shelling-search ---------------------------------------------------------

# About 5% of the random complexes run into the budget whatever its size;
# they make the tail.  At 1,000 nodes such a search takes about 40 ms, so a
# few milliseconds of the host taking the CPU away move the tail by a tenth
# at most; at 200 nodes (about 8 ms) they moved it by up to three quarters.
SEARCH_BUDGET = 1000
SEARCH_VERTICES = 7
SEARCH_TRIANGLES = 10
# Of every 16 items, 14 are random complexes, one a relabeled small catalog
# surface (cycling through the list) and one the relabeled untileable wheel.
SEARCH_CYCLE = 16
SEARCH_SURFACES = (
    lambda: boundary_sphere(3), octahedron, lambda: bipyramid(4),
    lambda: bipyramid(6), projective_plane, moebius_kantor_torus, icosahedron,
)
# traced run: re-normalise the tiles of every 16th shelling, subdivided once
NORMALIZE_EVERY = 16


@dataclass
class SearchInput:
    kind: str  # "random" | "surface" | "wheel"
    triangles: list[tuple[int, ...]]


def _search(K: SimplicialComplex) -> tuple[str, MorseTiling | None]:
    try:
        t = search_shelling(K, budget=SEARCH_BUDGET)
    except SearchBudgetExceeded:
        return "budget", None
    return ("none", None) if t is None else ("found", t)


def tile_extension(tile) -> set[tuple[int, ...]]:
    """Faces of the closure containing every witness and not lying in the
    removed face: the definition of a tile's open faces."""
    removed = set(tile.removed_face) if tile.removed_face is not None else None
    return {f for f in closure_faces([tile.closure])
            if tile.witnesses <= set(f)
            and (removed is None or not set(f) <= removed)}


class ShellingSearch(Workload):
    """Backtracking shelling search under a fixed node budget."""

    name = "shelling-search"
    fixed_items = 64 * SEARCH_CYCLE

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.surfaces = [make() for make in SEARCH_SURFACES]
        self.wheel = untileable_wheel()
        self.all_triangles = list(combinations(range(SEARCH_VERTICES), 3))

    def inputs(self, i: int) -> SearchInput:
        rng = self.rng(i)
        slot = i % SEARCH_CYCLE
        if slot == SEARCH_CYCLE - 1:
            return SearchInput("wheel", relabel(self.wheel, rng))
        if slot == SEARCH_CYCLE - 2:
            K = self.surfaces[(i // SEARCH_CYCLE) % len(self.surfaces)]
            return SearchInput("surface", relabel(K, rng))
        return SearchInput("random",
                           rng.sample(self.all_triangles, SEARCH_TRIANGLES))

    def run(self, inp: SearchInput, tr) -> tuple[str, MorseTiling | None]:
        K = make_complex(inp.triangles)
        return tr.call("tiling.search_shelling", _search, K)

    def check(self, inp: SearchInput, res) -> Any:
        verdict, t = res
        if inp.kind == "wheel":
            check(verdict != "found", "found a shelling of the untileable wheel")
        if inp.kind == "surface":
            check(verdict != "none", "no shelling found for a closed surface")
        if verdict != "found":
            return verdict
        check(validate_shelling(t).valid, "found shelling is not valid")
        maximal = sorted(set(inp.triangles))
        check(sorted(tile.closure for tile in t.tiles) == maximal,
              "tile closures are not the maximal simplices")
        faces = closure_faces(maximal)
        covered: set[tuple[int, ...]] = set()
        for tile in t.tiles:
            ext = tile_extension(tile)
            check(not ext & covered, "tiles overlap")
            covered |= ext
            check(all(sub in covered for f in ext for r in range(1, len(f))
                      for sub in combinations(f, r)),
                  "a shelling prefix is not closed under faces")
        check(covered == faces, "tiles do not cover the complex")
        return [verdict, t.to_dict()["tiles"]]

    def trace_extra(self, i: int, inp: SearchInput, res, tr: Tracer) -> None:
        verdict, t = res
        if verdict != "found" or i % NORMALIZE_EVERY or i >= self.fixed_items:
            return
        for tile in subdivide_tiling(t, 1).tiles:
            ext = tile.extension
            back = tr.call("tiles.normalize_tile", normalize_tile, ext)
            check(back.extension == ext, "normalize_tile changed a tile")

    def count(self, inp: SearchInput, res) -> None:
        self.counters[f"tiling.search.{res[0]}"] += 1

    def layer_metrics(self, tr: Tracer) -> dict[str, float]:
        found, none, budget = (self.counters[f"tiling.search.{v}"]
                               for v in ("found", "none", "budget"))
        return {"tiling.search.found_ratio": found / (found + none + budget)}


# -- word-reduce -------------------------------------------------------------

# Reduction cost grows about cubically with length and varies from word to
# word.  One item reduces one word of each length, so every item has the
# same mix and an item's time varies much less than a single word's.
WORD_LADDER = (60, 100, 140)
TARGET = "ududdu"


def least_rotation(letters: str) -> str:
    return min(letters[i:] + letters[:i] for i in range(len(letters)))


def _round_trip(w):
    A = annulus_of_word(w)
    return A, word_of_annulus(A.complex, A.boundary_d, A.boundary_u)


def random_valid_word(rng: random.Random, length: int) -> str:
    while True:
        letters = "".join(rng.choice("du") for _ in range(length))
        d_blocks = sum(1 for k in range(length)
                       if letters[k] == "d" and letters[k - 1] != "d")
        # valid annulus words have each letter three times; one block of d's
        # has no simplicial model
        if min(letters.count("d"), letters.count("u")) >= 3 and d_blocks >= 2:
            return letters


class WordReduce(Workload):
    """reduce_word and the annulus round trip on random valid words, one
    word of each length of the ladder per item."""

    name = "word-reduce"
    fixed_items = 1

    def inputs(self, i: int) -> tuple[str, ...]:
        rng = self.rng(i)
        return tuple(random_valid_word(rng, length) for length in WORD_LADDER)

    def run(self, inp: tuple[str, ...], tr) -> list:
        out = []
        for letters in inp:
            w = word(letters)
            steps = tr.call("words.reduce_word", reduce_word, w)
            annulus, back = tr.call("words.annulus_round_trip", _round_trip, w)
            out.append((w, steps, annulus, back))
        return out

    def check(self, inp: tuple[str, ...], res: list) -> Any:
        check(len(res) == len(inp), "not every word was reduced")
        return [self._check_word(letters, r) for letters, r in zip(inp, res)]

    def _check_word(self, inp: str, res) -> Any:
        w, steps, annulus, back = res
        check(len(w) == len(inp) and w.letters in inp + inp,
              "canonical word is not a rotation of the input")
        cur = w
        for step in steps:
            nxt = apply_step(cur, step)
            check(nxt == step.result, f"step {step.op} does not replay")
            expected = (2 * cur.count("d") + 4 * cur.count("u")
                        if step.op == "subdivide" else len(cur) - 1)
            check(len(nxt) == expected, f"step {step.op} gave length"
                  f" {len(nxt)}, expected {expected}")
            check(nxt.count("d") >= 3 and nxt.count("u") >= 3,
                  "a step left fewer than three copies of a letter")
            cur = nxt
        check(sum(1 for s in steps if s.op == "subdivide") <= 1,
              "more than one subdivision")
        check(cur.letters == least_rotation(TARGET),
              f"trace ends at {cur.letters}, not {TARGET}")
        check(back == w, f"annulus round trip gave {back.letters}")
        check(len(annulus.complex.maximal_simplices) == len(w)
              and len(annulus.complex.vertices) == len(w),
              "annulus does not have one triangle and one vertex per letter")
        return {"trace": [s.to_dict() for s in steps],
                "round_trip": back.letters}

    def count(self, inp: tuple[str, ...], res: list) -> None:
        self.counters["words.trace_steps"] += sum(len(r[1]) for r in res)


WORKLOADS = {cls.name: cls for cls in
             (CertifySubdivided, CliSweep, ShellingSearch, WordReduce)}
