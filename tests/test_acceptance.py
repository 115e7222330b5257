"""Acceptance criteria: one test per criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

All checks are exact (integer or rational arithmetic); the stated time
budgets are generous on any modern machine.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

from morseshell.catalog import (
    bipyramid,
    boundary_sphere,
    surface_corpus,
    untileable_wheel,
)
from morseshell.complexes import (
    betti_numbers_mod2,
    euler_characteristic,
    faces_of,
    make_complex,
)
from morseshell.generators import handle_tiling, prism_triangulation, shell_surface
from morseshell.morse import (
    DiscreteVectorField,
    compatible_field,
    find_closed_vpath,
    gradient_of,
    is_vpath,
    morse_function,
    validate_morse_function,
)
from morseshell.tiles import (
    NotMorseTileError,
    boundary_partition,
    critical_tile,
    normalize_tile,
    standard_morse_tile,
    standard_tile,
)
from morseshell.tiling import (
    MorseTiling,
    NotShellableError,
    classical_shelling_order,
    critical_vector,
    h_table,
    pack_simplices,
    search_shelling,
    subdivide_tile,
    subdivide_tiling,
    validate_shelling,
)
from morseshell.words import (
    REDUCTION_TARGET,
    SIX_LETTER_WORDS,
    apply_step,
    reduce_word,
    word,
)


def report(number, text):
    print(f"[acceptance] criterion {number:2d}: {text}: PASS")


def all_tiles(n):
    out = [standard_tile(n, k) for k in range(n + 2)]
    for k in range(n + 1):
        for l in range(max(k - 1, 0), n - 1):
            out.append(standard_morse_tile(n, k, l))
    return out


def sphere_partition(n):
    K = make_complex(combinations(range(n + 2), n + 1))
    tiles = boundary_partition(standard_tile(n + 1, 0))
    return MorseTiling.over_complex(K, tiles, ordered=True)


def corpus_shellings():
    return [(name, K, shell_surface(K)) for name, K in surface_corpus()]


def test_criterion_01_boundary_sphere_tile_census():
    for n in range(1, 7):
        t = sphere_partition(n)
        assert sorted(tile.order for tile in t.tiles) == list(range(n + 2))
        assert validate_shelling(t).valid
        cv = critical_vector(t)
        expect = [0] * (n + 1)
        expect[0] = expect[n] = 1
        assert list(cv.counts) == expect
    report(1, "boundary spheres carry one tile per order with extreme"
              " critical tiles only, n = 1..6")


def test_criterion_02_tile_euler_characteristics():
    for n in range(0, 9):
        for k in range(n + 1):
            assert euler_characteristic(
                critical_tile(n, k).extension) == (-1) ** k
        for tile in all_tiles(n):
            if tile.is_critical:
                assert euler_characteristic(tile.extension) == (-1) ** tile.index
            elif tile.order == 0 and tile.is_basic:
                assert euler_characteristic(tile.extension) == 1
            else:
                assert euler_characteristic(tile.extension) == 0
    report(2, "brute-force tile Euler characteristics match the closed"
              " forms for all shapes up to dimension 8")


def test_criterion_03_subdivided_tiles_shell():
    for n in range(1, 6):
        for tile in all_tiles(n):
            t = subdivide_tile(tile)
            assert len(t.tiles) == math.factorial(n + 1)
            assert all(x.dim == n for x in t.tiles)
            assert validate_shelling(t).valid
            cv = critical_vector(t)
            if tile.is_critical:
                assert cv.total == 1 and cv.counts[tile.index] == 1
            else:
                assert cv.total == 0
    report(3, "subdivided tiles shell into (n+1)! same-dimension tiles with"
              " the critical census preserved, dimensions 1..5")


def test_criterion_04_subdivided_triangle_census():
    t = subdivide_tile(standard_tile(2, 0))
    census = h_table(t).order_census(2)
    # independent: the h-vector of the subdivided triangle from f = (7,12,6)
    f = (1, 7, 12, 6)
    d = 3
    coeffs = [0] * (d + 1)
    for i, fi in enumerate(f):
        e = d - i
        for j in range(e + 1):
            coeffs[d - (e - j)] += fi * ((-1) ** j) * math.comb(e, j)
    assert census == (1, 4, 1, 0)
    assert census == tuple(coeffs)
    report(4, "subdivided triangle order census (1,4,1,0) matches the"
              " h-vector computed from f = (7,12,6)")


def test_criterion_05_surface_shellings():
    shellings = corpus_shellings()
    assert len(shellings) >= 10
    for name, K, t in shellings:
        assert validate_shelling(t).valid, name
        W = compatible_field(t)
        assert find_closed_vpath(W) is None, name
        f = morse_function(W)
        rep = validate_morse_function(f, W)
        assert rep.valid and rep.gradient_matches, name
    report(5, "greedy shellings of ten closed surfaces validate with"
              " acyclic fields and verified Morse functions")


def test_criterion_06_morse_inequalities():
    for name, K, t in corpus_shellings():
        b = betti_numbers_mod2(K)
        cv = critical_vector(t)
        c = [cv[k] for k in range(3)]
        assert all(b[k] <= c[k] for k in range(3)), name
        for k in range(3):
            lhs = sum((-1) ** (k - i) * b[i] for i in range(k + 1))
            rhs = sum((-1) ** (k - i) * c[i] for i in range(k + 1))
            assert lhs <= rhs, name
            if k == 2:
                assert lhs == rhs, name
    report(6, "mod-2 Betti numbers are bounded by critical counts with"
              " alternating sums and top equality on every corpus surface")


def test_criterion_07_self_indexing():
    tilings = [t for _, _, t in corpus_shellings()]
    tilings += [sphere_partition(n) for n in (1, 2, 3)]
    tilings += [handle_tiling(n, v) for n in (2, 3)
                for v in ("one-handle", "co-handle", "lateral")]
    for t in tilings:
        W = compatible_field(t)
        f = morse_function(W)
        for cell in gradient_of(f).critical_cells():
            assert f.values[cell] == Fraction(len(cell) - 1)
    report(7, "every critical p-cell of every constructed Morse function"
              " has value exactly p")


def test_criterion_08_vertex_count_identity():
    tilings = [t for _, _, t in corpus_shellings()]
    tilings += [sphere_partition(n) for n in (1, 2, 3, 4)]
    tilings += [handle_tiling(n, v) for n in (2, 3, 4)
                for v in ("one-handle", "co-handle", "lateral")]
    tilings += [classical_shelling_order(prism_triangulation(n).complex,
                                         prism_triangulation(n).simplex_order)
                for n in (2, 3, 4)]
    tilings += [subdivide_tiling(sphere_partition(2), 1)]
    # generators never emit regular order-zero tiles, the one shape whose
    # subdivision falls outside the identity
    tilings += [subdivide_tile(t) for t in all_tiles(3)
                if t.order > 0 or t.is_basic]
    for t in tilings:
        assert h_table(t).vertex_identity_holds
    report(8, "the weighted order-zero plus order-one count equals the"
              " vertex count on every generated tiling")


def test_criterion_09_packings():
    for name, K, t in corpus_shellings():
        packed = pack_simplices(t)
        used = set()
        for s in packed:
            assert not (used & set(s)), name
            used.update(s)
        tab = h_table(t)
        per_dim = {}
        for s in packed:
            per_dim[len(s) - 1] = per_dim.get(len(s) - 1, 0) + 1
        for j in range(t.dim + 1):
            need = tab.basic.get((j, 0), 0) + tab.basic.get((j, 1), 0)
            assert per_dim.get(j, 0) >= need, name
    report(9, "packed subdivision simplices are vertex-disjoint and meet"
              " the per-dimension lower bound on all corpus tilings")


def test_criterion_10_prisms_and_handles():
    for n in range(2, 7):
        pr = prism_triangulation(n)
        assert len(pr.complex.maximal_simplices) == n
        t = classical_shelling_order(pr.complex, pr.simplex_order)
        assert validate_shelling(t).valid
        one = handle_tiling(n, "one-handle")
        assert validate_shelling(one).valid
        cv = critical_vector(one)
        assert cv.total == 1 and cv.counts[1] == 1
        co = handle_tiling(n, "co-handle")
        assert validate_shelling(co).valid
        cv = critical_vector(co)
        assert cv.total == 1 and cv.counts[n - 1] == 1
        lat = handle_tiling(n, "lateral")
        assert validate_shelling(lat).valid
        assert critical_vector(lat).total == 0
        assert all(x.order == 1 and x.is_basic for x in lat.tiles)
    report(10, "prisms shell classically and handle tilings match their"
               " critical censuses exactly, n = 2..6")


def test_criterion_11_word_calculus():
    # the four six-letter classes, exhaustively
    six = set()
    for bits in product("du", repeat=6):
        s = "".join(bits)
        if s.count("d") == 3 and s.count("u") == 3:
            six.add(word(s))
    assert six == set(SIX_LETTER_WORDS) and len(six) == 4
    # exhaustive reduction up to length 14
    seen = set()
    for m in range(6, 15):
        for bits in product("du", repeat=m):
            s = "".join(bits)
            if s.count("d") < 3 or s.count("u") < 3:
                continue
            w = word(s)
            if w in seen:
                continue
            seen.add(w)
            steps = reduce_word(w)
            cur = w
            for st in steps:
                cur = apply_step(cur, st)
                assert cur == st.result
            assert cur == REDUCTION_TARGET
            assert sum(1 for st in steps if st.op == "subdivide") <= 1
    # the block word needs its single subdivision and passes through the
    # fully subdivided word
    steps = reduce_word(word("uuuddd"))
    assert sum(1 for st in steps if st.op == "subdivide") == 1
    assert word("duudduudduuddddddd") in [st.result for st in steps]
    report(11, f"word calculus: four six-letter classes; {len(seen)} words"
               " of length up to 14 reduce to ududdu with at most one"
               " subdivision; the uuuddd trace passes through the"
               " subdivided word")


def test_criterion_12_negative_certificate():
    K = untileable_wheel()
    assert search_shelling(K) is None
    report(12, "the four-triangle wheel with identified tips exhausts the"
               " search space with no shelling")


def test_criterion_13_classical_equivalence():
    corpus = [
        boundary_sphere(3),
        make_complex([[0, 1, 2], [0, 3, 4]]),
        make_complex([[0, 1, 2], [1, 2, 3], [2, 3, 4]]),
        make_complex([[0, 1], [1, 2], [0, 2]]),
        make_complex([[0, 1, 2], [3, 4]]),
        bipyramid(3),
        untileable_wheel(),
        prism_triangulation(3).complex,
        make_complex([[0, 1, 2, 3], [2, 3, 4, 5]]),
    ]
    total = 0
    for K in corpus:
        assert len(K.maximal_simplices) <= 7
        for order in permutations(K.maximal_simplices):
            total += 1
            try:
                classical_shelling_order(K, order)
                classical_ok = True
            except NotShellableError:
                classical_ok = False
            covered = set()
            tiles = []
            basic_ok = True
            for s in order:
                ext = set(faces_of(s)) - covered
                try:
                    tile = normalize_tile(ext)
                except NotMorseTileError:
                    basic_ok = False
                    break
                if not tile.is_basic:
                    basic_ok = False
                    break
                tiles.append(tile)
                covered |= ext
            if basic_ok:
                t = MorseTiling.over_complex(K, tiles, ordered=True)
                basic_ok = validate_shelling(t).valid
            assert classical_ok == basic_ok, (K.name, order)
    report(13, f"classical shellability agrees with basic-tile shelling"
               f" validity over {total} orderings")


def test_criterion_14_rotating_matching_cycle():
    W = DiscreteVectorField(
        {(0,): (0, 1), (1,): (1, 2), (2,): (0, 2)},
        frozenset({(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)}))
    cycle = find_closed_vpath(W)
    assert cycle is not None
    assert cycle[0] == cycle[-1] and len(cycle) > 2
    assert is_vpath(W, cycle)
    report(14, "the rotating matching on the triangle boundary is detected"
               " as having a closed non-stationary V-path")
