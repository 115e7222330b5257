"""Core simplicial-complex behaviour."""

import random
from itertools import combinations

import pytest

from morseshell.catalog import (
    genus_two_surface,
    klein_bottle,
    octahedron,
    surface_corpus,
    untileable_wheel,
)
from morseshell.complexes import (
    _gf2_pivots,
    barycentric_subdivision,
    betti_numbers_mod2,
    connected_components,
    euler_characteristic,
    is_closed_surface,
    is_subcomplex,
    link,
    make_complex,
    simplex,
    single_face_intersection,
    skeleton,
    star,
)


def full_simplex(n):
    return make_complex([range(n + 1)])


def boundary_simplex(n):
    return make_complex(combinations(range(n + 1), n))


def brute_faces(maximal):
    out = set()
    for m in maximal:
        for r in range(1, len(m) + 1):
            out.update(combinations(tuple(sorted(m)), r))
    return out


def test_simplex_canonical_form():
    assert simplex([3, 1, 0]) == (0, 1, 3)
    with pytest.raises(ValueError):
        simplex([])
    with pytest.raises(ValueError):
        simplex([1, 1])
    with pytest.raises(ValueError):
        simplex([-1, 2])


def test_make_complex_single_triangle():
    K = make_complex([[0, 1, 2]])
    assert K.faces == frozenset(
        {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)})


def test_make_complex_absorbs_dominated():
    assert make_complex([[0, 1], [1, 2], [0, 1, 2]]) == make_complex([[0, 1, 2]])


def test_make_complex_drops_duplicates_and_dominated_in_mixed_dimensions():
    assert make_complex([[0, 1, 2], [1, 2]]).maximal_simplices == ((0, 1, 2),)
    assert make_complex([[3, 4], [4]]).maximal_simplices == ((3, 4),)
    tet = [[0, 1, 2, 3]] + [list(t) for t in combinations(range(4), 3)]
    assert make_complex(tet).maximal_simplices == ((0, 1, 2, 3),)
    assert make_complex([[2, 0, 1], [1, 2, 0]]).maximal_simplices == ((0, 1, 2),)
    # the dominating simplex need not share the dominated one's least vertex
    K = make_complex([[6], [1, 2], [0, 1, 2], [2, 3], [3], [5, 6], [7]])
    assert K.maximal_simplices == ((0, 1, 2), (2, 3), (5, 6), (7,))


def test_make_complex_matches_brute_force_dominance():
    rng = random.Random(7)
    for _ in range(200):
        sims = {tuple(sorted(rng.sample(range(7), rng.randint(1, 4))))
                for _ in range(rng.randint(1, 12))}
        expected = tuple(sorted(s for s in sims
                                if not any(set(s) < set(t) for t in sims)))
        assert make_complex(sims).maximal_simplices == expected


def test_make_complex_empty_input_errors():
    with pytest.raises(ValueError):
        make_complex([])


def test_boundary_tetrahedron_face_count():
    K = boundary_simplex(3)
    # independent enumeration of subsets
    assert K.faces == frozenset(brute_faces(K.maximal_simplices))
    assert len(K.faces) == 14
    assert K.f_vector == (4, 6, 4)


def test_skeleton_triangle():
    K = skeleton(full_simplex(2), 1)
    assert len(K.faces) == 6
    assert K.dim == 1


def test_skeleton_vertices():
    K = skeleton(full_simplex(3), 0)
    assert K.maximal_simplices == ((0,), (1,), (2,), (3,))


def test_skeleton_of_boundary_is_complete_graph():
    K = skeleton(boundary_simplex(3), 1)
    expect = {f for f in brute_faces([[0, 1, 2, 3]]) if len(f) <= 2}
    assert K.faces == frozenset(expect)


def test_skeleton_above_dim_is_identity():
    K = boundary_simplex(3)
    assert skeleton(K, 5) is K


def test_subdivision_of_edge():
    sd = barycentric_subdivision(make_complex([[0, 1]]))
    assert len(sd.complex.faces_of_dim(0)) == 3
    assert len(sd.complex.faces_of_dim(1)) == 2


def test_subdivision_of_triangle():
    sd = barycentric_subdivision(full_simplex(2))
    assert sd.complex.f_vector == (7, 12, 6)
    # one fresh vertex per face of the base complex
    assert len(sd.vertex_face) == 7


def test_subdivision_of_boundary_tetrahedron():
    sd = barycentric_subdivision(boundary_simplex(3))
    assert len(sd.complex.faces_of_dim(0)) == 14
    assert len(sd.complex.faces_of_dim(2)) == 24


def test_subdivision_top_count_is_factorial():
    for K, n in [(full_simplex(2), 2), (full_simplex(3), 3), (boundary_simplex(3), 2)]:
        sd = barycentric_subdivision(K)
        top_base = len(K.faces_of_dim(n))
        import math
        assert len(sd.complex.faces_of_dim(n)) == top_base * math.factorial(n + 1)


def test_subdivision_carrier_labelling():
    K = full_simplex(2)
    sd = barycentric_subdivision(K)
    inner = sd.faces_over({(0, 1, 2)})
    # open triangle of the base carries its barycenter vertex and every flag
    # simplex through it
    assert (sd.face_vertex[(0, 1, 2)],) in inner
    assert all(sd.carrier_face(f) == (0, 1, 2) for f in inner)
    assert euler_characteristic(inner) == euler_characteristic({(0, 1, 2)})


def test_subdivision_preserves_euler_characteristic():
    for K in [full_simplex(3), boundary_simplex(3), make_complex([[0, 1, 2], [2, 3]])]:
        sd = barycentric_subdivision(K)
        assert euler_characteristic(sd.complex.faces) == euler_characteristic(K.faces)


def test_subdivision_of_empty_complex_fails_when_its_flags_are_read():
    # the link of an isolated vertex is empty: it numbers no faces and its
    # subdivision has no maximal flags
    sd = barycentric_subdivision(link(make_complex([[0, 1], [2]]), 2))
    assert sd.vertex_face == () and sd.face_vertex == {}
    with pytest.raises(ValueError, match="empty complex"):
        sd.complex


def test_link_in_boundary_tetrahedron_is_cycle():
    K = boundary_simplex(3)
    L = link(K, 0)
    assert L.f_vector == (3, 3)
    assert is_closed_surface(K)


def test_link_of_triangle_vertex_is_edge():
    L = link(full_simplex(2), 0)
    assert L.maximal_simplices == ((1, 2),)


def test_link_missing_vertex_errors():
    with pytest.raises(ValueError):
        link(full_simplex(2), 7)


def test_star_counts():
    K = boundary_simplex(3)
    st = star(K, 0)
    assert len(st) == 1 + 3 + 3  # vertex, edges, triangles


def test_star_in_seven_vertex_torus():
    from morseshell.catalog import moebius_kantor_torus
    K = moebius_kantor_torus()
    st = star(K, 0)
    # every vertex has degree six: the open star holds 6 triangles,
    # 6 edges and the vertex itself
    assert sum(1 for f in st if len(f) == 3) == 6
    assert len(st) == 13


def test_is_closed_surface_negative_cases():
    assert not is_closed_surface(full_simplex(2))  # boundary edges
    glued = make_complex([[0, 1, 2], [0, 3, 4]])  # two triangles at a vertex
    assert not is_closed_surface(glued)
    assert not is_closed_surface(full_simplex(3))


def test_is_closed_surface_rejects_octahedra_glued_at_a_vertex():
    # every edge lies in two triangles, but vertex 5's link is two cycles
    first = octahedron().maximal_simplices
    second = [[v + 5 for v in t] for t in first]
    assert is_closed_surface(make_complex(first))
    assert is_closed_surface(make_complex(second))
    assert not is_closed_surface(make_complex([*first, *second]))


def test_is_closed_surface_rejects_an_edge_in_four_triangles():
    # two tetrahedron boundaries sharing the edge (0, 1)
    K = make_complex([*combinations((0, 1, 2, 3), 3), *combinations((0, 1, 4, 5), 3)])
    assert not is_closed_surface(K)


def test_euler_characteristic_examples():
    assert euler_characteristic(boundary_simplex(3).faces) == 2
    assert euler_characteristic({(0, 1, 2)}) == 1
    assert euler_characteristic(full_simplex(4).faces) == 1


def test_betti_sphere():
    assert betti_numbers_mod2(boundary_simplex(3)) == [1, 0, 1]


def test_betti_contractible():
    for n in range(1, 5):
        assert betti_numbers_mod2(full_simplex(n)) == [1] + [0] * n


def test_betti_circle_and_wedge():
    circle = make_complex([[0, 1], [1, 2], [0, 2]])
    assert betti_numbers_mod2(circle) == [1, 1]
    wedge = make_complex([[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]])
    assert betti_numbers_mod2(wedge) == [1, 2]


def test_betti_subdivided_genus_two_and_klein_bottle():
    sd = barycentric_subdivision(genus_two_surface()).complex
    assert betti_numbers_mod2(sd) == [1, 4, 1]
    assert betti_numbers_mod2(klein_bottle()) == [1, 2, 1]


def dense_gf2_rank(rows, ncols):
    """Reference rank: Gauss-Jordan elimination on a 0/1 matrix, column
    by column."""
    m = [[(r >> j) & 1 for j in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_gf2_rank_matches_dense_elimination():
    rng = random.Random(2002)
    for _ in range(300):
        ncols = rng.randint(1, 16)
        density = rng.choice((0.1, 0.3, 0.5, 0.9))
        rows = [sum(1 << j for j in range(ncols) if rng.random() < density)
                for _ in range(rng.randint(0, 14))]
        if rows and rng.random() < 0.5:  # duplicate rows and zero rows
            rows += [rng.choice(rows), 0]
            rng.shuffle(rows)
        assert len(_gf2_pivots(rows)) == dense_gf2_rank(rows, ncols), rows


def test_gf2_rank_edge_cases():
    assert len(_gf2_pivots([])) == 0
    assert len(_gf2_pivots([0, 0, 0])) == 0
    assert len(_gf2_pivots([0b101, 0b101, 0b101])) == 1
    assert len(_gf2_pivots([0b011, 0b110, 0b101])) == 2  # rows sum to zero
    rng = random.Random(5)
    for n in range(1, 20):
        # full rank: a random upper unitriangular matrix, rows shuffled
        rows = [(1 << i) | (rng.getrandbits(n) >> (i + 1) << (i + 1))
                for i in range(n)]
        rng.shuffle(rows)
        assert len(_gf2_pivots(rows)) == n == dense_gf2_rank(rows, n)


def test_betti_alternating_sum_is_euler():
    for K in [boundary_simplex(3), full_simplex(3),
              make_complex([[0, 1, 2], [2, 3], [4]])]:
        b = betti_numbers_mod2(K)
        assert sum((-1) ** i * x for i, x in enumerate(b)) == \
            euler_characteristic(K.faces)


def brute_cofacets(K):
    return {f: tuple(sorted(g for g in K.faces
                            if len(g) == len(f) + 1 and set(f) < set(g)))
            for f in K.faces}


@pytest.mark.parametrize("K", [K for _, K in surface_corpus()]
                         + [untileable_wheel(), full_simplex(3),
                            make_complex([[0, 1, 2], [2, 3]]),
                            make_complex([[4]])])
def test_cofacets_match_their_definition(K):
    assert K.cofacets == brute_cofacets(K)
    assert list(K.cofacets) == sorted(K.faces)


def test_cofacets_of_a_triangle_with_a_tail():
    up = make_complex([[0, 1, 2], [2, 3]]).cofacets
    assert up[(2,)] == ((0, 2), (1, 2), (2, 3))
    assert up[(1, 2)] == ((0, 1, 2),)
    assert up[(2, 3)] == up[(0, 1, 2)] == ()
    assert make_complex([[4]]).cofacets == {(4,): ()}


def test_connected_components():
    K = make_complex([[0, 1, 2], [5, 6], [9]])
    comps = connected_components(K)
    assert [c.vertices for c in comps] == [(0, 1, 2), (5, 6), (9,)]


def reference_components(K):
    """Components grown by repeated scans for maximal simplices that share
    a vertex, each built through the public constructor."""
    left = list(K.maximal_simplices)
    out = []
    while left:
        comp, verts = [left.pop(0)], set()
        verts.update(comp[0])
        grown = True
        while grown:
            grown = False
            for m in list(left):
                if verts & set(m):
                    comp.append(m)
                    verts.update(m)
                    left.remove(m)
                    grown = True
        out.append(make_complex(comp, name=K.name))
    return sorted(out, key=lambda c: c.vertices[0])


@pytest.mark.parametrize("seed", range(12))
def test_connected_components_match_the_public_constructor(seed):
    # one to three catalog surfaces on shuffled, interleaved vertex ids
    rng = random.Random(seed)
    corpus = [K for _, K in surface_corpus()]
    maximal, offset = [], 0
    for K in rng.sample(corpus, rng.randint(1, 3)):
        maximal += [[v + offset for v in m] for m in K.maximal_simplices]
        offset += max(K.vertices) + 1
    perm = list(range(offset))
    rng.shuffle(perm)
    K = make_complex([[perm[v] for v in m] for m in maximal], name="union")
    got = connected_components(K)
    expect = reference_components(K)
    assert [(c.maximal_simplices, c.name, c.faces, c.f_vector) for c in got] \
        == [(c.maximal_simplices, c.name, c.faces, c.f_vector) for c in expect]


@pytest.mark.parametrize("K", [K for _, K in surface_corpus()]
                         + [untileable_wheel(), full_simplex(3),
                            make_complex([[0, 1, 2], [2, 3], [7]])])
def test_faces_by_dim_lists_each_dimension_in_order(K):
    assert len(K.faces_by_dim) == K.dim + 1
    for d in range(-1, K.dim + 2):
        expect = sorted(f for f in K.faces if len(f) - 1 == d)
        got = K.faces_of_dim(d)
        assert got == expect
        got.append((99,))  # a caller's list is its own
        assert K.faces_of_dim(d) == expect
        if 0 <= d <= K.dim:
            assert K.faces_by_dim[d] == tuple(expect)


def test_single_face_intersection_simple_cases():
    K = full_simplex(2)
    assert single_face_intersection(K, make_complex([[0, 1]]))
    assert not single_face_intersection(K, make_complex([[0], [1]]))
    with pytest.raises(ValueError):
        single_face_intersection(K, make_complex([[7]]))


def test_single_face_intersection_in_subdivision():
    sd = barycentric_subdivision(full_simplex(2))
    boundary = sd.subcomplex(boundary_simplex(2))
    assert is_subcomplex(sd.complex, boundary)
    assert single_face_intersection(sd.complex, boundary)


def test_single_face_intersection_subdivided_pairs():
    # manifold-with-boundary pairs keep the property after subdividing
    pairs = [
        (full_simplex(2), boundary_simplex(2)),
        (full_simplex(3), boundary_simplex(3)),
        (make_complex([[0, 1, 2], [1, 2, 3]]), make_complex([[0, 1], [0, 2], [1, 3], [2, 3]])),
    ]
    for K, L in pairs:
        sd = barycentric_subdivision(K)
        assert single_face_intersection(sd.complex, sd.subcomplex(L))


def test_complex_json_round_trip():
    K = boundary_simplex(3)
    from morseshell.complexes import SimplicialComplex
    assert SimplicialComplex.from_dict(K.to_dict()) == K


# -- equality, hashing and printing; rejected inputs ------------------------


def test_complexes_equal_and_hash_alike_by_maximal_simplices():
    K = make_complex([(0, 1), (1, 2)], name="path")
    same = make_complex([(2, 1), (1,), (0, 1)])  # the name is not compared
    assert K == same and hash(K) == hash(same)
    assert len({K, same, make_complex([(0, 1)])}) == 2
    assert (K == K.maximal_simplices) is False
    assert K.__eq__("path") is NotImplemented
    assert repr(K) == "SimplicialComplex(2 maximal, dim 1 'path')"
    assert repr(same) == "SimplicialComplex(2 maximal, dim 1)"


def test_negative_skeleton_dimension_is_rejected():
    with pytest.raises(ValueError, match="^skeleton dimension must be"
                       " non-negative$"):
        skeleton(full_simplex(2), -1)


def test_star_of_a_missing_vertex_is_rejected():
    with pytest.raises(ValueError, match="^vertex 9 is not in the complex$"):
        star(full_simplex(2), 9)


def test_subdividing_a_non_subcomplex_is_rejected():
    sd = barycentric_subdivision(make_complex([(0, 1), (1, 2)]))
    with pytest.raises(ValueError, match="^not a subcomplex of the base$"):
        sd.subcomplex(make_complex([(0, 2)]))


def test_a_simplex_meeting_in_an_edge_and_a_vertex_is_not_single_face():
    # the triangle meets the subcomplex in the edge (0, 1) plus the vertex 3
    K = make_complex([(0, 1, 3)])
    assert not single_face_intersection(K, make_complex([(0, 1), (3,)]))
    assert single_face_intersection(K, make_complex([(0, 1)]))


def test_catalog_rejects_grids_too_small_to_stay_simplicial():
    from morseshell.catalog import bipyramid
    with pytest.raises(ValueError, match="^the equator needs at least three"
                       " vertices$"):
        bipyramid(2)
    with pytest.raises(ValueError, match="^grid too small to stay"
                       " simplicial$"):
        klein_bottle(3, 3)
