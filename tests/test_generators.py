"""Surface shellings, prisms, handles and the catalog complexes."""

import json
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell.catalog import (
    bipyramid,
    boundary_sphere,
    moebius_kantor_torus,
    octahedron,
    projective_plane,
    surface_corpus,
    untileable_wheel,
)
from morseshell.complexes import (
    betti_numbers_mod2,
    euler_characteristic,
    is_closed_surface,
    make_complex,
)
from morseshell.generators import (
    HANDLE_VARIANTS,
    handle_tiling,
    prism_triangulation,
    shell_surface,
)
from morseshell.morse import compatible_field, find_closed_vpath
from morseshell.tiling import (
    NotShellableError,
    classical_shelling_order,
    critical_vector,
    h_table,
    search_shelling,
    validate_shelling,
    validate_tiling,
)


def test_shell_surface_tetrahedron_with_start():
    K = boundary_sphere(3)
    t = shell_surface(K, start=(0, 1, 2))
    kinds = [str(x.kind) for x in t.tiles]
    assert t.tiles[0].closure == (0, 1, 2)
    assert [x.order for x in t.tiles] == [0, 1, 2, 3]
    assert [x.is_critical for x in t.tiles] == [True, False, False, True]
    assert validate_shelling(t).valid
    assert list(critical_vector(t).counts) == [1, 0, 1]


def test_shell_surface_octahedron():
    t = shell_surface(octahedron())
    assert len(t.tiles) == 8
    cv = critical_vector(t)
    assert cv.counts[0] == 1
    assert cv.counts[2] - cv.counts[1] + 1 == 2  # Euler constraint
    assert validate_shelling(t).valid


def test_shell_surface_torus():
    K = moebius_kantor_torus()
    t = shell_surface(K)
    assert len(t.tiles) == 14
    assert validate_shelling(t).valid
    cv = critical_vector(t)
    assert sum((-1) ** k * c for k, c in enumerate(cv.counts)) == 0
    b = betti_numbers_mod2(K)
    assert all(b[k] <= cv[k] for k in range(3))


def test_shell_surface_rejects_non_surfaces():
    with pytest.raises(ValueError):
        shell_surface(make_complex([[0, 1, 2], [2, 3]]))
    with pytest.raises(ValueError):
        shell_surface(boundary_sphere(3), start=(0, 1, 7))


def test_shell_surface_never_regular_order_zero_later():
    for _, K in surface_corpus():
        t = shell_surface(K)
        for i, tile in enumerate(t.tiles):
            if tile.order == 0 and not tile.is_critical:
                pytest.fail(f"regular order-zero tile at {i}")
        assert validate_shelling(t).valid


def test_shell_surface_disconnected():
    K1 = boundary_sphere(3)
    shift = {v: v + 10 for v in bipyramid(3).vertices}
    K2 = [[shift[v] for v in f] for f in bipyramid(3).maximal_simplices]
    K = make_complex(list(K1.maximal_simplices) + K2)
    t = shell_surface(K)
    assert validate_shelling(t).valid
    assert critical_vector(t).counts[0] == 2  # one minimum per component
    assert euler_characteristic(t.carrier) == 4


def test_shell_surface_acyclic_fields():
    for _, K in surface_corpus():
        t = shell_surface(K)
        W = compatible_field(t)
        assert find_closed_vpath(W) is None, K.name


def test_prism_triangulation_shapes():
    for n in range(2, 7):
        pr = prism_triangulation(n)
        assert len(pr.complex.maximal_simplices) == n
        assert pr.complex.dim == n
        bottom, top = set(pr.bottom), set(pr.top)
        for i, sigma in enumerate(pr.simplex_order, start=1):
            assert len(set(sigma) & bottom) - 1 == n - i
            assert len(set(sigma) & top) - 1 == i - 1
        t = classical_shelling_order(pr.complex, pr.simplex_order)
        assert validate_shelling(t).valid
        assert [x.order for x in t.tiles] == [0] + [1] * (n - 1)


def test_prism_rejects_small_n():
    with pytest.raises(ValueError):
        prism_triangulation(1)


def test_handle_tiling_one_handle():
    for n in range(2, 7):
        t = handle_tiling(n, "one-handle")
        assert validate_shelling(t).valid
        cv = critical_vector(t)
        assert cv.total == 1 and cv.counts[1] == 1
        shapes = sorted((x.order, x.removed_dim) for x in t.tiles
                        if not x.is_basic)
        # removed-face dimensions 0..n-2 with order one; the top one is basic
        assert shapes == [(1, j) for j in range(n - 1)]
        basics = [x for x in t.tiles if x.is_basic]
        assert len(basics) == 1 and basics[0].order == 2


def test_handle_tiling_co_handle():
    for n in range(2, 7):
        t = handle_tiling(n, "co-handle")
        assert validate_shelling(t).valid
        cv = critical_vector(t)
        assert cv.total == 1 and cv.counts[n - 1] == 1
        basics = [x for x in t.tiles if x.is_basic and not x.is_critical]
        crit = [x for x in t.tiles if x.is_critical]
        assert len(crit) == 1 and crit[0].index == n - 1
        assert len(basics) == n - 1 and all(x.order == n for x in basics)


def test_handle_tiling_lateral():
    for n in range(2, 7):
        t = handle_tiling(n, "lateral")
        assert validate_tiling(t).valid
        assert validate_shelling(t).valid
        assert critical_vector(t).total == 0
        assert all(x.is_basic and x.order == 1 for x in t.tiles)
        assert len(t.tiles) == n


def test_handle_tiling_example_shapes():
    t = handle_tiling(3, "one-handle")
    kinds = sorted((x.order, x.removed_dim, x.is_critical) for x in t.tiles)
    assert kinds == [(1, 0, True), (1, 1, False), (2, None, False)]
    t = handle_tiling(3, "co-handle")
    assert sorted(x.order for x in t.tiles) == [2, 3, 3]
    with pytest.raises(ValueError):
        handle_tiling(3, "two-handle")


def test_handle_vertex_identity():
    for n in range(2, 6):
        for variant in ("one-handle", "co-handle", "lateral"):
            tab = h_table(handle_tiling(n, variant))
            assert tab.vertex_identity_holds


def test_untileable_wheel_structure():
    K = untileable_wheel()
    assert K.f_vector == (7, 12, 4)
    # all edges private: every edge lies in exactly one triangle
    from collections import Counter
    from itertools import combinations as combs
    cnt = Counter(e for t in K.faces_of_dim(2) for e in combs(t, 2))
    assert set(cnt.values()) == {1}


def test_untileable_wheel_has_no_shelling():
    assert search_shelling(untileable_wheel()) is None


def grid_torus(m, n):
    """Torus from an m-by-n grid with doubly periodic gluing."""
    faces = []
    for i in range(m):
        for j in range(n):
            a = m * j + i
            b = m * j + (i + 1) % m
            c = m * ((j + 1) % n) + i
            d = m * ((j + 1) % n) + (i + 1) % m
            faces.append(tuple(sorted((a, b, d))))
            faces.append(tuple(sorted((a, d, c))))
    return make_complex(faces, name=f"torus-{m}x{n}")


def test_shell_larger_torus_full_pipeline():
    from morseshell.morse import (
        compatible_field,
        find_closed_vpath,
        gradient_of,
        morse_function,
        validate_morse_function,
    )
    from morseshell.tiling import subdivide_tiling

    K = grid_torus(5, 5)
    assert is_closed_surface(K)
    assert betti_numbers_mod2(K) == [1, 2, 1]
    t = shell_surface(K)
    assert len(t.tiles) == 50
    assert validate_shelling(t).valid
    s = subdivide_tiling(t, 1)
    assert len(s.tiles) == 300
    assert validate_shelling(s).valid
    assert critical_vector(s).counts == critical_vector(t).counts
    W = compatible_field(s)
    assert find_closed_vpath(W) is None
    f = morse_function(W)
    rep = validate_morse_function(f, W)
    assert rep.valid and rep.gradient_matches
    assert gradient_of(f).matching == dict(W.matching)


def test_tile_euler_additivity_on_generated_tilings():
    tilings = [shell_surface(K) for _, K in surface_corpus()]
    tilings += [handle_tiling(n, v) for n in (2, 3, 4)
                for v in ("one-handle", "co-handle", "lateral")]
    for t in tilings:
        assert sum(euler_characteristic(x.extension) for x in t.tiles) == \
            euler_characteristic(t.carrier)


def test_shell_surface_is_deterministic():
    K = moebius_kantor_torus()
    assert shell_surface(K).tiles == shell_surface(K).tiles


def test_surface_corpus_is_closed():
    corpus = surface_corpus()
    assert len(corpus) >= 10
    for name, K in corpus:
        assert is_closed_surface(K), name


def test_corpus_topology():
    expected = {
        "boundary-sphere-2": ([1, 0, 1], 2),
        "octahedron": ([1, 0, 1], 2),
        "icosahedron": ([1, 0, 1], 2),
        "bipyramid-4": ([1, 0, 1], 2),
        "bipyramid-6": ([1, 0, 1], 2),
        "subdivided-sphere": ([1, 0, 1], 2),
        "torus-7": ([1, 2, 1], 0),
        "klein-bottle": ([1, 2, 1], 0),
        "projective-plane": ([1, 1, 1], 1),
        "genus-2": ([1, 4, 1], -2),
    }
    for name, K in surface_corpus():
        b, chi = expected[name]
        assert betti_numbers_mod2(K) == b, name
        assert euler_characteristic(K.faces) == chi, name


# sha256 prefixes of each builder's JSON, recorded while every builder still
# wrote out its own closed-simplex-minus-covered step; the shared step must
# not change a byte
BUILDER_DIGESTS = {
    "shell_surface/boundary-sphere-2": "41d9daea5ab65713",
    "classical/boundary-sphere-2": "41d9daea5ab65713",
    "shell_surface/octahedron": "2d627f171d88d5ca",
    "classical/octahedron": "2d627f171d88d5ca",
    "shell_surface/icosahedron": "77ba113fb852552b",
    "classical/icosahedron": "77ba113fb852552b",
    "shell_surface/bipyramid-4": "41ef8531c1f7c96c",
    "classical/bipyramid-4": "41ef8531c1f7c96c",
    "shell_surface/bipyramid-6": "51e424e514704c31",
    "classical/bipyramid-6": "51e424e514704c31",
    "shell_surface/subdivided-sphere": "0f5143d372860435",
    "classical/subdivided-sphere": "0f5143d372860435",
    "shell_surface/torus-7": "febf8d04913b7bae",
    "classical/torus-7": "5de776ba938c0af2",
    "shell_surface/klein-bottle": "381841a250465b1f",
    "classical/klein-bottle": "2c562de45e4c3139",
    "shell_surface/projective-plane": "e33c3700df9ebcce",
    "classical/projective-plane": "790338c1d014c82c",
    "shell_surface/genus-2": "df07badd3979e793",
    "classical/genus-2": "23ae40423282bc98",
    "classical/prism-2": "d8be70947c98819a",
    "one-handle/2": "1911d3181c67385a",
    "co-handle/2": "b8fd3c18cd200801",
    "lateral/2": "5e22ea9db0658085",
    "classical/prism-3": "48a89c15c26aaf86",
    "one-handle/3": "fed65204431871b4",
    "co-handle/3": "c161e45535b7b4a6",
    "lateral/3": "9abe37e4591e464e",
    "classical/prism-4": "907da5385d54d985",
    "one-handle/4": "5232c6c26ea07696",
    "co-handle/4": "3ad91cca8ca09c0c",
    "lateral/4": "98590c54b6abab02",
    "classical/prism-5": "3aa73af82c3f9dd4",
    "one-handle/5": "33fe7e98ad5e8ce5",
    "co-handle/5": "b7c0f2f9dc430fda",
    "lateral/5": "0e0c15672cc03f2b",
    "shell_surface/two-components-start": "8e645235c31af8e3",
}


def two_component_surface():
    """The seven-vertex torus on even ids and the projective plane on odd
    ids, so the components interleave."""
    torus = [[2 * v for v in m] for m in moebius_kantor_torus().maximal_simplices]
    rp2 = [[2 * v + 1 for v in m] for m in projective_plane().maximal_simplices]
    return make_complex(torus + rp2, name="torus-7+projective-plane")


def builder_outputs():
    out = {}
    for name, K in surface_corpus():
        t = shell_surface(K)
        out[f"shell_surface/{name}"] = t.to_dict()
        try:
            out[f"classical/{name}"] = classical_shelling_order(
                K, [tile.closure for tile in t.tiles]).to_dict()
        except NotShellableError as exc:
            out[f"classical/{name}"] = ["NotShellableError", exc.index,
                                        str(exc)]
    for n in range(2, 6):
        pr = prism_triangulation(n)
        out[f"classical/prism-{n}"] = classical_shelling_order(
            pr.complex, pr.simplex_order).to_dict()
        for variant in HANDLE_VARIANTS:
            out[f"{variant}/{n}"] = handle_tiling(n, variant).to_dict()
    # start in the second component: its last triangle
    out["shell_surface/two-components-start"] = shell_surface(
        two_component_surface(), start=(5, 9, 11)).to_dict()
    return out


def test_builders_keep_their_outputs():
    for key, data in builder_outputs().items():
        blob = json.dumps(data, sort_keys=True).encode()
        assert sha256(blob).hexdigest()[:16] == BUILDER_DIGESTS[key], key


@st.composite
def relabeled_surfaces(draw):
    """One or two catalog surfaces on shuffled, interleaved vertex ids, and
    a start triangle or None."""
    corpus = surface_corpus()
    parts = draw(st.lists(st.sampled_from(range(len(corpus))),
                          min_size=1, max_size=2))
    maximal, offset = [], 0
    for i in parts:
        K = corpus[i][1]
        maximal += [[v + offset for v in m] for m in K.maximal_simplices]
        offset += max(K.vertices) + 1
    perm = draw(st.permutations(range(offset)))
    K = make_complex([[perm[v] for v in m] for m in maximal])
    start = draw(st.none() | st.sampled_from(K.maximal_simplices))
    return K, len(parts), start


@settings(max_examples=60, deadline=None)
@given(relabeled_surfaces())
def test_shell_surface_on_relabeled_surfaces(case):
    K, components, start = case
    t = shell_surface(K, start=start)
    assert validate_shelling(t).valid
    assert critical_vector(t).counts[0] == components
    first = start if start is not None else K.maximal_simplices[0]
    assert first in [tile.closure for tile in t.tiles if tile.order == 0]
