"""Discrete vector fields, V-paths, Morse functions, inequalities."""

from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell import tiling
from morseshell.catalog import surface_corpus
from morseshell.complexes import link, make_complex
from morseshell.generators import HANDLE_VARIANTS, handle_tiling, shell_surface
from morseshell.tiles import (
    MorseTile,
    boundary_partition,
    critical_tile,
    standard_morse_tile,
    standard_tile,
)
from morseshell.tiling import (
    MorseTiling,
    Report,
    critical_vector,
    subdivide_tiling,
    validate_tiling,
)
from morseshell.morse import (
    CyclicFieldError,
    DiscreteMorseFunction,
    DiscreteVectorField,
    compatible_field,
    find_closed_vpath,
    _vpath_successors,
    gradient_of,
    is_vpath,
    morse_function,
    morse_inequalities_report,
    tile_field,
    validate_field,
    validate_morse_function,
)


def full_simplex(n):
    return make_complex([range(n + 1)])


def boundary_simplex(n):
    return make_complex(combinations(range(n + 1), n))


def sphere_partition(n):
    K = boundary_simplex(n + 1)
    tiles = boundary_partition(standard_tile(n + 1, 0))
    return MorseTiling.over_complex(K, tiles, ordered=True)


def all_tiles(n):
    out = [standard_tile(n, k) for k in range(n + 2)]
    for k in range(n + 1):
        for l in range(max(k - 1, 0), n - 1):
            out.append(standard_morse_tile(n, k, l))
    return out


def test_tile_field_closed_triangle():
    W = tile_field(standard_tile(2, 0))
    assert validate_field(W).valid
    assert len(W.matching) == 3
    assert W.critical_cells() == [(0,)]


def test_tile_field_critical_example():
    t = critical_tile(3, 2)
    W = tile_field(t)
    assert validate_field(W).valid
    assert W.critical_cells() == [(0, 1, 2)]
    assert W.matching == {(0, 1, 3): (0, 1, 2, 3)}


def test_tile_field_open_simplex():
    W = tile_field(standard_tile(3, 4))
    assert W.matching == {}
    assert W.critical_cells() == [(0, 1, 2, 3)]


def test_tile_field_census_all_tiles():
    for n in range(0, 7):
        for t in all_tiles(n):
            W = tile_field(t)
            assert validate_field(W).valid, t
            crit = W.critical_cells()
            assert len(t.extension) == len(crit) + 2 * len(W.matching)
            if t.is_critical:
                assert len(crit) == 1
                assert len(crit[0]) - 1 == t.index, t
            else:
                assert crit == [], t
            assert find_closed_vpath(W) is None, t


def test_compatible_field_on_sphere_partition():
    t = sphere_partition(2)
    W = compatible_field(t)
    assert validate_field(W).valid
    assert len(W.domain) == 14
    assert len(W.matching) == 6
    crit = W.critical_cells()
    assert [len(c) - 1 for c in crit] == [0, 2]


def test_compatible_field_critical_cells_match_tiles():
    for n in (1, 2, 3):
        t = sphere_partition(n)
        W = compatible_field(t)
        cv = critical_vector(t)
        crit = W.critical_cells()
        assert len(crit) == cv.total
        hist = [0] * (n + 1)
        for c in crit:
            hist[len(c) - 1] += 1
        assert hist == list(cv.counts)


def test_validate_field_catches_violations():
    # two vertices matched to the same edge
    W = DiscreteVectorField({(0,): (0, 1), (1,): (0, 1)},
                            frozenset({(0,), (1,), (0, 1)}))
    rep = validate_field(W)
    assert not rep.valid
    assert any("both matched" in e for e in rep.errors)
    # image that is also matched up
    W = DiscreteVectorField({(0,): (0, 1), (0, 1): (0, 1, 2)},
                            frozenset({(0,), (0, 1), (0, 1, 2)}))
    assert not validate_field(W).valid


def test_empty_matching_critical_count():
    K = full_simplex(2)
    W = DiscreteVectorField({}, K.faces)
    assert len(W.critical_cells()) == 7
    assert find_closed_vpath(W) is None


def test_rotating_matching_has_closed_vpath():
    # each vertex of the triangle boundary matched to the next edge around
    W = DiscreteVectorField(
        {(0,): (0, 1), (1,): (1, 2), (2,): (0, 2)},
        frozenset({(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)}))
    assert validate_field(W).valid
    cycle = find_closed_vpath(W)
    assert cycle is not None
    assert cycle[0] == cycle[-1]
    assert len(cycle) >= 4
    assert is_vpath(W, cycle)
    with pytest.raises(CyclicFieldError):
        morse_function(W)


def test_morse_function_single_triangle():
    K = full_simplex(2)
    t = MorseTiling.over_complex(K, [MorseTile((0, 1, 2))], ordered=True)
    W = compatible_field(t)
    f = morse_function(W)
    rep = validate_morse_function(f, W)
    assert rep.valid and rep.gradient_matches
    assert f.values[(0,)] == 0


def test_morse_function_sphere_critical_values():
    t = sphere_partition(2)
    W = compatible_field(t)
    f = morse_function(W)
    assert validate_morse_function(f, W).valid
    crit = f.critical_values()
    assert sorted(crit.values()) == [Fraction(0), Fraction(2)]


def test_morse_function_self_indexing_everywhere():
    for n in (1, 2, 3):
        t = sphere_partition(n)
        W = compatible_field(t)
        f = morse_function(W)
        for c in gradient_of(f).critical_cells():
            assert f.values[c] == len(c) - 1


def test_morse_function_open_simplex_carrier():
    t = MorseTiling(full_simplex(2), frozenset({(0, 1, 2)}),
                    (MorseTile((0, 1, 2), frozenset({0, 1, 2})),), True)
    W = compatible_field(t)
    f = morse_function(W)
    assert f.values[(0, 1, 2)] == 2


def test_validate_morse_function_dimension_function():
    K = full_simplex(2)
    values = {f: Fraction(len(f) - 1) for f in K.faces}
    f = DiscreteMorseFunction(values, K.faces)
    rep = validate_morse_function(f)
    assert rep.valid
    W = gradient_of(f)
    assert W.matching == {}
    assert len(W.critical_cells()) == 7


def test_matched_pair_exception_counts():
    t = sphere_partition(2)
    W = compatible_field(t)
    f = morse_function(W)
    rep = validate_morse_function(f)
    for a, b in W.pairs:
        assert rep.exceptions[a] == (1, 0)
        assert rep.exceptions[b] == (0, 1)


def test_gradient_round_trip_on_subdivided_sphere():
    t = subdivide_tiling(sphere_partition(2), 1)
    W = compatible_field(t)
    assert find_closed_vpath(W) is None
    f = morse_function(W)
    rep = validate_morse_function(f, W)
    assert rep.valid and rep.gradient_matches


def test_morse_inequalities_on_sphere():
    t = sphere_partition(2)
    rep = morse_inequalities_report(t.ambient, t)
    assert rep.ok
    assert rep.betti == [1, 0, 1]
    assert rep.critical == [1, 0, 1]


def test_morse_inequalities_requires_full_cover():
    t = sphere_partition(2)
    partial = MorseTiling(t.ambient, frozenset({(1, 2, 3)}),
                          (MorseTile((1, 2, 3), frozenset({1, 2, 3})),), True)
    with pytest.raises(ValueError):
        morse_inequalities_report(t.ambient, partial)


def circle_edge_tiling():
    """The circle boundary of a triangle tiled by its three edges, each
    with one witness: a valid tiling that is not a shelling."""
    K = boundary_simplex(2)
    tiles = [MorseTile((0, 1), frozenset({0})), MorseTile((1, 2), frozenset({1})),
             MorseTile((0, 2), frozenset({2}))]
    return MorseTiling.over_complex(K, tiles)


def test_morse_inequalities_uncertified_on_a_cyclic_field():
    t = circle_edge_tiling()
    assert validate_tiling(t).valid
    rep = morse_inequalities_report(t.ambient, t)
    assert rep.betti == [1, 1]
    assert rep.critical == [0, 0]
    assert not rep.certified
    assert not rep.betti_bounded
    assert not rep.alternating_ok
    assert rep.euler_equality
    assert not rep.ok
    assert ("inequalities not certified by this method: the compatible field"
            " has a closed V-path") in rep.messages


def test_morse_inequalities_on_the_empty_complex():
    # the link of an isolated vertex, tiled by no tiles
    K = link(make_complex([[0, 1], [2]]), 2)
    rep = morse_inequalities_report(K, MorseTiling.over_complex(K, []))
    assert rep.betti == [] and rep.critical == [0]
    assert rep.ok and rep.messages == []


def test_morse_inequalities_rejects_an_invalid_tiling():
    K = boundary_simplex(2)
    t = MorseTiling.over_complex(K, [MorseTile((0, 1))])
    with pytest.raises(ValueError, match="invalid tiling"):
        morse_inequalities_report(K, t)


def test_field_json_round_trip():
    t = sphere_partition(2)
    W = compatible_field(t)
    back = DiscreteVectorField.from_list(W.to_list(), domain=W.domain)
    assert back.matching == dict(W.matching)
    f = morse_function(W)
    fback = DiscreteMorseFunction.from_list(f.to_list())
    assert fback.values == dict(f.values)


def test_field_from_list_rejects_a_face_matched_twice():
    with pytest.raises(ValueError, match="twice"):
        DiscreteVectorField.from_list([[[0], [0, 1]], [[0], [0, 2]]])
    with pytest.raises(ValueError, match="twice"):
        DiscreteVectorField.from_list([[[0], [0, 1]], [[0], [1, 0]]])


def test_gradient_matches_false_for_another_field():
    K = full_simplex(1)
    # vertex 0 lies level with its only coface: the gradient pairs them
    values = {(0,): Fraction(1), (1,): Fraction(0), (0, 1): Fraction(1)}
    f = DiscreteMorseFunction(values, K.faces)
    assert validate_morse_function(f, gradient_of(f)).gradient_matches
    other = DiscreteVectorField({(1,): (0, 1)}, K.faces)
    rep = validate_morse_function(f, other)
    assert rep.gradient_matches is False and not rep.valid


def test_gradient_matches_false_with_two_falling_cofaces():
    K = full_simplex(2)
    # vertex 0 lies above both edges through it
    values = {f: Fraction(len(f) - 1) for f in K.faces} | {(0,): Fraction(2)}
    f = DiscreteMorseFunction(values, K.faces)
    with pytest.raises(ValueError):
        gradient_of(f)
    # every other face agrees with the empty field, so only the two falling
    # cofaces of (0,) can make the gradient differ
    rep = validate_morse_function(f, DiscreteVectorField({}, K.faces))
    assert rep.gradient_matches is False
    assert "face (0,): 2 cofaces with no larger value" in rep.errors


def test_validators_share_one_report_type():
    t = sphere_partition(2)
    W = compatible_field(t)
    rep = validate_morse_function(morse_function(W), W)
    for r in (validate_tiling(t), validate_field(W), rep):
        assert isinstance(r, Report) and bool(r) is r.valid is True


def test_field_and_function_validators_list_at_most_100_errors(monkeypatch):
    # 150 vertex-to-vertex pairs break two conditions each; a constant
    # function on a path breaks a Morse condition at almost every face
    W = DiscreteVectorField({(2 * i,): (2 * i + 1,) for i in range(150)},
                            frozenset((v,) for v in range(300)))
    path = make_complex([(i, i + 1) for i in range(120)])
    f = DiscreteMorseFunction({x: Fraction(0) for x in path.faces}, path.faces)
    with monkeypatch.context() as m:
        m.setattr(tiling, "MAX_ERRORS", 10 ** 9)
        full = [validate_field(W), validate_morse_function(f, W)]
    for rep, whole in zip([validate_field(W), validate_morse_function(f, W)],
                          full):
        assert len(whole.errors) > 100
        assert rep.errors == whole.errors[:100] + [
            f"{len(whole.errors)} errors in all; the first 100 are listed"]
        assert rep.valid is whole.valid is False
    assert rep.exceptions == full[1].exceptions
    assert rep.gradient_matches is full[1].gradient_matches is False


# -- oracles: V-path search, depths and Fraction comparisons done directly ---


def oracle_find_closed_vpath(W):
    """The coloured depth-first search on its own, without depths."""
    color = {}
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
                    return path[path.index(nxt):] + [nxt]
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


def oracle_morse_function(W):
    """Depths by a second search per dimension, values by Fraction
    arithmetic."""
    cycle = oracle_find_closed_vpath(W)
    if cycle is not None:
        raise CyclicFieldError(cycle)
    by_dim = defaultdict(list)
    for f in W.domain:
        by_dim[len(f) - 1].append(f)
    images = W.images
    values = {}
    for p, faces in sorted(by_dim.items()):
        depth = {}

        def depth_of(f):
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


def oracle_coface_index(domain):
    up = defaultdict(list)
    for f in domain:
        for s in combinations(f, len(f) - 1):
            if s in domain:
                up[s].append(f)
    return up


def oracle_validate_morse_function(f, W=None):
    """Separate coface and facet scans, comparing Fractions."""
    errors = []
    exceptions = {}
    up = oracle_coface_index(f.domain)
    down = defaultdict(list)
    for a, cofs in up.items():
        for b in cofs:
            down[b].append(a)
    gradient = {}
    unique_drops = True
    for face in sorted(f.domain, key=lambda x: (len(x), x)):
        drops = [c for c in up.get(face, ()) if f.values[c] <= f.values[face]]
        ups = len(drops)
        downs = sum(1 for c in down.get(face, ())
                    if f.values[c] >= f.values[face])
        if ups or downs:
            exceptions[face] = (ups, downs)
        if ups > 1:
            errors.append(f"face {face}: {ups} cofaces with no larger value")
            unique_drops = False
        elif drops:
            gradient[face] = drops[0]
        if downs > 1:
            errors.append(f"face {face}: {downs} facets with no smaller value")
    matches = None
    if W is not None:
        matches = unique_drops and gradient == dict(W.matching)
        if not matches:
            errors.append("extracted gradient differs from the given field")
    return errors, exceptions, matches


def oracle_gradient_of(f):
    up = oracle_coface_index(f.domain)
    matching = {}
    for face in f.domain:
        drops = [c for c in up.get(face, ()) if f.values[c] <= f.values[face]]
        if len(drops) > 1:
            raise ValueError(f"face {face} has {len(drops)} cofaces with no"
                             " larger value; not a discrete Morse function")
        if drops:
            matching[face] = drops[0]
    return matching


def assert_morse_layer_matches_oracle(W):
    old = oracle_morse_function(W)
    new = morse_function(W)
    assert new.to_list() == old.to_list()
    assert new.values == old.values
    for given_field in (W, None):
        rep = validate_morse_function(new, given_field)
        assert (rep.errors, rep.exceptions, rep.gradient_matches) == \
            oracle_validate_morse_function(new, given_field)
    assert gradient_of(new).matching == oracle_gradient_of(new)
    return new


@pytest.mark.parametrize("name,K", surface_corpus(),
                         ids=[name for name, _ in surface_corpus()])
def test_morse_layer_matches_oracle_on_catalog_surfaces(name, K):
    t = shell_surface(K)
    for d in (1, 2, 3):
        W = compatible_field(subdivide_tiling(t, d))
        assert find_closed_vpath(W) is None
        f = assert_morse_layer_matches_oracle(W)
        assert validate_morse_function(f, W).gradient_matches


def test_morse_layer_matches_oracle_on_handles_and_shapes():
    cases = [handle_tiling(n, v) for n in range(2, 6) for v in HANDLE_VARIANTS]
    for n in (2, 3):
        for tile in all_tiles(n):
            K = make_complex([tile.closure])
            cases.append(MorseTiling(K, tile.extension, (tile,), True))
    for t in cases:
        for d in (0, 1) if t.dim <= 3 else (0,):
            assert_morse_layer_matches_oracle(
                compatible_field(subdivide_tiling(t, d)))


@st.composite
def perturbed_morse_functions(draw):
    """The Morse function of a small tiled complex with a few values moved
    to other small fractions, so both Morse conditions can fail."""
    n = draw(st.integers(1, 3))
    tiles = all_tiles(n)
    tile = tiles[draw(st.integers(0, len(tiles) - 1))]
    t = subdivide_tiling(MorseTiling(make_complex([tile.closure]),
                                     tile.extension, (tile,), True),
                         draw(st.integers(0, 1)))
    W = compatible_field(t)
    values = dict(morse_function(W).values)
    faces = sorted(values)
    moves = draw(st.lists(st.tuples(st.integers(0, len(faces) - 1),
                                    st.integers(-2 * n - 2, 2 * n + 2),
                                    st.integers(1, 4)), max_size=6))
    for i, num, den in moves:
        values[faces[i]] = Fraction(num, den)
    return DiscreteMorseFunction(values, frozenset(values)), W


@settings(max_examples=150, deadline=None)
@given(perturbed_morse_functions())
def test_validation_matches_oracle_on_perturbed_functions(case):
    f, W = case
    for given_field in (W, None):
        rep = validate_morse_function(f, given_field)
        assert (rep.errors, rep.exceptions, rep.gradient_matches) == \
            oracle_validate_morse_function(f, given_field)
        assert rep.valid is not rep.errors
    try:
        expect = oracle_gradient_of(f)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            gradient_of(f)
        assert str(got.value) == str(exc)
    else:
        assert gradient_of(f).matching == expect


@st.composite
def random_fields(draw):
    """Random matchings (possibly cyclic) of faces to cofaces of a small
    complex: each face in turn is paired with a free coface or not."""
    K = make_complex(draw(st.lists(
        st.lists(st.integers(0, 5), min_size=2, max_size=4, unique=True),
        min_size=1, max_size=6)))
    used = set()
    matching = {}
    for face in sorted(K.faces, key=lambda x: (len(x), x)):
        if face in used:
            continue
        cofaces = [c for c in sorted(K.faces)
                   if len(c) == len(face) + 1 and set(face) < set(c)
                   and c not in used]
        pick = draw(st.integers(-1, len(cofaces) - 1))
        if pick >= 0:
            matching[face] = cofaces[pick]
            used.update((face, cofaces[pick]))
    return DiscreteVectorField(matching, K.faces)


@settings(max_examples=200, deadline=None)
@given(random_fields())
def test_walk_matches_oracle_on_random_fields(W):
    assert validate_field(W).valid
    cycle = oracle_find_closed_vpath(W)
    assert find_closed_vpath(W) == cycle
    if cycle is None:
        assert_morse_layer_matches_oracle(W)
    else:
        with pytest.raises(CyclicFieldError) as exc:
            morse_function(W)
        assert exc.value.cycle == cycle
        assert str(exc.value) == str(CyclicFieldError(cycle))


def test_morse_function_reports_the_closed_vpath_of_a_cyclic_field():
    # each vertex of the triangle boundary is matched to the next edge
    W = DiscreteVectorField({(0,): (0, 1), (1,): (1, 2), (2,): (0, 2)},
                            boundary_simplex(2).faces)
    cycle = find_closed_vpath(W)
    assert cycle == oracle_find_closed_vpath(W) == [(0,), (1,), (2,), (0,)]
    with pytest.raises(CyclicFieldError) as exc:
        morse_function(W)
    assert exc.value.cycle == cycle
    assert str(exc.value) == "closed V-path of length 3 through (0,)"
