"""Discrete vector fields, V-paths, Morse functions, inequalities."""

from fractions import Fraction
from itertools import combinations

import pytest

from morseshell.complexes import make_complex
from morseshell.tiles import (
    MorseTile,
    boundary_partition,
    critical_tile,
    standard_morse_tile,
    standard_tile,
)
from morseshell.tiling import (
    MorseTiling,
    critical_vector,
    subdivide_tiling,
)
from morseshell.morse import (
    CyclicFieldError,
    DiscreteMorseFunction,
    DiscreteVectorField,
    compatible_field,
    find_closed_vpath,
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
