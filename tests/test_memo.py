"""Memoized products: the tiling check, the compatible field and the V-path
walk are computed once per object, and no caller can change them."""

import pytest

from morseshell.catalog import surface_corpus
from morseshell.generators import HANDLE_VARIANTS, handle_tiling, shell_surface
from morseshell.morse import (
    DiscreteVectorField,
    compatible_field,
    find_closed_vpath,
    morse_function,
    morse_inequalities_report,
    validate_morse_function,
)
from morseshell.tiling import (
    MorseTiling,
    subdivide_tiling,
    validate_shelling,
    validate_tiling,
)


def shuffled_tiling(t):
    """The tiles of t in reverse order: a valid tiling, not a shelling."""
    return MorseTiling(t.ambient, t.carrier, t.tiles[::-1], ordered=True)


@pytest.mark.parametrize("broken", [False, True])
def test_mutating_a_report_changes_no_later_report(broken):
    t = subdivide_tiling(shell_surface(surface_corpus()[0][1]), 1)
    if broken:
        t = shuffled_tiling(t)
    fresh = MorseTiling.from_dict(t.to_dict())
    expect_tiling, expect_shelling = validate_tiling(fresh), validate_shelling(fresh)
    assert expect_shelling.valid is not broken
    for _ in range(2):
        for rep in (validate_shelling(t), validate_tiling(t)):
            rep.errors.append("a caller's note")
            rep.errors[:1] = []
            rep.valid = not rep.valid
    assert validate_tiling(t) == expect_tiling
    assert validate_shelling(t) == expect_shelling


def test_a_field_keeps_its_matching_when_the_source_dict_changes():
    t = subdivide_tiling(shell_surface(surface_corpus()[0][1]), 1)
    source = dict(compatible_field(t).matching)
    W = DiscreteVectorField(source, t.carrier)
    fresh = DiscreteVectorField(dict(source), t.carrier)
    assert find_closed_vpath(W) is None
    # turn the matching into a closed V-path around one triangle's boundary
    source.clear()
    source.update({(0,): (0, 1), (1,): (1, 2), (2,): (0, 2)})
    assert dict(W.matching) == dict(fresh.matching)
    assert find_closed_vpath(W) == find_closed_vpath(fresh) is None
    assert morse_function(W).to_list() == morse_function(fresh).to_list()


def test_a_field_matching_is_read_only():
    W = compatible_field(subdivide_tiling(shell_surface(surface_corpus()[0][1]), 1))
    face = next(iter(W.matching))
    with pytest.raises(TypeError):
        W.matching[face] = face
    with pytest.raises(TypeError):
        W.matching[(10 ** 6,)] = (10 ** 6, 10 ** 6 + 1)


def test_the_compatible_field_is_built_once_per_tiling():
    t = shell_surface(surface_corpus()[0][1])
    W = compatible_field(t)
    assert compatible_field(t) is W
    assert compatible_field(MorseTiling.from_dict(t.to_dict())) is not W


def products(t, order):
    """Every report and output of the certify path, in the given order."""
    out = {}
    steps = {
        "tiling": lambda: validate_tiling(t),
        "shelling": lambda: validate_shelling(t),
        "field": lambda: compatible_field(t).to_list(),
        "critical": lambda: compatible_field(t).critical_cells(),
        "cycle": lambda: find_closed_vpath(compatible_field(t)),
        "function": lambda: morse_function(compatible_field(t)).to_list(),
        "function report": lambda: validate_morse_function(
            morse_function(compatible_field(t)), compatible_field(t)),
        "inequalities": lambda: morse_inequalities_report(t.ambient, t),
    }
    for name in order:
        try:
            out[name] = steps[name]()
        except ValueError as exc:  # a partial carrier has no inequalities
            out[name] = ("ValueError", str(exc))
    return out


PIPELINE = ("tiling", "shelling", "field", "critical", "cycle", "function",
            "function report", "inequalities")


def memo_cases():
    for name, K in surface_corpus():
        base = shell_surface(K)
        for d in (1, 2, 3):
            yield f"{name}/d{d}", lambda base=base, d=d: subdivide_tiling(base, d)
    for n in (2, 3, 4):
        for variant in HANDLE_VARIANTS:
            yield f"{variant}/{n}", lambda n=n, v=variant: handle_tiling(n, v)
            yield f"{variant}/{n}/d1", \
                lambda n=n, v=variant: subdivide_tiling(handle_tiling(n, v), 1)


CASES = dict(memo_cases())


@pytest.mark.parametrize("case", CASES)
def test_memoized_products_equal_those_of_fresh_objects(case):
    t = CASES[case]()
    first = products(t, PIPELINE)
    again = products(t, PIPELINE[::-1])
    fresh_t = MorseTiling.from_dict(t.to_dict())
    assert fresh_t.ambient == t.ambient
    assert fresh_t.tiles == t.tiles
    fresh = products(fresh_t, PIPELINE[::-1])
    assert first == again == fresh
    assert first["tiling"].valid and first["shelling"].valid
    assert first["cycle"] is None
