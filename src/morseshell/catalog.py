"""Built-in example complexes: closed surfaces at desk scale and the
standard four-triangle complex that admits no Morse tiling."""

from __future__ import annotations

from itertools import combinations

from .complexes import SimplicialComplex, barycentric_subdivision, make_complex


def boundary_sphere(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex: the minimal (n-1)-sphere."""
    return make_complex(combinations(range(n + 1), n), name=f"boundary-sphere-{n - 1}")


def octahedron() -> SimplicialComplex:
    """The octahedral 2-sphere: antipodal pairs (0,5), (1,4), (2,3)."""
    faces = [(i, j, k) for i in (0, 5) for j in (1, 4) for k in (2, 3)]
    return make_complex(faces, name="octahedron")


def bipyramid(m: int) -> SimplicialComplex:
    """Suspension of an m-cycle: a 2-sphere with m+2 vertices."""
    if m < 3:
        raise ValueError("the equator needs at least three vertices")
    faces = []
    for i in range(m):
        j = (i + 1) % m
        faces.append((i, j, m))
        faces.append((i, j, m + 1))
    return make_complex(faces, name=f"bipyramid-{m}")


def icosahedron() -> SimplicialComplex:
    """The icosahedral 2-sphere: poles 0 and 11, upper pentagon 1..5,
    lower pentagon 6..10 offset by half a step."""
    faces = []
    for i in range(5):
        u, u2 = 1 + i, 1 + (i + 1) % 5
        l, l2 = 6 + i, 6 + (i + 1) % 5
        faces.append((0, u, u2))
        faces.append((u, u2, l))
        faces.append((u2, l, l2))
        faces.append((11, l, l2))
    return make_complex(faces, name="icosahedron")


def projective_plane() -> SimplicialComplex:
    """Six-vertex projective plane: the icosahedron modulo the antipodal
    map."""
    ico = icosahedron()
    anti = {0: 11, 11: 0}
    for i in range(5):
        anti[1 + i] = 6 + (i + 2) % 5
        anti[6 + i] = 1 + (i + 3) % 5
    faces = {tuple(sorted(min(v, anti[v]) for v in f))
             for f in ico.maximal_simplices}
    return make_complex(faces, name="projective-plane")


def moebius_kantor_torus() -> SimplicialComplex:
    """The seven-vertex torus on the complete graph over Z/7."""
    faces = []
    for i in range(7):
        faces.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return make_complex(faces, name="torus-7")


def klein_bottle(columns: int = 4, rows: int = 3) -> SimplicialComplex:
    """Klein bottle from a grid with a reflected vertical gluing."""
    if columns < 4 or rows < 3:
        raise ValueError("grid too small to stay simplicial")

    def vid(i: int, j: int) -> int:
        i %= columns
        if j == rows:
            return (columns - i) % columns  # reflected wrap onto row 0
        return columns * j + i

    faces = []
    for j in range(rows):
        for i in range(columns):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i, j + 1), vid(i + 1, j + 1)
            faces.append(tuple(sorted((a, b, d))))
            faces.append(tuple(sorted((a, d, c))))
    return make_complex(faces, name="klein-bottle")


def genus_two_surface() -> SimplicialComplex:
    """Connected sum of two seven-vertex tori glued along a triangle."""
    t1 = moebius_kantor_torus()
    glue = t1.maximal_simplices[0]
    fresh: dict[int, int] = {}
    next_id = max(t1.vertices) + 1
    t2_faces = []
    for f in t1.maximal_simplices:
        mapped = []
        for v in f:
            if v in glue:
                mapped.append(v)
            else:
                if v not in fresh:
                    fresh[v] = next_id
                    next_id += 1
                mapped.append(fresh[v])
        t2_faces.append(tuple(sorted(mapped)))
    faces = [f for f in t1.maximal_simplices if f != glue]
    faces += [f for f in t2_faces if f != glue]
    return make_complex(faces, name="genus-2")


def subdivided_sphere() -> SimplicialComplex:
    K = barycentric_subdivision(boundary_sphere(3)).complex
    return make_complex(K.maximal_simplices, name="subdivided-sphere")


def untileable_wheel() -> SimplicialComplex:
    """Four triangles with no Morse tiling: a central triangle touched by
    three blades at single vertices, the blade tips glued at one hub.

    All twelve edges are private to their triangles, so every tile must
    keep its three closed edges and hence at least two of its vertices;
    four tiles then need at least eight vertices, but only seven exist.
    """
    hub = 0
    center = (1, 2, 3)
    blades = [(hub, 1, 4), (hub, 2, 5), (hub, 3, 6)]
    return make_complex([center] + blades, name="untileable-wheel")


def surface_corpus() -> list[tuple[str, SimplicialComplex]]:
    """Named closed surfaces covering spheres, tori, non-orientable and
    higher-genus cases."""
    surfaces = [
        boundary_sphere(3),
        octahedron(),
        icosahedron(),
        bipyramid(4),
        bipyramid(6),
        subdivided_sphere(),
        moebius_kantor_torus(),
        klein_bottle(),
        projective_plane(),
        genus_two_surface(),
    ]
    return [(K.name, K) for K in surfaces]
