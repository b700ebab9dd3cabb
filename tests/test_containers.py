import math
import warnings

import pytest

from isokit import (
    DEFAULT_TOLERANCES,
    CanonicalTriangle,
    ContainerVariant,
    Kind,
    NearRightAngleWarning,
    NotScalene,
    Point,
    Triangle,
    all_special_containers,
    area,
    canonicalize,
    contains_triangle,
    first_kind,
    minimum_isosceles_container,
    second_kind,
    third_kind,
    triangle_from_angles,
    triangle_from_sides,
    sample_canonical_triangles,
)
from isokit import containers
from isokit.containers import _RAYS, _ROWS
from referee import dist


@pytest.fixture(scope="module")
def t345():
    return triangle_from_sides(3.0, 4.0, 5.0)


@pytest.fixture(scope="module")
def acute():
    # beta = 60 degrees exactly would make ABC'', ABC2, and ABCbar coincide
    # as point sets (the equilateral triangle on AB), so stay generic
    return triangle_from_angles(math.radians(50), math.radians(63), scale=2.0)


@pytest.fixture(scope="module")
def batch():
    return sample_canonical_triangles(seed=7, count=300)


class TestFirstKind:
    def test_345_ratios_match_closed_forms(self, t345):
        # closed forms b/a, c/b, c/a cross-checked against the coordinate
        # construction's shoelace area
        got = {sc.variant: sc.ratio for sc in first_kind(t345)}
        assert got[ContainerVariant.FIRST_AB_PRIME_C] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert got[ContainerVariant.FIRST_ABC_PRIME] == pytest.approx(5.0 / 4.0, rel=1e-12)
        assert got[ContainerVariant.FIRST_ABC_DOUBLE_PRIME] == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_345_area_order(self, t345):
        got = {sc.variant: sc.area for sc in first_kind(t345)}
        # always t(ABC'') > t(ABC'); and t(AB'C) > t(ABC') iff b^2 > ac
        assert got[ContainerVariant.FIRST_ABC_DOUBLE_PRIME] > got[ContainerVariant.FIRST_ABC_PRIME]
        assert 4.0 **  2 > 3.0 * 5.0
        assert got[ContainerVariant.FIRST_AB_PRIME_C] > got[ContainerVariant.FIRST_ABC_PRIME]

    def test_ratios_closed_form_batch(self, batch):
        for ct in batch:
            got = [sc.ratio for sc in first_kind(ct)]
            want = [ct.b / ct.a, ct.c / ct.b, ct.c / ct.a]
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-9)

    def test_b2_vs_ac_criterion_batch(self, batch):
        for ct in batch:
            scs = {sc.variant: sc.area for sc in first_kind(ct)}
            lhs = scs[ContainerVariant.FIRST_AB_PRIME_C] > scs[ContainerVariant.FIRST_ABC_PRIME]
            rhs = ct.b**2 > ct.a * ct.c
            if abs(ct.b**2 - ct.a * ct.c) > 1e-9 * ct.c**2:
                assert lhs == rhs

    def test_not_scalene(self):
        with pytest.raises(NotScalene):
            first_kind(triangle_from_sides(1.0, 1.0, 1.5))


class TestSecondKind:
    def test_345_ab1c_ratio(self, t345):
        # cos(alpha) = (b^2 + c^2 - a^2)/(2bc) = 0.8 -> ratio 2*4*0.8/5
        sc = second_kind(t345)[0]
        assert sc.variant is ContainerVariant.SECOND_AB1_C
        assert sc.ratio == pytest.approx(1.28, rel=1e-12)

    def test_defining_distances_batch(self, batch):
        for ct in batch:
            ab1c, abc1, abc2 = second_kind(ct)
            A, C = ct.tri.A, ct.tri.C
            B = ct.tri.B
            assert dist(ab1c.tri.B, C) == pytest.approx(ct.b, rel=1e-9)  # |B1 C| = b
            assert dist(abc1.tri.C, B) == pytest.approx(ct.c, rel=1e-9)  # |C1 B| = c
            assert dist(abc2.tri.C, A) == pytest.approx(ct.c, rel=1e-9)  # |C2 A| = c
            # B1 != A, C1 != A, C2 != B (the reflected copies, not the fixed points)
            assert dist(ab1c.tri.B, A) > 1e-9
            assert dist(abc1.tri.C, A) > 1e-9
            assert dist(abc2.tri.C, B) > 1e-9

    def test_containment_batch(self, batch):
        for ct in batch:
            for sc in second_kind(ct):
                assert contains_triangle(sc.tri, ct.tri)

    def test_ab1c_ratio_closed_form_batch(self, batch):
        for ct in batch:
            sc = second_kind(ct)[0]
            want = 2.0 * ct.b * math.cos(ct.alpha) / ct.c
            assert sc.ratio == pytest.approx(want, rel=1e-9)

    def test_not_scalene(self):
        with pytest.raises(NotScalene):
            second_kind(triangle_from_sides(2.0, 2.0, 3.0))


class TestThirdKind:
    def test_right_triangle_has_one(self, t345):
        with pytest.warns(NearRightAngleWarning):
            out = third_kind(t345)
        assert [sc.variant for sc in out] == [ContainerVariant.THIRD_AB_CBAR]

    def test_acute_has_three(self, acute):
        out = third_kind(acute)
        assert [sc.variant for sc in out] == [
            ContainerVariant.THIRD_ABAR_BC,
            ContainerVariant.THIRD_A_BBAR_C,
            ContainerVariant.THIRD_AB_CBAR,
        ]

    def test_obtuse_has_one(self):
        ct = triangle_from_angles(math.radians(30), math.radians(40))
        out = third_kind(ct)
        assert len(out) == 1

    def test_new_vertex_equidistant(self, acute):
        # the replaced vertex sits on a perpendicular bisector of the side it
        # is paired with
        abar, bbar, cbar = third_kind(acute)
        assert dist(abar.new_vertex, acute.tri.B) == pytest.approx(
            dist(abar.new_vertex, acute.tri.C), rel=1e-9
        )
        assert dist(bbar.new_vertex, acute.tri.A) == pytest.approx(
            dist(bbar.new_vertex, acute.tri.C), rel=1e-9
        )
        assert dist(cbar.new_vertex, acute.tri.A) == pytest.approx(
            dist(cbar.new_vertex, acute.tri.B), rel=1e-9
        )

    def test_not_scalene(self):
        with pytest.raises(NotScalene):
            third_kind(triangle_from_sides(2.0, 3.0, 3.0))

    def test_right_angle_cutoff_inside(self):
        # eps_angle = 1e-9 is absolute, in radians: half of it below 90
        # degrees keeps only ABCbar and warns
        ct = triangle_from_angles(math.radians(40), math.radians(50) + 0.5e-9)
        assert 0.5 * math.pi - ct.gamma == pytest.approx(0.5e-9, abs=1e-13)
        with pytest.warns(NearRightAngleWarning):
            out = third_kind(ct)
        assert [sc.variant for sc in out] == [ContainerVariant.THIRD_AB_CBAR]

    def test_right_angle_cutoff_outside(self):
        # twice eps_angle below 90 degrees builds all three, silently
        ct = triangle_from_angles(math.radians(40), math.radians(50) + 2e-9)
        assert 0.5 * math.pi - ct.gamma == pytest.approx(2e-9, abs=1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NearRightAngleWarning)
            out = third_kind(ct)
        assert [sc.variant for sc in out] == [
            ContainerVariant.THIRD_ABAR_BC,
            ContainerVariant.THIRD_A_BBAR_C,
            ContainerVariant.THIRD_AB_CBAR,
        ]


class TestSharedStructure:
    def test_shares_two_vertices_bitwise(self, acute):
        for sc in all_special_containers(acute):
            shared = set(sc.tri.vertices) & set(acute.tri.vertices)
            assert len(shared) == 2

    def test_isosceles_within_tolerance(self, batch):
        for ct in batch:
            for sc in all_special_containers(ct):
                sides = sorted(
                    dist(sc.tri.vertices[i], sc.tri.vertices[(i + 1) % 3]) for i in range(3)
                )
                assert (
                    abs(sides[0] - sides[1]) <= 1e-9 * sides[2]
                    or abs(sides[1] - sides[2]) <= 1e-9 * sides[2]
                )

    def test_containment_and_ratio(self, batch):
        for ct in batch:
            for sc in all_special_containers(ct):
                assert contains_triangle(sc.tri, ct.tri)
                assert sc.ratio == pytest.approx(area(sc.tri) / ct.area, rel=1e-12)
                assert sc.ratio > 1.0

    def test_count_by_shape(self, batch):
        for ct in batch:
            n = len(all_special_containers(ct))
            if ct.gamma < math.pi / 2 - 1e-9:
                assert n == 9
            else:
                assert n == 7

    def test_right_angle_cutoff_inside(self):
        # half of eps_angle below 90 degrees drops AbarBC and ABbarC, and warns
        ct = triangle_from_angles(math.radians(40), math.radians(50) + 0.5e-9)
        with pytest.warns(NearRightAngleWarning):
            out = all_special_containers(ct)
        dropped = (ContainerVariant.THIRD_ABAR_BC, ContainerVariant.THIRD_A_BBAR_C)
        assert [sc.variant for sc in out] == [v for v in ContainerVariant if v not in dropped]

    def test_right_angle_cutoff_outside(self):
        # twice eps_angle below 90 degrees builds all nine, silently
        ct = triangle_from_angles(math.radians(40), math.radians(50) + 2e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NearRightAngleWarning)
            out = all_special_containers(ct)
        assert [sc.variant for sc in out] == list(ContainerVariant)

    def test_pairwise_distinct_point_sets(self, acute):
        def key(sc):
            return tuple(sorted((round(p.x, 9), round(p.y, 9)) for p in sc.tri.vertices))

        seen = {key(sc) for sc in all_special_containers(acute)}
        assert len(seen) == 9

    def test_pairwise_distinct_random_acute(self):
        rng_batch = [
            triangle_from_angles(math.radians(a), math.radians(b))
            for a, b in ((50, 63), (46, 62), (55, 61), (40, 65), (30, 70))
        ]
        for ct in rng_batch:
            def key(sc):
                return tuple(sorted((round(p.x, 9), round(p.y, 9)) for p in sc.tri.vertices))

            assert len({key(sc) for sc in all_special_containers(ct)}) == 9


class TestThirdKindDominated:
    def test_pairings_batch(self, batch):
        # every third-kind container is beaten by its paired second-kind one,
        # with real margin
        for ct in batch:
            second = {sc.variant: sc for sc in second_kind(ct)}
            third = {sc.variant: sc for sc in third_kind(ct)}
            eps = DEFAULT_TOLERANCES.eps_num
            cbar = third[ContainerVariant.THIRD_AB_CBAR]
            ab1c = second[ContainerVariant.SECOND_AB1_C]
            assert cbar.area - ab1c.area > eps * cbar.area
            if ContainerVariant.THIRD_A_BBAR_C in third:
                bbar = third[ContainerVariant.THIRD_A_BBAR_C]
                abc1 = second[ContainerVariant.SECOND_ABC1]
                assert bbar.area - abc1.area > eps * bbar.area
            if ContainerVariant.THIRD_ABAR_BC in third:
                abar = third[ContainerVariant.THIRD_ABAR_BC]
                abc2 = second[ContainerVariant.SECOND_ABC2]
                assert abar.area - abc2.area > eps * abar.area


# label, kind, replaced slot (0, 1, 2 for A, B, C) and new-vertex label of
# each container, in build order; the labels are spelled out by code point,
# so that a normalized Abar (U+0100) shows up too
VARIANT_TABLE = [
    ("AB'C", Kind.FIRST, 1, "B\u2032"),
    ("ABC'", Kind.FIRST, 2, "C\u2032"),
    ("ABC''", Kind.FIRST, 2, "C\u2033"),
    ("AB1C", Kind.SECOND, 1, "B\u2081"),
    ("ABC1", Kind.SECOND, 2, "C\u2081"),
    ("ABC2", Kind.SECOND, 2, "C\u2082"),
    ("AbarBC", Kind.THIRD, 0, "A\u0304"),
    ("ABbarC", Kind.THIRD, 1, "B\u0304"),
    ("ABCbar", Kind.THIRD, 2, "C\u0304"),
]


def test_variant_table(acute):
    got = []
    for sc in all_special_containers(acute):
        # the two kept vertices are bitwise the input's; the new one is not
        replaced = [i for i, (p, q) in enumerate(zip(sc.tri.vertices, acute.tri.vertices)) if p != q]
        assert len(replaced) == 1, sc.label
        assert sc.new_vertex == sc.tri.vertices[replaced[0]]
        got.append((sc.label, sc.kind, replaced[0], sc.new_vertex_label))
    assert got == VARIANT_TABLE


def test_one_row_per_variant_split_by_kind():
    assert list(_RAYS) == list(ContainerVariant)
    assert all(sorted(pqr) == [0, 1, 2] for _, pqr, _ in _RAYS.values())
    # the rows of each kind, kinds in order, are the rows of `_RAYS` in order
    rows = [(v, k, (p, q, r)) for kind in Kind for v, k, p, q, r in _ROWS[kind]]
    assert rows == [(v, k, pqr) for v, (k, pqr, _) in _RAYS.items()]
    assert all(k is kind for kind in Kind for _, k, *_ in _ROWS[kind])


def test_kind_tags(acute):
    kinds = [sc.kind for sc in all_special_containers(acute)]
    assert kinds == [Kind.FIRST] * 3 + [Kind.SECOND] * 3 + [Kind.THIRD] * 3


def reference_container(ct: CanonicalTriangle, variant: ContainerVariant) -> tuple:
    """(variant, tri, area, ratio) of the container PQX of `variant`,
    X = P + s*(R - P), with ratio s: one container per call, built eagerly,
    as the library built them before it stored the ratio alone."""
    kind, (p, q, r), _ = _RAYS[variant]
    vertices = list(ct.tri.vertices)
    P, Q, R = vertices[p], vertices[q], vertices[r]
    # the side opposite each slot: |PQ| = sides[r], |PR| = sides[q]
    sides = (ct.a, ct.b, ct.c)
    ex, ey = R.x - P.x, R.y - P.y
    if kind is Kind.FIRST:
        s = sides[r] / sides[q]
    else:
        dot = (Q.x - P.x) * ex + (Q.y - P.y) * ey
        if kind is Kind.SECOND:
            s = 2.0 * dot / (ex * ex + ey * ey)
        else:
            s = sides[r] * sides[r] / (2.0 * dot)
    vertices[r] = Point(P.x + ex * s, P.y + ey * s)
    return (variant, Triangle(*vertices), s * ct.area, s)


def test_same_containers_as_reference():
    cts = sample_canonical_triangles(seed=42, count=2000)
    cts += [triangle_from_angles(1e-9, 0.3), triangle_from_angles(1e-6, 2e-4)]
    # the largest angle half and twice eps_angle below 90 degrees
    cts += [triangle_from_angles(math.radians(40), math.radians(50) + d) for d in (0.5e-9, 2e-9)]
    seen = set()
    for ct in cts:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearRightAngleWarning)
            built = all_special_containers(ct)
        for sc in built:
            # repr tells every float apart bit for bit, -0.0 from 0.0 too
            got = (sc.variant, sc.tri, sc.area, sc.ratio)
            assert repr(got) == repr(reference_container(ct, sc.variant)), (ct, sc.variant)
            seen.add(sc.variant)
    assert seen == set(ContainerVariant)


def test_containers_build_no_vertex_until_read(monkeypatch):
    # a container stores its ratio; X is built on each read of `tri`
    built = []

    def counting_point(x, y):
        built.append((x, y))
        return Point(x, y)

    monkeypatch.setattr(containers, "Point", counting_point)
    ct = triangle_from_sides(4.0, 5.0, 6.0)
    all_special_containers(ct)
    result = minimum_isosceles_container(ct)
    assert built == []
    result.minimizers[0].tri
    assert len(built) == 1


def test_new_vertex_is_finite_at_the_largest_accepted_extent():
    # X = P + s*(R - P) is built on read, so no error may wait there: near
    # the 1.3e154 extent limit, far from the origin and with the largest
    # angle just acute enough to keep the containers replacing A or B, the
    # ones that run out furthest, every vertex is finite
    ct0 = triangle_from_angles(math.radians(30.0), math.radians(60.0) + 2.0 * DEFAULT_TOLERANCES.eps_angle)
    for offset in (0.0, -1e158):
        A, B, C = (Point(offset + 1e154 * p.x, 1e154 * p.y) for p in ct0.tri.vertices)
        built = all_special_containers(canonicalize(Triangle(A, B, C)))
        assert len(built) == 9
        for sc in built:
            X = sc.new_vertex
            assert math.isfinite(X.x) and math.isfinite(X.y), (offset, sc.label)
