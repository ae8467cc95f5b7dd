import pytest

import latfuzz as lf
from conftest import fs
from reference import (
    backward_image,
    constant,
    core,
    enumerate_sets,
    forward_image,
    identity_map,
    le,
    pointwise,
    set_index,
)


def all_sets(lat, uni):
    return list(enumerate_sets(lat, uni))


def test_pointwise_residuum_example(l3, uni_x):
    f = fs(l3, uni_x, "1", "1/2", "0")
    g = fs(l3, uni_x, "0", "1/2", "1")
    assert pointwise("residuum", f, g).displays() == ("0", "1", "1")


def test_pointwise_unit_and_idempotence(l3, uni_x):
    top = constant(l3, uni_x, l3.top)
    for f in all_sets(l3, uni_x):
        assert pointwise("tensor", f, top) == f
        assert pointwise("meet", f, f) == f


def test_core_and_normality(l3, uni_x):
    f = fs(l3, uni_x, "1", "1/2", "0")
    assert core(f) == ("x1",)
    assert f.is_normal()
    g = fs(l3, uni_x, "1/2", "1/2", "1/2")
    assert core(g) == ()
    assert not g.is_normal()
    assert core(constant(l3, uni_x, l3.top)) == ("x1", "x2", "x3")


def test_forward_image_fiber_join(l3, uni_x, uni_y, phi_m):
    f = fs(l3, uni_x, "0", "1/2", "1")
    assert forward_image(phi_m, f).displays() == ("0", "1")
    bottom = constant(l3, uni_x, l3.bottom)
    assert forward_image(phi_m, bottom).displays() == ("0", "0")


def test_forward_image_injective_pads_with_bottom(l3, uni_x, uni_x2):
    inj = lf.UniverseMap.from_labels(uni_x2, uni_x, {"x1": "x1", "x2": "x3"})
    f = fs(l3, uni_x2, "1/2", "1")
    out = forward_image(inj, f)
    assert out.displays() == ("1/2", "0", "1")


def test_backward_image_composition(l3, uni_x, uni_y, phi_m):
    g = fs(l3, uni_y, "1/2", "1")
    assert backward_image(phi_m, g).displays() == ("1/2", "1", "1")
    const = constant(l3, uni_y, l3.parse("1/2"))
    assert backward_image(phi_m, const).displays() == ("1/2", "1/2", "1/2")


def test_forward_after_backward_is_identity_when_onto(l3, uni_y, phi_m):
    for g in all_sets(l3, uni_y):
        assert forward_image(phi_m, backward_image(phi_m, g)) == g


def test_backward_after_forward_is_identity_when_injective(l3, uni_x, uni_x2):
    inj = lf.UniverseMap.from_labels(uni_x2, uni_x, {"x1": "x1", "x2": "x3"})
    for f in all_sets(l3, uni_x2):
        assert backward_image(inj, forward_image(inj, f)) == f


def test_images_monotone(l3, uni_x, uni_y, phi_m):
    sets_x = all_sets(l3, uni_x)
    for f in sets_x:
        for g in sets_x:
            if le(f, g):
                assert le(forward_image(phi_m, f), forward_image(phi_m, g))
    sets_y = all_sets(l3, uni_y)
    for f in sets_y:
        for g in sets_y:
            if le(f, g):
                assert le(backward_image(phi_m, f), backward_image(phi_m, g))


def test_backward_commutes_with_pointwise(l3, uni_y, phi_m):
    sets_y = all_sets(l3, uni_y)
    for kind in ("tensor", "residuum", "meet", "join"):
        for f in sets_y:
            for g in sets_y:
                direct = backward_image(phi_m, pointwise(kind, f, g))
                pulled = pointwise(
                    kind, backward_image(phi_m, f), backward_image(phi_m, g)
                )
                assert direct == pulled


def test_enumeration_order_and_counts(l3, uni_x):
    sets = all_sets(l3, uni_x)
    assert len(sets) == 27
    assert sets[0] == constant(l3, uni_x, l3.bottom)
    assert sets[-1] == constant(l3, uni_x, l3.top)
    assert len(set(sets)) == 27
    two = lf.godel_chain(2)
    single = lf.Universe("U1", ("u",))
    assert len(list(enumerate_sets(two, single))) == 2


def test_enumeration_budget_carries_cardinality():
    lat = lf.godel_chain(4)
    uni = lf.Universe("U10", tuple(f"u{i}" for i in range(10)))
    with pytest.raises(lf.BudgetExceeded) as err:
        list(enumerate_sets(lat, uni))
    assert err.value.cardinality == 1048576
    assert "1048576" in str(err.value)


def test_empty_universe_has_one_set(l3):
    empty = lf.Universe("E", ())
    sets = list(enumerate_sets(l3, empty))
    assert len(sets) == 1
    assert sets[0].values == ()


def test_set_index_roundtrip(l3, uni_x):
    for i, f in enumerate(enumerate_sets(l3, uni_x)):
        assert set_index(f) == i
        assert lf.set_at(l3, uni_x, i) == f


def test_universe_map_validation(l3, uni_x, uni_y):
    with pytest.raises(lf.MismatchError):
        lf.UniverseMap.from_labels(uni_x, uni_y, {"x1": "y1"})
    with pytest.raises(lf.ElementError):
        lf.UniverseMap.from_labels(
            uni_x, uni_y, {"x1": "y1", "x2": "y9", "x3": "y2"}
        )
    phi = lf.UniverseMap.from_labels(
        uni_x, uni_y, {"x1": "y1", "x2": "y2", "x3": "y2"}
    )
    assert not phi.is_injective()
    assert phi.is_surjective()
    ident = identity_map(uni_x)
    assert ident.is_injective() and ident.is_surjective()
    with pytest.raises(lf.ElementError, match="names unknown element 'x9'"):
        lf.UniverseMap.from_labels(
            uni_x, uni_y, {"x1": "y1", "x2": "y2", "x3": "y2", "x9": "y1"}
        )


def test_from_labels_totality(l3, uni_x):
    with pytest.raises(lf.MismatchError):
        lf.from_labels(l3, uni_x, {"x1": "1"})
    with pytest.raises(lf.ElementError):
        lf.from_labels(l3, uni_x, {"x1": "1", "x2": "0", "x3": "0", "x9": "1"})
