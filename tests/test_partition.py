import pytest

import latfuzz as lf
from conftest import FIXTURES, fs
from latfuzz.document import load_document
from reference import block, core, enumerate_sets, is_reflexive


def test_w3_validates_with_index(w3):
    assert w3.names == ("A1", "A2")
    assert [w3.names[b] for b in w3.xi] == ["A1", "A2", "A2"]


def test_declared_xi_is_verified(l3, uni_x):
    blocks = [
        ("A1", fs(l3, uni_x, "1", "1/2", "0")),
        ("A2", fs(l3, uni_x, "1/2", "1", "1")),
    ]
    lf.validate_partition(uni_x, blocks,
                          {"x1": "A1", "x2": "A2", "x3": "A2"})
    with pytest.raises(lf.PartitionError, match="declared index map"):
        lf.validate_partition(uni_x, blocks, {"x2": "A1"})


def test_core_overlap_names_element(l3, uni_x):
    with pytest.raises(lf.PartitionError, match="core overlap at x2"):
        lf.validate_partition(uni_x, [
            ("A1", fs(l3, uni_x, "1", "1", "0")),
            ("A2", fs(l3, uni_x, "1/2", "1", "1")),
        ])


def test_non_normal_block_named(l3, uni_x):
    with pytest.raises(lf.PartitionError, match="block A1 not normal"):
        lf.validate_partition(uni_x, [
            ("A1", fs(l3, uni_x, "1/2", "1/2", "1/2")),
        ])


def test_uncovered_element_named(l3, uni_x):
    with pytest.raises(lf.PartitionError, match="x2 covered by no core"):
        lf.validate_partition(uni_x, [
            ("A1", fs(l3, uni_x, "1", "0", "1")),
        ])


@pytest.fixture(scope="module")
def example31():
    return load_document(FIXTURES / "example31.json")


def test_parity_product_cores(example31):
    doc = example31
    prod = lf.product_partition(doc.partition("PN"), doc.partition("PZ"))
    assert len(prod.names) == 4
    even_n = {str(n) for n in range(0, 8, 2)}
    even_z = {str(m) for m in range(-4, 4) if m % 2 == 0}
    assert set(core(block(prod, "(A1,B1)"))) == \
        {f"({n},{m})" for n in even_n for m in even_z}


def test_product_cores_multiply(example31, w3, q):
    doc = example31
    for left, right in [
        (doc.partition("PN2"), doc.partition("PZ2")),
        (w3, q),
    ]:
        prod = lf.product_partition(left, right)
        for jn, jb in zip(left.names, left.blocks):
            for kn, kb in zip(right.names, right.blocks):
                expected = {
                    f"({a},{b})"
                    for a in core(jb) for b in core(kb)
                }
                assert set(core(block(prod, f"({jn},{kn})"))) == expected


def test_w3_times_q_core(w3, q):
    prod = lf.product_partition(w3, q)
    assert core(block(prod, "(A1,B1)")) == ("(x1,y1)",)


def test_product_with_singleton_is_isomorphic(w3, sp):
    prod = lf.product_partition(w3, sp)
    for name, own in zip(w3.names, w3.blocks):
        assert block(prod, f"({name},s1)").values == own.values


def test_product_lattice_mismatch(w3):
    other = lf.godel_chain(3)
    uni = lf.Universe("Z", ("z1",))
    p = lf.validate_partition(uni, [("C", lf.constant(other, uni, other.top))])
    with pytest.raises(lf.MismatchError):
        lf.product_partition(w3, p)


def test_relation_from_partition_rows(w3):
    rel = lf.relation_from_partition(w3)
    assert [[rel.lattice.displays[v] for v in row] for row in rel.rows] == [
        ["1", "1/2", "0"],
        ["1/2", "1", "1"],
        ["1/2", "1", "1"],
    ]


def test_relation_reflexive_on_fixtures(w3, p2, q, x2p, sp):
    for p in (w3, p2, q, x2p, sp):
        assert is_reflexive(lf.relation_from_partition(p))


def test_upper_approx_equals_field(w3, l3, uni_x):
    rel = lf.relation_from_partition(w3)
    for f in enumerate_sets(l3, uni_x):
        assert lf.upper_approx(rel, f) == lf.ft_field(w3, f)


def test_identity_indexing(w3, x2p):
    assert lf.is_identity_indexed(x2p)
    assert not lf.is_identity_indexed(w3)
    prod = lf.product_partition(x2p, x2p)
    # singleton cores and the paired naming line up, so the product is
    # identity-indexed too
    assert lf.is_identity_indexed(prod)


def test_document_roundtrip_matches_construction(w3):
    doc = load_document(FIXTURES / "w3.json")
    loaded = doc.partition("W3")
    assert loaded.names == w3.names
    assert loaded.xi == w3.xi
    assert [b.values for b in loaded.blocks] == [b.values for b in w3.blocks]
