import functools
import hashlib
import json
from pathlib import Path

import pytest

import latfuzz as lf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CLI_DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"


def cli_digest_key(argv) -> str:
    """A CLI argv with fixture paths relative to the repo root, as keyed in
    `cli_digests.json`."""
    root = f"{FIXTURES.parent}/"
    return " ".join(arg.replace(root, "") for arg in argv)


def cli_digest(out: bytes, code: int) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(out).hexdigest()}


@functools.cache
def _recorded_digests() -> dict:
    return json.loads(CLI_DIGESTS.read_text(encoding="utf-8"))


def assert_cli_digest(argv, out: bytes, code: int) -> None:
    """The `--no-timing` stdout and exit code of `argv` are byte-identical
    to the recorded ones (re-record with tests/record_cli_digests.py)."""
    key = cli_digest_key(argv)
    assert cli_digest(out, code) == _recorded_digests().get(key), key


def fs(lat, uni, *displays):
    return lf.FuzzySet(lat, uni, tuple(lat.parse(v) for v in displays))


@pytest.fixture(scope="session")
def l3():
    return lf.godel_chain(3)


@pytest.fixture(scope="session")
def uni_x():
    return lf.Universe("X", ("x1", "x2", "x3"))


@pytest.fixture(scope="session")
def uni_y():
    return lf.Universe("Y", ("y1", "y2"))


@pytest.fixture(scope="session")
def uni_x2():
    return lf.Universe("X2", ("x1", "x2"))


@pytest.fixture(scope="session")
def uni_s():
    return lf.Universe("S", ("s1",))


@pytest.fixture(scope="session")
def w3(l3, uni_x):
    return lf.validate_partition(uni_x, [
        ("A1", fs(l3, uni_x, "1", "1/2", "0")),
        ("A2", fs(l3, uni_x, "1/2", "1", "1")),
    ])


@pytest.fixture(scope="session")
def p2(l3, uni_x):
    return lf.validate_partition(uni_x, [
        ("A1", fs(l3, uni_x, "1", "1", "0")),
        ("A2", fs(l3, uni_x, "1/2", "1/2", "1")),
    ])


@pytest.fixture(scope="session")
def q(l3, uni_y):
    return lf.validate_partition(uni_y, [
        ("B1", fs(l3, uni_y, "1", "1/2")),
        ("B2", fs(l3, uni_y, "1/2", "1")),
    ])


@pytest.fixture(scope="session")
def q_bad(l3, uni_y):
    return lf.validate_partition(uni_y, [
        ("B1", fs(l3, uni_y, "1", "0")),
        ("B2", fs(l3, uni_y, "1/2", "1")),
    ])


@pytest.fixture(scope="session")
def x2p(l3, uni_x2):
    return lf.validate_partition(uni_x2, [
        ("x1", fs(l3, uni_x2, "1", "1/2")),
        ("x2", fs(l3, uni_x2, "1/2", "1")),
    ])


@pytest.fixture(scope="session")
def sp(l3, uni_s):
    return lf.validate_partition(uni_s, [("s1", fs(l3, uni_s, "1"))])


@pytest.fixture(scope="session")
def phi_m(uni_x, uni_y):
    return lf.UniverseMap.from_labels(
        uni_x, uni_y, {"x1": "y1", "x2": "y2", "x3": "y2"}
    )


@pytest.fixture(scope="session")
def m_half(p2, q, phi_m):
    cand, warnings = lf.make_candidate(p2, q, phi_m, {"A1": "B1", "A2": "B2"})
    assert not warnings
    return cand


@pytest.fixture(scope="session")
def m_half_broken(p2, q_bad, phi_m):
    cand, _ = lf.make_candidate(p2, q_bad, phi_m, {"A1": "B1", "A2": "B2"})
    return cand


@pytest.fixture(scope="session")
def swap(uni_x2):
    return lf.UniverseMap.from_labels(uni_x2, uni_x2, {"x1": "x2", "x2": "x1"})


@pytest.fixture(scope="session")
def corpus():
    from corpus import build_corpus

    return build_corpus()


@pytest.fixture(scope="session")
def corpus_triples():
    from corpus import build_composable_triples

    return build_composable_triples()
