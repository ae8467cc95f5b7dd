"""Peak memory of loading a large document and printing a large report,
traced with `tracemalloc`, so the figures repeat exactly.

The document is a complete explicit system of 4096 entries, written
compactly in order.  Loading it may hold under a third of what `json.loads`
needs to read and decode the file, because its canonical text is matched a
span of entries at a time straight into the table, and the entries never
exist as a decoded tree.  Printing the 4096-entry operator of that system
may then reach little higher than building the operator does, because the
report's entries are laid out one at a time and go out in chunks: neither
the payload tree, nor the report as one string, nor its encoded copy ever
exists.  At 16384 entries the load holds less than the file's text, which
it reads in windows; and printing a structure table holds less than its
rows, which are built and laid out one at a time.

Checking the closure-system laws on a 4096-set table holds less than the
list of every value tuple of its space: a set is decoded from its index
only for a scanned row or a counterexample, and it holds one image column
at a time, each freed before the next is built and each read through the
membership table, so it holds lattice values, not set indices.  The
ftransform law suite on 256 sets keeps per-set columns of components, their
indices and their down-sets, under 3.5 times the list of every value tuple;
holding that list as well takes it past four.
"""

import contextlib
import gc
import json
import random
import tracemalloc
from itertools import product

import pytest

import latfuzz as lf
from latfuzz import cli, closure, ftransform
from latfuzz.document import load_document
from latfuzz.fuzzyset import Space


def _peak(fn, *args) -> int:
    """The most memory allocated at once while `fn(*args)` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _decode(path):
    return json.loads(path.read_text(encoding="utf-8"))


class _Discard:
    def write(self, text):
        return len(text)


def _print_operator(path):
    with contextlib.redirect_stdout(_Discard()):
        code = cli.run(["operator", "from-system", "--system", "S",
                        "--doc", str(path), "--no-timing"])
    assert code == 0


def test_load_peaks_near_json_decoding(big_system_doc):
    load = _peak(load_document, big_system_doc)
    decode = _peak(_decode, big_system_doc)
    assert load <= 0.3 * decode, (load, decode)


def test_printing_holds_no_second_copy(big_system_doc, monkeypatch):
    build = _peak(closure.operator_from_system,
                  load_document(big_system_doc).system("S"))

    def load(*args):
        doc = load_document(*args)
        tracemalloc.reset_peak()
        return doc

    monkeypatch.setattr(cli, "load_document", load)
    after_load = _peak(_print_operator, big_system_doc)
    assert after_load <= build + 300_000, (after_load, build)


def test_system_check_holds_no_value_tuples():
    lat = lf.boolean_algebra(2)
    uni = lf.Universe("X", tuple(f"x{i}" for i in range(6)))
    rng = random.Random(0)
    system = lf.ClosureSystem(lat, uni, tuple(
        rng.choice(lat.elements()) for _ in range(4096)), "explicit")
    check = _peak(closure.check_system, system)
    tuples = _peak(list, Space(lat, uni).values())
    assert check < tuples, (check, tuples)
    # and one image column at a time, read through the table as lattice
    # values: under three quarters of the identity's column of set indices,
    # which are as large as any column's
    column = _peak(Space(lat, uni).image_index, [lat.elements()] * len(uni))
    assert check < 0.75 * column, (check, column)


def test_transform_law_suite_holds_no_value_tuples():
    lat = lf.boolean_algebra(2)
    uni = lf.Universe("X", tuple(f"x{i}" for i in range(4)))
    top, a, bottom = lat.top, lat.parse("{a}"), lat.bottom
    # two blocks, each top on its half of the points, one graded point
    p = lf.validate_partition(uni, [
        ("A", lf.FuzzySet(lat, uni, (top, top, a, bottom))),
        ("B", lf.FuzzySet(lat, uni, (a, bottom, top, top))),
    ])
    suite = _peak(ftransform.transform_law_suite, p)
    tuples = _peak(list, Space(lat, uni).values())
    assert suite < 3.5 * tuples, (suite, tuples)


@pytest.fixture(scope="module")
def doc16k(tmp_path_factory):
    """A compact document shaped like `big_system_doc`, at 16384 entries
    (`boolean(2)` on 7 points), with an identity-indexed partition `I`:
    block `p` is top at `p` and `{a}` elsewhere."""
    lat = lf.boolean_algebra(2)
    rng = random.Random(16384)
    points = [f"u{k}" for k in range(7)]
    entries = [[list(values), rng.choice(lat.displays)]
               for values in product(lat.displays, repeat=7)]
    blocks = {p: {q: "{a,b}" if q == p else "{a}" for q in points}
              for p in points}
    doc = {"lattice": {"kind": "boolean", "atoms": 2},
           "universes": {"U": points},
           "partitions": {"I": {"universe": "U", "blocks": blocks}},
           "systems": {"S": {"universe": "U", "entries": entries}}}
    path = tmp_path_factory.mktemp("doc16k") / "doc16k.json"
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    return path


def test_load_holds_less_than_the_text(doc16k):
    """The file is read in windows, so loading it never holds its whole
    text, let alone its text and its bytes."""
    load = _peak(load_document, doc16k, 16384)
    chars = len(doc16k.read_text(encoding="utf-8"))
    assert load < chars, (load, chars)


def test_structure_report_holds_one_row_at_a_time(doc16k, monkeypatch):
    """`coalg` lays out each row of its table as `transform_table` yields
    it, and each row's values in runs: after the load it holds less than
    its rows as a tuple of tuples."""
    p = load_document(doc16k, 16384).partition("I")
    rows = _peak(lambda: tuple(lf.transform_table(p, 16384)))

    def load(*args):
        doc = load_document(*args)
        tracemalloc.reset_peak()
        return doc

    def print_table():
        with contextlib.redirect_stdout(_Discard()):
            code = cli.run(["coalg", "--partition", "I", "--budget", "16384",
                            "--doc", str(doc16k), "--no-timing"])
        assert code == 0

    monkeypatch.setattr(cli, "load_document", load)
    after_load = _peak(print_table)
    assert after_load < rows, (after_load, rows)
