"""Peak memory of loading a large document and printing a large report,
traced with `tracemalloc`, so the figures repeat exactly.

The document is a complete explicit system of 4096 entries.  Loading it
may hold under a third of what `json.loads` needs to read and decode the
file, because the entries are read one at a time into the table and never
exist as a decoded tree.  Printing the 4096-entry operator of that system
may then reach little higher than building the operator does, because the
report's entries are laid out one at a time and go out in chunks: neither
the payload tree, nor the report as one string, nor its encoded copy ever
exists.

Checking the closure-system laws on a 4096-set table holds less than the
list of every value tuple of its space: a set is decoded from its index
only for a scanned row or a counterexample.  The ftransform law suite on
256 sets keeps per-set columns of components, their indices and their
down-sets, under 3.5 times the list of every value tuple; holding that list
as well takes it past four.
"""

import contextlib
import gc
import json
import random
import tracemalloc

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
    system = lf.system_from_explicit(
        lat, uni, [rng.choice(lat.elements()) for _ in range(4096)])
    check = _peak(closure.check_system, system)
    tuples = _peak(list, Space(lat, uni).values())
    assert check < tuples, (check, tuples)


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
