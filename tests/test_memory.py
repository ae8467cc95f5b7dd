"""Peak memory of loading a large document and printing a large report,
traced with `tracemalloc`, so the figures repeat exactly.

The document is a complete explicit system of 4096 entries.  Loading it
may hold little more than `json` itself needs to read and decode the file:
the file's text is dropped once decoded, and the bulk read of the entries
builds no index of its own.  Printing the 4096-entry operator of that
system may then reach no higher than the command's own load did, because the report goes
out in chunks rather than as one string and its encoded copy.
"""

import contextlib
import gc
import json
import tracemalloc

from latfuzz import cli
from latfuzz.document import load_document


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
    assert load <= 1.1 * decode, (load, decode)


def test_printing_peaks_no_higher_than_loading(big_system_doc, monkeypatch):
    peaks = {}

    def load(*args):
        doc = load_document(*args)
        peaks["load"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return doc

    monkeypatch.setattr(cli, "load_document", load)
    after_load = _peak(_print_operator, big_system_doc)
    assert after_load <= peaks["load"], (after_load, peaks["load"])
