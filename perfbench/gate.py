"""Correctness gate: compare each command's outcome with the seed commit's.

An outcome is the exit code, the verdict and a digest of the result fields
(tables, witness values, pass/fail flags).  The digest leaves out:

- `timing_ms` and any top-level key the reference run did not emit, so a
  later change may add report keys such as a work count;
- counterexample and warning text and witness sites (`counterexample`,
  `counterexamples`, `attained_at`, `violation`, `warnings`, `error`), so a
  later change may report better counterexamples;
- fields that are constant at the seed commit whatever the input
  (`axioms`, `triangle_commutes`, `uniqueness_forced` and the three
  `roundtrip coa-dia` flags), so a later change may compute or drop them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

DROPPED = frozenset({
    "timing_ms", "counterexample", "counterexamples", "attained_at",
    "violation", "warnings", "error",
    "axioms", "triangle_commutes", "uniqueness_forced",
    "coa_dia_coa_exact", "dia_coa_dia_exact", "triangle_exact",
})


def command_key(doc: bytes, args) -> str:
    """Identify a command by its document's content and its arguments."""
    h = hashlib.sha256(doc)
    h.update("\0".join(args).encode())
    return h.hexdigest()[:24]


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in DROPPED}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def outcome(code: int, stdout: str, keys=None) -> dict:
    """Exit code, verdict, digest and top-level keys of one run.

    `keys` restricts the digest to the reference run's top-level keys."""
    report = json.loads(stdout) if stdout.strip() else {}
    if keys is None:
        keys = [k for k in report if k not in DROPPED]
    kept = {k: _strip(report[k]) for k in keys if k in report}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return {
        "code": code,
        "verdict": report.get("verdict"),
        "digest": hashlib.sha256(text.encode()).hexdigest()[:24],
        "keys": list(keys),
    }


class Reference:
    def __init__(self, path: Path = REFERENCE):
        self.entries = json.loads(path.read_text()) if path.exists() else {}

    def matches(self, key: str, code: int, stdout: str) -> bool:
        """True when the run agrees with the reference; a command with no
        reference never agrees."""
        ref = self.entries.get(key)
        if ref is None:
            return False
        try:
            got = outcome(code, stdout, ref["keys"])
        except json.JSONDecodeError:
            return False
        return all(got[k] == ref[k] for k in ("code", "verdict", "digest"))
