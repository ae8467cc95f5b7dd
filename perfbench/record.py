"""Record reference.json: the outcome of every benchmark command on every
document variant a seed can select, at the current commit.

    python3 perfbench/record.py

Run it only on a commit whose results are trusted; the benchmark then
counts every later disagreement as a failed command.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import gate
import run
import workloads

WORKERS = 2


def jobs():
    """(document bytes, args) for every slot variant and command."""
    for wl in workloads.WORKLOADS.values():
        for slot in wl.slots:
            variants = (range(workloads.VARIANTS) if slot in wl.generated
                        else [0])
            commands = [wl.setup] + [tuple(args) for s, *args
                                     in wl.commands + wl.probes if s == slot]
            for v in variants:
                doc = workloads.render(wl, slot, v)
                for args in commands:
                    yield doc, args


def outcome(tmpdir: Path, job) -> tuple[str, dict]:
    doc, args = job
    key = gate.command_key(doc, args)
    path = tmpdir / f"{key}.json"
    path.write_bytes(doc)
    proc = subprocess.run(
        [sys.executable, "-m", "latfuzz.cli", *args, "--doc", str(path)],
        capture_output=True, text=True, env=run.child_env(), cwd=run.ROOT,
        timeout=600)
    path.unlink()
    return key, gate.outcome(proc.returncode, proc.stdout)


def main() -> int:
    unique = {gate.command_key(doc, args): (doc, args)
              for doc, args in jobs()}
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp, \
            ThreadPoolExecutor(WORKERS) as pool:
        results = dict(pool.map(lambda job: outcome(Path(tmp), job),
                                unique.values()))
    gate.REFERENCE.write_text(json.dumps(results, indent=0, sort_keys=True))
    codes: dict = {}
    for r in results.values():
        codes[r["code"]] = codes.get(r["code"], 0) + 1
    print(f"recorded {len(results)} commands; exit codes {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
