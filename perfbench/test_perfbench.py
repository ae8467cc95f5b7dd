"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from latfuzz import cli  # noqa: E402
from latfuzz.document import load_document  # noqa: E402

ERROR_FIXTURES = {"bad_order", "corrupt_tensor", "over_budget"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_documents(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    first = workloads.materialise(wl, 7, tmp_path / "a")
    second = workloads.materialise(wl, 7, tmp_path / "b")
    for slot in wl.slots:
        assert first[slot].read_bytes() == second[slot].read_bytes()


def test_seeds_select_different_variants():
    wl = workloads.WORKLOADS["pairwise"]
    chosen = {tuple(workloads.variant_of(wl, seed).values())
              for seed in range(10)}
    assert len(chosen) > 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_generated_document_loads(name):
    wl = workloads.WORKLOADS[name]
    for slot in wl.slots:
        if slot in ERROR_FIXTURES:
            continue
        variants = (range(workloads.VARIANTS) if slot in wl.generated
                    else [0])
        for v in variants:
            doc = json.loads(workloads.render(wl, slot, v))
            load_document(doc, budget=int(workloads.SWEEP_BUDGET))


def test_every_command_names_a_slot():
    for wl in workloads.WORKLOADS.values():
        assert {slot for slot, *_ in wl.commands + wl.probes} <= set(wl.slots)


def _report(**extra):
    report = {"command": "closure from-partition", "budget": 4096,
              "verdict": "ok", "system": {"entries": [[["0"], "1"]]}}
    report.update(extra)
    return json.dumps(report)


def test_digest_ignores_timing_and_new_keys():
    ref = gate.outcome(0, _report(timing_ms=1.5))
    assert "timing_ms" not in ref["keys"]
    later = _report(timing_ms=99.0, work={"sets": 3})
    assert gate.outcome(0, later, ref["keys"]) == ref


def test_digest_ignores_counterexample_text():
    ref = gate.outcome(1, _report(counterexample=["A1", "x2"]))
    again = gate.outcome(1, _report(counterexample=["A2", "x1"]), ref["keys"])
    assert again["digest"] == ref["digest"]


def test_digest_sees_results_and_missing_keys():
    ref = gate.outcome(0, _report())
    changed = _report(system={"entries": [[["0"], "0"]]})
    assert gate.outcome(0, changed, ref["keys"])["digest"] != ref["digest"]
    dropped = json.dumps({k: v for k, v in json.loads(_report()).items()
                          if k != "system"})
    assert gate.outcome(0, dropped, ref["keys"])["digest"] != ref["digest"]


def test_reference_rejects_unknown_commands():
    reference = gate.Reference(HERE / "no-such-reference.json")
    assert not reference.matches("0" * 24, 0, _report())


def test_peak_rss_is_the_childs_own(tmp_path):
    wl = workloads.WORKLOADS["corpus"]
    paths = workloads.materialise(wl, 0, tmp_path)
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])  # make the parent's pages resident
    measured, stdout = run.run_cli(["validate", "--doc", str(paths["w3"])],
                                   run.child_env())
    del ballast
    assert measured.code == 0 and json.loads(stdout)["verdict"] == "ok"
    assert 5 < measured.peak_rss_mb < 100


def test_tracing_does_not_change_reports(tmp_path):
    wl = workloads.WORKLOADS["corpus"]
    paths = workloads.materialise(wl, 0, tmp_path)
    trace = tracer.Tracer()
    for slot, *args in wl.commands:
        if slot != "w3":
            continue
        argv = [*args, "--doc", str(paths[slot]), "--no-timing"]
        _, plain_code, plain = run.call_in_process(cli, argv)
        with trace:
            _, traced_code, traced = run.call_in_process(cli, argv)
        assert (traced_code, traced) == (plain_code, plain), args
    assert trace.spans and trace.calls["fuzzyset.set_at"] > 0
    assert cli.run is not None and not hasattr(cli.run, "__wrapped__")


def test_self_times_cover_the_traced_time(tmp_path):
    wl = workloads.WORKLOADS["corpus"]
    paths = workloads.materialise(wl, 0, tmp_path)
    trace = tracer.Tracer()
    with trace:
        seconds, code, _ = run.call_in_process(
            cli, ["laws", "ftransform", "--partition", "W3", "--doc",
                  str(paths["w3"])])
    assert code == 0
    total = sum(trace.module_self_s().values())
    assert 0 < total <= seconds
    assert total > 0.5 * seconds


def test_quantile_is_a_weighted_order_statistic():
    assert run.quantile([2.0] * 7, 0.9) == pytest.approx(2.0)
    assert run.quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    xs = [0.1, 0.4, 0.5, 0.9, 3.0]
    assert min(xs) < run.quantile(xs, 0.5) < run.quantile(xs, 0.9) < max(xs)


def test_quantile_matches_the_harrell_davis_reference():
    mstats = pytest.importorskip("scipy.stats.mstats")
    xs = [0.21, 0.25, 0.19, 0.73, 0.4, 0.44, 6.5, 0.31, 0.28, 0.35, 0.9]
    for p in (0.5, 0.9):
        want = float(mstats.hdquantiles(xs, prob=[p])[0])
        assert run.quantile(xs, p) == pytest.approx(want, rel=1e-9)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "session_s", "cmd_s.p50", "cmd_s.p90", "peak_rss_mb"}
    assert [m["name"] for m in spec["per_layer"]] == [
        *(f"{m}.self_s" for m in tracer.MODULES),
        *(f"{h}.self_s" for h in tracer.HOT),
        *(f"{c}.calls" for c in run.COUNTED),
        "cli.report_bytes", "cli.import_s", "trace.overhead_s"]
