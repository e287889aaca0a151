"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest -q kbench/selftest.py

The name keeps them out of the program's test suite; they exercise the
benchmark, not ``repro``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from kbench import common, layers  # noqa: E402
from kbench.spans import Patches, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# tail percentile support rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, pct", [
    (19, None), (100, 90.0), (199, 90.0), (200, 95.0), (400, 97.5), (1000, 99.0),
    (9999, 99.5), (10000, 99.9), (20000, 99.95), (100000, 99.99), (10**7, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, pct):
    assert common.tail_percentile(count) == pct


def test_tail_falls_back_to_median_and_reports_percentile():
    values = [float(v) for v in range(1, 16)]
    assert common.tail(values) == (8.0, 50.0, 15)
    values = [float(v) for v in range(1, 201)]
    assert common.tail(values) == (190.0, 95.0, 200)


# ----------------------------------------------------------------------
# self time with nested and overlapping spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_only_on_the_same_thread():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    opened = threading.Event()
    resume = threading.Event()
    done = threading.Event()

    def worker():
        # Opens while the main thread's span is open and closes after it:
        # the two overlap in time but must not nest.
        span = tracer.open("serve.solve")
        opened.set()
        resume.wait(5)
        child = tracer.open("graph.order")
        clock.now = 9.0
        tracer.close(child)
        clock.now = 10.0
        tracer.close(span)
        done.set()

    clock.now = 1.0
    outer = tracer.open("serve.decode")
    thread = threading.Thread(target=worker)
    thread.start()
    assert opened.wait(5)
    clock.now = 2.0
    inner = tracer.open("serve.encode")
    clock.now = 4.0
    tracer.close(inner)
    clock.now = 5.0
    tracer.close(outer)
    clock.now = 7.0
    resume.set()
    assert done.wait(5)
    thread.join(5)
    assert not thread.is_alive()
    totals = tracer.totals()
    assert totals["serve.decode"] == (2.0, 1)  # 1..5 minus its child 2..4
    assert totals["serve.encode"] == (2.0, 1)
    assert totals["serve.solve"] == (7.0, 1)  # 1..10 minus its own child 7..9 only
    assert totals["graph.order"] == (2.0, 1)


def test_wrapped_generator_is_drained_inside_its_span_and_inactive_calls_pass_through():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def gen(n):
        for i in range(n):
            clock.now += 1.0
            yield i

    wrapped = tracer.wrap(gen, "dynamic.local_enum")
    assert list(wrapped(3)) == [0, 1, 2]
    assert tracer.totals() == {"dynamic.local_enum": (3.0, 1)}
    tracer.active = False
    assert list(wrapped(2)) == [0, 1]
    assert tracer.totals() == {"dynamic.local_enum": (3.0, 1)}


def test_patches_restore_functions_and_classmethods():
    from repro.graph.graph import Graph
    from repro.serve import protocol

    original_encode = protocol.__dict__["encode"]
    original_from_edges = Graph.__dict__["from_edges"]
    tracer = Tracer()
    patches = Patches()
    patches.wrap(tracer, protocol, "encode", "serve.encode")
    patches.wrap(tracer, Graph, "from_edges", "graph.build")
    assert protocol.encode({"a": 1}) == '{"a":1}'
    assert Graph.from_edges([(0, 1)], n=2).m == 1
    patches.restore()
    assert protocol.__dict__["encode"] is original_encode
    assert Graph.__dict__["from_edges"] is original_from_edges
    assert set(tracer.totals()) == {"serve.encode", "graph.build"}


# ----------------------------------------------------------------------
# reference-speed scaling
# ----------------------------------------------------------------------
def test_reference_scaling_cancels_an_injected_host_slowdown():
    ref = common.RefClock()
    ops = []
    # Twenty operations of 0.1 s at nominal speed; the host then runs
    # 1.6x slower for the next twenty. Kernel and operation slow down together.
    for step in range(40):
        factor = 1.0 if step < 20 else 1.6
        index = ref.record(common.REF_NOMINAL_S * factor)
        ops.append((index, 0.1 * factor))
    ref.record(common.REF_NOMINAL_S * 1.6)
    scaled = [ref.scale(i, raw) for i, raw in ops]
    raw = [r for _, r in ops]
    assert common.median(raw[20:]) == pytest.approx(0.16)
    # Away from the switch the scaled time is exact; at the switch the
    # two-sided window limits the error to the slowdown's size.
    window = common.RefClock.WINDOW
    for k, value in enumerate(scaled):
        if abs(k - 19.5) > window:
            assert value == pytest.approx(0.1)
        else:  # the window straddles the switch: bounded by the slowdown
            assert 0.1 / 1.6 <= value <= 0.16 + 1e-12
    assert common.median(raw) == pytest.approx(0.13)
    assert common.median(scaled) == pytest.approx(0.1)


def test_reference_window_ignores_one_disturbed_kernel_run():
    ref = common.RefClock()
    for k in range(12):
        ref.record(common.REF_NOMINAL_S * (5.0 if k == 4 else 1.0))
    assert ref.scale(4, 0.1) == pytest.approx(0.1)


def test_reference_kernel_is_fixed_work():
    assert common.ref_kernel() == common.REF_CHECKSUM


def test_program_peak_rss_leaves_out_the_reference_kernel():
    peak, details = common.program_peak_rss_mb()
    assert details["ref_kernel_mb"] > 10.0
    assert peak == pytest.approx(details["vmhwm_mb"] - details["ref_kernel_mb"])


# ----------------------------------------------------------------------
# cross-run repeatability guard
# ----------------------------------------------------------------------
def test_repeat_guard_compares_runs_of_the_same_program_only(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    program = tmp_path / "src" / "repro" / "core.py"
    program.write_text("POPS = 1\n")

    def guard() -> common.RepeatGuard:
        return common.RepeatGuard(tmp_path, {"seed": 1, "program": common.code_digest(tmp_path, "src/repro")})

    assert guard().check({"core.heap_pops": 10}) == []
    assert guard().check({"core.heap_pops": 10}) == []
    assert guard().check({"core.heap_pops": 11}) == ["core.heap_pops: 10 stored, 11 now"]
    # A changed program may legitimately change a count: new key, no comparison.
    program.write_text("POPS = 2\n")
    assert guard().check({"core.heap_pops": 11}) == []
    assert guard().check({"core.heap_pops": 12}) == ["core.heap_pops: 11 stored, 12 now"]


# ----------------------------------------------------------------------
# metric names against BENCHMARK.json and the contract's limits
# ----------------------------------------------------------------------
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_catalogue():
    spec = benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {name: m["unit"] for name, m in e2e.items()} == layers.E2E
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"]
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == layers.PER_LAYER
    from kbench.run import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_benchmark_json_respects_name_and_size_limits():
    spec = benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    for path in spec["paths"]:
        assert re.match(r"^[A-Za-z0-9_./-]{1,200}$", path) and not path.startswith("/")
        assert ".." not in path.split("/")


def test_layer_metrics_reject_undeclared_names():
    with pytest.raises(KeyError):
        layers.layer_metrics({"graph.no_such_layer_s": 1.0})
    with pytest.raises(KeyError):
        layers.e2e_metrics({"setup_s": 1.0})
    full = layers.layer_metrics({"graph.build_s": 0.5})
    assert full["graph.build_s"] == {"value": 0.5, "unit": "s"}
    assert full["serve.decode_s"]["value"] == 0.0


# ----------------------------------------------------------------------
# short-budget smoke of every workload, both modes
# ----------------------------------------------------------------------
def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "kbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["solve-cold", "dynamic-stream", "serve-mixed"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_named_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = benchmark_json()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert "trace.overhead_pct" in result["metrics"]


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "kbench").mkdir()
    for path in (ROOT / "kbench").glob("*.py"):
        (tmp_path / "kbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = run_bench("solve-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
