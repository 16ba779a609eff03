"""Self-test of the benchmark harness (not part of tier-1; run with
``python -m pytest benchmarks/appliance/tests -q`` from the repo root).

The smoke tests drive the real command end to end -- appliance
processes, SIGKILL/restart, golden figure text, traced round -- on
tiny files and one-second segments.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
APPLIANCE = os.path.dirname(HERE)
ROOT = os.path.dirname(os.path.dirname(APPLIANCE))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.appliance import (  # noqa: E402
    compare, machine, metrics, tracing, workloads)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        return json.load(src)


def run_command(spec, *args, cwd=ROOT):
    return subprocess.run([*spec["command"], *args], cwd=cwd, text=True,
                          capture_output=True, timeout=600)


# -- BENCHMARK.json -----------------------------------------------------
def test_spec_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/appliance"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # every run, with set-up, inside the driver's budget
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 12) <= 3420


# -- schedules ----------------------------------------------------------
@pytest.mark.parametrize("workload", ["small_ops", "bulk_get", "durable_put"])
def test_same_seed_same_schedule(workload):
    def first(seed, lane, count=400):
        ops = workloads.schedule(workload, seed, lane)
        return [next(ops) for _ in range(count)]

    for lane in (0, 1):
        assert first(7, lane) == first(7, lane)
        assert first(7, lane) != first(8, lane)
    assert first(7, 0) != first(7, 1)


def test_block_composition_is_exact():
    ops = workloads.schedule("small_ops", 3, 0)
    for _ in range(5):  # every block, not only the first
        kinds = Counter(next(ops)[0] for _ in range(32))
        assert kinds == {"stat": 20, "get1k": 4, "put1k": 2, "listdir": 2,
                         "pread": 2, "lot_cycle": 1, "connect_auth": 1}
    http = workloads.schedule("small_ops", 3, 1)
    assert Counter(next(http)[0] for _ in range(40)) == {
        "head": 30, "hget1k": 10}
    ops = workloads.schedule("bulk_get", 3, 1)
    assert Counter(next(ops)[0] for _ in range(90)) == {
        "get8m": 10, "get64k": 80}
    ops = workloads.schedule("durable_put", 3, 1)
    assert Counter(next(ops)[0] for _ in range(330)) == {
        "put8m": 10, "put64k": 320}


def test_http_lane_stays_off_overwritten_files():
    ops = workloads.schedule("small_ops", 5, 1)
    assert all(next(ops)[1] >= workloads.SMALL_PUT_TARGETS
               for _ in range(400))
    chirp = workloads.schedule("small_ops", 5, 0)
    puts = [op for op in (next(chirp) for _ in range(400))
            if op[0] == "put1k"]
    assert puts and all(op[1] < workloads.SMALL_PUT_TARGETS for op in puts)


# -- statistics ---------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    assert metrics.tail_percentile(39) is None
    assert metrics.tail_percentile(40) == 75.0
    assert metrics.tail_percentile(100) == 90.0
    assert metrics.tail_percentile(199) == 90.0
    assert metrics.tail_percentile(200) == 95.0
    assert metrics.tail_percentile(1000) == 99.0
    assert metrics.tail_percentile(10_000) == 99.9
    for count in (40, 57, 100, 250, 999, 1000, 5000, 20_000):
        p = metrics.tail_percentile(count)
        samples = list(range(count))
        beyond = sum(s > metrics.percentile(samples, p) for s in samples)
        assert beyond >= 9  # nearest-rank rounding may take one


def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3]
    assert metrics.percentile(samples, 50) == 3
    assert metrics.percentile(samples, 100) == 5
    assert metrics.percentile(samples, 1) == 1


def test_histogram_p50_interpolates_bucket_deltas():
    before = {'h_bucket{le="0.001"}': 10, 'h_bucket{le="0.01"}': 10,
              'h_bucket{le="+Inf"}': 10}
    after = {'h_bucket{le="0.001"}': 10, 'h_bucket{le="0.01"}': 30,
             'h_bucket{le="+Inf"}': 30}
    # all 20 new observations fell in (0.001, 0.01]; the median is
    # half way through that bucket
    assert metrics.histogram_p50(before, after, "h") == pytest.approx(0.0055)
    assert metrics.histogram_p50(after, after, "h") == 0.0


# -- machine speed ------------------------------------------------------
def test_speed_factor_rescales_only_the_busy_share():
    slow = 2 * machine.REFERENCE_NS       # the machine at half speed
    assert machine.speed_factor(0.0, slow) == 1.0      # all waiting
    assert machine.speed_factor(1.0, slow) == 0.5      # all computing
    assert machine.speed_factor(0.5, slow) == 0.75
    assert machine.speed_factor(1.7, slow) == 0.5      # two busy cores
    assert machine.speed_factor(0.8, machine.REFERENCE_NS) == 1.0
    assert machine.median_ns([]) == machine.REFERENCE_NS


def test_yardstick_samples_when_due_and_counts_its_own_time():
    yardstick = machine.Yardstick()
    yardstick.tick()
    assert yardstick.samples == []        # not due yet
    time.sleep(machine.PERIOD_NS / 1e9)
    yardstick.tick()
    yardstick.tick()                      # the period starts over
    assert len(yardstick.samples) == 1 and yardstick.samples[0] > 0
    assert yardstick.spent_s == yardstick.samples[0] / 1e9


# -- tracing ------------------------------------------------------------
def test_self_times_sum_to_request_wall():
    recorder = tracing.Recorder()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    read_line = recorder.wrap(lambda: time.sleep(0.02),
                              "protocols.read_line", cpu=True)
    allows = recorder.wrap(lambda: busy(0.002), "nest.acl.allows")

    def stat():
        busy(0.001)
        allows()

    stat = recorder.wrap(stat, "nest.storage.stat", cpu=True)

    def serve_one():
        read_line()      # idle: waiting for the next request
        busy(0.003)      # the handler's own work
        stat()

    serve_one = recorder.wrap(serve_one, tracing.REQUEST, cpu=True)
    recorder.enabled = True
    for _ in range(3):
        serve_one()
    agg = tracing.aggregate(*recorder.finish())

    assert agg.requests == 3
    assert agg.get("nest.acl.allows").calls == 3
    # the sleep is idle time between requests: not request wall time
    wall_ms = agg.request_wall / 1e6
    assert 3 * 6 <= wall_ms < 3 * 6 + 6
    self_sum = sum(t.request_self for t in agg.totals.values())
    assert self_sum == agg.request_wall  # no gap, no double counting
    # inclusive vs self: stat covers allows, its self time does not
    stat_total = agg.get("nest.storage.stat")
    assert stat_total.wall > stat_total.self_time
    assert stat_total.wall / 1e6 >= 3 * 3
    assert 3 * 1 <= stat_total.self_time / 1e6 < 3 * 2.5
    assert 3 * 3 <= agg.get(tracing.REQUEST).request_self / 1e6 < 3 * 5
    derived = metrics.trace_metrics(agg, ops=3, puts=0)
    assert derived["trace.self_coverage"] == pytest.approx(1.0)
    layers = sum(v for k, v in derived.items()
                 if k.endswith(".self_us_per_op"))
    assert layers == pytest.approx(derived["trace.request_wall_us_per_op"])


def test_dump_and_load_round_trip(tmp_path):
    recorder = tracing.Recorder()
    work = recorder.wrap(lambda n: n * 2, "nest.io.sendfile",
                         value=lambda args, result: result)
    recorder.enabled = True
    assert work(21) == 42
    info = recorder.dump(str(tmp_path / "spans.bin"))
    assert info == {"spans": 1, "dropped": 0}
    names, threads, dropped = tracing.load(str(tmp_path / "spans.bin"))
    agg = tracing.aggregate(names, threads, dropped)
    assert agg.get("nest.io.sendfile").value == 42
    assert work(1) == 2  # disabled after the dump: not recorded
    assert len(recorder.finish()[1][0]) == tracing.ROW


# -- compare ------------------------------------------------------------
def _results(tmp_path, name, ops_values):
    records = [{"workload": "small_ops", "trace": 0, "metrics": {
        m: {"value": (v if m == "ops_per_s_norm" else 1.0), "spread": 0.01}
        for m in ("setup_s", "peak_rss_mb", "ops_per_s_norm")}}
        for v in ops_values]
    path = tmp_path / name
    path.write_text(json.dumps(records))
    return str(path)


def test_compare_verdicts(tmp_path, spec):
    base = _results(tmp_path, "a.json", [100, 101, 99, 100, 102])

    def verdict(values):
        rows = compare.compare(base, _results(tmp_path, "b.json", values),
                               spec)
        return next(r["verdict"] for r in rows
                    if r["metric"] == "ops_per_s_norm")

    assert verdict([100, 99, 101, 100, 100]) == "same"
    assert verdict([85, 86, 84, 85, 85]) == "same"        # inside the bound
    assert verdict([70, 71, 69, 70, 70]) == "worse"       # higher is better
    assert verdict([140, 141, 139, 140, 140]) == "better"
    assert verdict([40, 160, 100, 60, 140]) == "unresolved"
    assert verdict([150, 400, 200, 180, 300]) == "better"  # every run wins
    assert compare.main([base, _results(tmp_path, "b.json",
                                        [70, 71, 69, 70, 70])]) == 1
    assert compare.main([base, base]) == 0


# -- the command itself -------------------------------------------------
def _final_results(stdout):
    """The JSON result lines and the names in the human table."""
    results, printed = [], []
    for line in stdout.splitlines():
        if line.startswith("{"):
            results.append(json.loads(line))
        elif " spread " in line and not line.startswith("--"):
            printed.append(line.split()[0])
    return results, printed


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_every_workload(spec, trace):
    done = run_command(spec, "--workload", "all", "--smoke", "--seed", "11",
                       "--seconds", "3", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    results, printed = _final_results(done.stdout)
    assert len(results) == len(spec["workloads"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    assert printed and set(printed) <= set(declared)
    assert all(NAME.match(name) for name in printed)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for name, entry in result["metrics"].items():
            assert entry["unit"] == declared[name]
            assert isinstance(entry["value"], (int, float))
        if not trace:  # end-to-end metrics are never zero
            assert all(e["value"] > 0 for e in result["metrics"].values())
    if trace:
        small_ops = results[0]["metrics"]
        assert small_ops["trace.self_coverage"]["value"] == pytest.approx(
            1.0, abs=0.05)
        assert small_ops["trace.spans"]["value"] > 0
        assert small_ops["durability.records_per_put"]["value"] == 0
        durable = results[2]["metrics"]
        assert durable["durability.fsyncs_per_put"]["value"] > 0
        assert durable["recovery_s"]["value"] > 0
        assert results[3]["metrics"]["sim.events_processed"]["value"] > 0
    # nothing left behind: no work directory, no child process
    work = os.path.join(APPLIANCE, ".work")
    assert not os.path.isdir(work) or not os.listdir(work)
    assert "appliance_proc.py" not in subprocess.run(
        ["ps", "-eo", "args"], capture_output=True, text=True).stdout


def test_refuses_to_run_without_the_repository(tmp_path, spec):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(APPLIANCE, tmp_path / "benchmarks" / "appliance",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run_command(spec, "--workload", "small_ops", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
