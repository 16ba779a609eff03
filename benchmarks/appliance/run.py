"""The appliance benchmark: one command, one workload, every metric.

    python3 benchmarks/appliance/run.py --workload small_ops --seed 1
    PYTHONPATH=src python -m benchmarks.appliance.run --workload all --trace

One run of a live workload is three independent rounds, each
*set-up* (spawn the appliance process, seed its data through the
client library, a fixed number of warm-up operations), one timed
*segment* of ``--seconds / 3`` (closed loop, two lanes), the
end-of-segment checks, and tear-down.  Every metric is the median of
its per-round values; ``(max - min) / median`` is printed next to it.
The end-to-end rate and set-up time are restated at a reference machine
speed from a yardstick sampled during the round (:mod:`machine`); the
stopwatch readings are printed beside them.
With ``--trace 1`` the last round runs against an appliance launched
with span wrappers installed: the per-layer metrics come from it, the
other two rounds give the untraced figures it is compared to.

The last line of stdout is one JSON object -- ``correct``,
``attempted``, ``failed``, ``metrics`` -- holding every ``end_to_end``
metric of ``BENCHMARK.json`` (``--trace 0``) or every ``per_layer``
metric (``--trace 1``).  Exit status is non-zero when any output was
wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: {SRC}/repro not found: the benchmark measures the "
             "repository it sits in and cannot run without it")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.appliance import machine, metrics, tracing  # noqa: E402
from benchmarks.appliance.appliance_proc import certificate_authority  # noqa: E402
from benchmarks.appliance.loadgen import run_lanes  # noqa: E402
from benchmarks.appliance.procs import Appliance, FiguresWorker  # noqa: E402
from benchmarks.appliance.workloads import (  # noqa: E402
    FULL, SMOKE, USER, WORKLOADS)

ROUNDS = 3
FIGURES = ("fig3", "fig4", "fig5", "fig6")
#: the one figure ``--smoke`` regenerates (0.4 s)
SMOKE_FIGURE = "fig6"
GOLDEN = os.path.join(HERE, "golden_figures.json")
WORKLOAD_NAMES = (*WORKLOADS, "figures_des")


class Outcome:
    """Everything one workload run produced."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        #: metric name -> per-round values (untraced rounds unless the
        #: metric only exists traced)
        self.samples: dict[str, list[float]] = {}
        #: op kind -> pooled untraced latencies (ns), for the tail table
        self.latencies: dict[str, list[int]] = {}
        self.notes: list[str] = []

    def add(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.samples.setdefault(name, []).append(float(value))

    def summary(self) -> dict[str, tuple[float, float]]:
        return {name: metrics.median_and_spread(values)
                for name, values in self.samples.items()}


# ----------------------------------------------------------------------
# live workloads
# ----------------------------------------------------------------------
def run_round(cls, seed: int, sizes, seconds: float, traced: bool,
              workdir: str, outcome: Outcome) -> float:
    """Set-up, one timed segment, checks, tear-down.  Adds this round's
    metric values to ``outcome``; returns its operations per second at
    reference machine speed."""
    os.makedirs(workdir)
    credential = certificate_authority().issue(USER)
    workload = cls(seed, sizes)
    config = workload.launch_config(workdir)
    client_recorder = None
    if traced:
        client_recorder = tracing.Recorder()
        tracing.install_client(client_recorder)

    began = time.perf_counter()
    harness_cpu = time.process_time()
    appliance = Appliance(config, trace=traced)
    try:
        workload.prepare(appliance.ports, credential)
        schedules = workload.schedules()
        warm = run_lanes(workload.lanes, schedules, max_ops=sizes.warm_ops)
        setup_wall = time.perf_counter() - began
        # the appliance's CPU clock started with its process
        setup_cpu = (appliance.command("stats")["cpu_s"]
                     + time.process_time() - harness_cpu)
        if any(lane.failed for lane in warm):
            raise RuntimeError(f"warm-up failed: {warm[0].errors} "
                               f"{warm[1].errors}")

        before = appliance.snapshot()
        if traced:
            appliance.command("trace_start")
            client_recorder.enabled = True
        # restarts the thread peak; its CPU clock brackets the segment
        server_cpu = appliance.command("stats")["cpu_s"]
        client_cpu = time.process_time()
        wall = time.perf_counter()
        lanes = run_lanes(workload.lanes, schedules, seconds=seconds)
        wall = time.perf_counter() - wall
        client_cpu = time.process_time() - client_cpu
        stats = appliance.command("stats")
        server_cpu = stats["cpu_s"] - server_cpu
        trace_path = os.path.join(workdir, "spans.bin")
        if traced:
            client_rows = client_recorder.finish()
            appliance.command(f"trace_dump {trace_path}")
        after = appliance.snapshot()
        peak_rss_mb = appliance.peak_rss_mb()
        start_to_reply_s = appliance.start_to_reply_s
        recovery = None

        if workload.durable:
            # The acknowledged PUTs must survive the process dying
            # with no warning and no drain.  (SIGKILL leaves the OS
            # page cache intact: this tests process crash, not power
            # loss.)
            workload.close()
            appliance.kill()
            appliance = Appliance(config)
            recovery = {**appliance.recovery,
                        "recovery_s": appliance.start_to_reply_s}
            checked, wrong = workload.verify_after_restart(
                appliance.ports, credential)
        else:
            checked, wrong = workload.verify()
    except BaseException:
        # Abandoned in the middle of an operation (SIGTERM, a failed
        # warm-up): a client's goodbye would wait out its 30 s timeout
        # on a server that is still waiting for the rest of a request.
        appliance.kill()
        raise
    finally:
        workload.close()
        appliance.stop()

    ops = metrics.completed(lanes)
    puts, put_bytes = metrics.put_totals(lanes)
    outcome.attempted += sum(lane.attempted for lane in lanes) + checked
    outcome.failed += sum(lane.failed for lane in lanes) + wrong
    if wrong or any(lane.mismatches for lane in lanes):
        outcome.correct = False
    for lane in lanes:
        outcome.notes.extend(lane.errors)

    # One yardstick for the round (set-up and segment are seconds apart).
    client_cpu -= sum(ns for lane in lanes for ns in lane.yardstick) / 1e9
    yardstick = machine.median_ns([ns for lane in (*warm, *lanes)
                                   for ns in lane.yardstick])
    busy_share = (server_cpu + client_cpu) / wall
    client = metrics.client_metrics(workload, lanes)
    rate = client["ops_per_s_norm"] = (
        client["ops_per_s"] / machine.speed_factor(busy_share, yardstick))
    if traced:
        names, threads, dropped = tracing.load(trace_path)
        outcome.add(metrics.trace_metrics(
            tracing.aggregate(names, threads, dropped), ops=ops, puts=puts))
        outcome.add(metrics.client_trace_metrics(
            tracing.aggregate(*client_rows), ops))
        return rate

    outcome.add({
        "setup_s": setup_wall * machine.speed_factor(setup_cpu / setup_wall,
                                                     yardstick),
        "setup_wall_s": setup_wall, "peak_rss_mb": peak_rss_mb,
        "nest.server.start_to_reply_s": start_to_reply_s,
        "machine.yardstick_us": yardstick / 1e3,
        "machine.busy_share": busy_share,
    })
    outcome.add(client)
    outcome.add(metrics.scrape_metrics(before, after, ops=ops, puts=puts,
                                       put_bytes=put_bytes))
    outcome.add({
        "client.cpu_us_per_op": 1e6 * client_cpu / ops if ops else 0.0,
        "nest.server.peak_threads": stats["peak_threads"],
    })
    if recovery is not None:
        outcome.add({"recovery_s": recovery["recovery_s"],
                     "durability.replay_s": recovery["replay_s"],
                     "durability.replayed_records":
                         recovery["replayed_records"]})
    for kind, samples in metrics.merged_latencies(lanes).items():
        outcome.latencies.setdefault(kind, []).extend(samples)
    return rate


def run_live(name: str, args, workdir: str) -> Outcome:
    outcome = Outcome(name)
    sizes = SMOKE if args.smoke else FULL
    untraced_rates = []
    for index in range(ROUNDS):
        traced = bool(args.trace) and index == ROUNDS - 1
        rate = run_round(WORKLOADS[name], args.seed, sizes,
                         args.seconds / ROUNDS, traced,
                         os.path.join(workdir, f"round{index}"), outcome)
        if traced:
            base = metrics.median_and_spread(untraced_rates)[0]
            outcome.add({"trace.overhead_frac":
                         1.0 - rate / base if base else 0.0})
        else:
            untraced_rates.append(rate)
    return outcome


# ----------------------------------------------------------------------
# figures_des
# ----------------------------------------------------------------------
def run_figures(args) -> Outcome:
    """Two passes over the DES figures, each in a fresh worker; a third
    worker is only started and stopped, so ``setup_s`` is a median of
    three like everywhere else.  (``--seconds`` does not apply: the
    work per pass is fixed by the figures themselves.)"""
    outcome = Outcome("figures_des")
    figures = [SMOKE_FIGURE] if args.smoke else list(FIGURES)
    with open(GOLDEN) as src:
        golden = json.load(src)
    passes = ROUNDS - 1
    untraced_rates = []
    setups, yardsticks = [], []
    for index in range(ROUNDS):
        traced = bool(args.trace) and index == passes - 1
        worker = FiguresWorker()
        try:
            setups.append((worker.start_to_reply_s, worker.hello["cpu_s"]))
            if index >= passes:
                continue
            reply = worker.run(figures, traced)
            peak_rss_mb = worker.peak_rss_mb()
        finally:
            worker.stop()
        outcome.attempted += len(figures)
        for figure in figures:
            if reply["report"][figure] != golden[figure]:
                outcome.failed += 1
                outcome.correct = False
                outcome.notes.append(f"{figure}: report() differs from "
                                     "golden_figures.json")
        wall = reply["wall_s"]
        total = sum(wall.values())
        busy_share = reply["cpu_s"] / total
        yardsticks.append(reply["yardstick_ns"])
        rate = len(figures) / total / machine.speed_factor(
            busy_share, reply["yardstick_ns"])
        if traced:
            base = metrics.median_and_spread(untraced_rates)[0]
            outcome.add({
                "sim.events_processed": reply["sim"]["events_processed"],
                "sim.events_per_s": reply["sim"]["events_processed"] / total,
                "sim.pool_hit_rate": reply["sim"]["pool_hit_rate"],
                "trace.overhead_frac": 1.0 - rate / base,
            })
            continue
        untraced_rates.append(rate)
        outcome.add({
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s_norm": rate,
            "ops_per_s": len(figures) / total,
            "figures_wall_s": total,
            "machine.yardstick_us": reply["yardstick_ns"] / 1e3,
            "machine.busy_share": busy_share,
        })
        outcome.add({f"bench.{figure}_wall_s": seconds
                     for figure, seconds in wall.items()})
    # A worker that only starts takes no samples: the run's yardstick
    # (the passes are seconds away) stands in for all three.
    yardstick = metrics.median_and_spread(yardsticks)[0]
    for wall, cpu in setups:
        outcome.add({"setup_wall_s": wall,
                     "setup_s": wall * machine.speed_factor(cpu / wall,
                                                            yardstick)})
    return outcome


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        return json.load(src)


def report(outcome: Outcome, spec: dict, trace: bool) -> dict:
    """Print the human table; return the contract's result object."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    summary = outcome.summary()
    unknown = sorted(set(summary) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")

    print(f"== {outcome.workload}: attempted {outcome.attempted}, "
          f"failed {outcome.failed}, "
          f"{'correct' if outcome.correct else 'WRONG OUTPUT'}")
    for title, group in (("end to end", spec["end_to_end"]),
                         ("per layer", spec["per_layer"])):
        print(f"-- {title} (median of rounds; spread = (max-min)/median)")
        for metric in group:
            name = metric["name"]
            if name not in summary:
                continue
            value, spread = summary[name]
            rounds = " ".join(f"{v:.6g}" for v in outcome.samples[name])
            print(f"{name:<42} {value:>14.6g} {metric['unit']:<6} "
                  f"spread {spread:6.1%}  [{rounds}]")
    if outcome.latencies:
        print("-- latency per operation kind (untraced rounds pooled)")
        for kind, samples in sorted(outcome.latencies.items()):
            tail = metrics.tail_percentile(len(samples))
            line = (f"{kind:<14} n={len(samples):<7} "
                    f"p50={metrics.percentile(samples, 50) / 1e3:.1f}us")
            if tail is not None:
                line += (f"  p{tail:g}="
                         f"{metrics.percentile(samples, tail) / 1e3:.1f}us")
            print(line)
    for note in outcome.notes[:10]:
        print(f"!! {note}")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": summary.get(m["name"], (0.0,))[0],
                                "unit": m["unit"]} for m in wanted},
    }


def append_record(path: str, outcome: Outcome, args) -> None:
    """Append this run to a results file ``compare`` understands."""
    records = []
    if os.path.exists(path):
        with open(path) as src:
            records = json.load(src)
    records.append({
        "workload": outcome.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "spread": spread,
                           "rounds": outcome.samples[name]}
                    for name, (value, spread) in outcome.summary().items()},
    })
    with open(path, "w") as out:
        json.dump(records, out, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed seconds per run (three segments)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny files; for the harness self-test")
    parser.add_argument("--out", help="append the run to this JSON file")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    status = 0
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        for name in names:
            if name == "figures_des":
                outcome = run_figures(args)
            else:
                outcome = run_live(name, args, os.path.join(workdir, name))
            result = report(outcome, spec, bool(args.trace))
            if args.out:
                append_record(args.out, outcome, args)
            print(json.dumps(result), flush=True)
            if not outcome.correct:
                status = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # unless another run uses it
        except OSError:
            pass
    return status


if __name__ == "__main__":
    sys.exit(main())
