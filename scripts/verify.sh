#!/bin/sh
# Tier-1 verification gate: the observability and data-path lints,
# the full suite (fail-fast), then the fault-injection lane by itself
# so matrix failures are easy to spot, then the replica-federation
# lane (live fleets, kill-and-heal), then the durability lane
# (journal, crash sweeps, restart recovery), then the transfer lane:
# the live loopback bench in smoke mode, asserting data-path
# integrity and group-commit counters without touching the recorded
# trajectory, then the concurrency lane: the connection-scaling bench
# in smoke mode, asserting the event path serves a burst of concurrent
# connections with zero errors (again without touching the
# trajectory), then the tier lane: storage tiering + autoscaling
# (residency crash sweep, flash-crowd absorption acceptance), then the
# benchmark-smoke lane: one traced bulk_get round of the appliance
# benchmark at tiny sizes, so a src/ rename that breaks a name its
# tracer patches (benchmarks/appliance/tracing.py) fails here and not
# at benchmark time.  Each faults-marked test runs under a hard
# per-test timeout (pytest-timeout when installed; SIGALRM backstop
# otherwise).
# Usage: scripts/verify.sh [extra pytest args]
set -e
cd "$(dirname "$0")/.."
python scripts/lint_obs.py
python scripts/lint_datapath.py
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q "$@"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -m faults "$@"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q tests/replica "$@"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q tests/durability "$@"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q tests/tier "$@"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro perf transfer --smoke
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro perf concurrency --smoke
python scripts/check_fleet.py
python3 benchmarks/appliance/run.py --workload bulk_get --smoke --seconds 3 --trace 1
