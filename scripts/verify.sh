#!/bin/sh
# Tier-1 verification gate, seven commands: the observability and
# data-path lints; the full suite (fail-fast) -- which holds the
# fault-injection matrix, the replica, durability and tier lanes and
# the live connection-burst, group-commit and sendfile assertions, so
# none of them is run a second time; the fleet check; then the
# appliance benchmark three times at tiny sizes: one traced bulk_get
# round, so a src/ rename that breaks a name its tracer patches
# (benchmarks/appliance/tracing.py) fails here and not at benchmark
# time, one durable_put round (CRC on every PUT, SIGKILL, restart,
# lot used == live bytes), and one figures_des round (the figure
# worker regenerates Figs. 3-6 and byte-compares them with their
# golden text).  Each faults-marked test runs under a hard
# per-test timeout (pytest-timeout when installed; SIGALRM backstop
# otherwise).
# Usage: scripts/verify.sh [extra pytest args]
set -e
cd "$(dirname "$0")/.."
python scripts/lint_obs.py
python scripts/lint_datapath.py
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q "$@"
python scripts/check_fleet.py
python3 benchmarks/appliance/run.py --workload bulk_get --smoke --seconds 3 --trace 1
python3 benchmarks/appliance/run.py --workload durable_put --smoke --seconds 3 --trace 0
python3 benchmarks/appliance/run.py --workload figures_des --smoke
