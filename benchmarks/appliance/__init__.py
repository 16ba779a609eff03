"""The appliance benchmark: four named workloads against a live
``NestServer`` in its own process (and the DES figures in theirs),
end-to-end metrics measured untraced, per-layer metrics from a traced
run.  See README.md in this directory; ``BENCHMARK.json`` at the repo
root names every workload and metric."""
