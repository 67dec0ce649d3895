"""The repository benchmark: wall-clock workloads, end-to-end metrics and an
outside-in layer ladder.  ``python3 perf/run.py --help`` is the entry point;
``perf/README.md`` explains every workload and metric."""
