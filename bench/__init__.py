"""The repo benchmark: frame latency and pruning speedup on the shipped
executor, open-loop serving under a 30 fps limit, traced layer by layer.

Run ``python3 -m bench --help``; ``bench/README.md`` explains the workloads,
the metric vocabulary and how to read the result and trace files.  Nothing
here is imported by ``src/repro``: every layer is measured from outside,
through its public functions and reports.
"""
