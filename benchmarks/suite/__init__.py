"""The repository benchmark: end-to-end workloads with outside-in layer timing.

See README.md in this directory and ``BENCHMARK.json`` at the root.
"""
