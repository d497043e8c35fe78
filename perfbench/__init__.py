"""Benchmark for the dancegen library: three closed-loop workloads driven
through the public API, correctness checks with output digests, and a traced
run that times each library layer from outside the package.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see README.md in this directory.
"""
