"""End-to-end and per-layer benchmark of the adaptive OSR engine.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from :mod:`perfbench.workloads` through the public
:class:`repro.engine.Engine` API and prints its metrics; see
``perfbench/README.md`` for the workloads and what each metric means.
"""
