"""End-to-end benchmark of the GIS estimators and the job service.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; see ``perfbench/README.md``.
"""
