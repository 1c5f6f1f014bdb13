"""Benchmark of geofileops_ray: four seeded, output-checked workloads and a
traced per-layer run. Entry point: ``python3 perfbench/run.py``."""
