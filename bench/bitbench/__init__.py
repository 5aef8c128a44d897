"""The bitformer benchmark: workloads, output checks and the per-layer tracer."""
