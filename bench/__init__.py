"""semcom's benchmark: seeded workloads, output checks, per-layer tracing."""
