"""SQL-text-to-answer benchmark: workloads, oracle, per-layer attribution."""
