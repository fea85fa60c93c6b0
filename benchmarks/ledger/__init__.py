"""The performance ledger: one command, six workloads, per-layer attribution."""
