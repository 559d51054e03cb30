"""End-to-end and per-layer benchmark of the REFILL batch and serve doors."""
