"""Small shared helpers: deterministic RNG streams and ASCII tables."""
