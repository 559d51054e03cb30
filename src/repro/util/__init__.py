"""Small shared helpers: deterministic RNG streams, ASCII tables, stats."""
