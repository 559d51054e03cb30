"""ServeConfig refuses values the daemon cannot run with."""

import pytest

from repro.serve import ServeConfig


@pytest.mark.parametrize(
    "field, value",
    [
        ("shards", 0),
        ("ingest_queue_batches", 0),
        ("ingest_batch_lines", 0),
        ("flush_interval", 0.0),
        ("tail_interval", 0.0),
        ("tail_interval", -1.0),
        ("trace_capacity", 0),
    ],
)
def test_non_positive_values_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        ServeConfig(**{field: value})
