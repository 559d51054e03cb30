"""Prometheus text exposition of a :class:`MetricsSnapshot`.

Renders any snapshot in the Prometheus text format (``text/plain;
version=0.0.4``): counters and gauges one sample per label set, histograms
as *summaries* (``{quantile="0.5"}`` / ``{quantile="0.95"}`` samples plus
``_count`` / ``_sum``, with ``_min`` / ``_max`` as companion gauges).  The
daemon serves this from ``GET /metrics`` under content negotiation (JSON
stays the default), making ``refill serve`` scrapeable by stock Prometheus
— and, once the daemon shards, per-shard scrapes merge with standard
tooling instead of bespoke JSON plumbing.

Snapshot keys are the registry's flat ``name{label=value,...}`` strings;
dots in metric names become underscores (``serve.ingest.lines`` →
``serve_ingest_lines``) and label values are escaped per the format spec.
Output is deterministic: families sorted by name, samples sorted by label
set — two identical snapshots render byte-identically.

:func:`parse_exposition` is the matching reader — enough of a parser to
round-trip our own output (the ``tests/obs/test_promtext.py`` contract)
and to fold a scraped shard's families back into floats.
"""

from __future__ import annotations

import re

from repro.obs.registry import MetricsSnapshot

#: The content type Prometheus scrapers send/expect for this format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_BAD_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: Summary quantiles rendered per histogram (matches HistogramSummary).
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"))


def metric_name(name: str) -> str:
    """A raw registry name as a valid Prometheus metric name."""
    sane = _BAD_NAME_CHARS.sub("_", name)
    if not sane or sane[0].isdigit():
        sane = "_" + sane
    return sane


def escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
    return "".join(out)


def split_flat_key(key: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """A snapshot's flat ``name{label=value,...}`` key into name + labels."""
    name, brace, rest = key.partition("{")
    if not brace:
        return key, ()
    labels = []
    for part in rest.rstrip("}").split(","):
        label, _, value = part.partition("=")
        labels.append((label, value))
    return name, tuple(labels)


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _sample(family: str, labels: tuple[tuple[str, str], ...], value: float) -> str:
    if not labels:
        return f"{family} {_format_value(value)}"
    inner = ",".join(
        f'{metric_name(k)}="{escape_label_value(v)}"' for k, v in labels
    )
    return f"{family}{{{inner}}} {_format_value(value)}"


def render_snapshot(snapshot: MetricsSnapshot) -> str:
    """The snapshot in Prometheus text exposition format (deterministic)."""
    # family -> (type, [(labels, value)])
    families: dict[str, tuple[str, list[tuple[tuple[tuple[str, str], ...], float]]]] = {}

    def add(family: str, ptype: str, labels, value: float) -> None:
        entry = families.get(family)
        if entry is None:
            entry = families[family] = (ptype, [])
        entry[1].append((labels, value))

    for key, count in snapshot.counters.items():
        name, labels = split_flat_key(key)
        add(metric_name(name), "counter", labels, float(count))
    for key, value in snapshot.gauges.items():
        name, labels = split_flat_key(key)
        add(metric_name(name), "gauge", labels, value)
    for key, summary in snapshot.histograms.items():
        name, labels = split_flat_key(key)
        family = metric_name(name)
        for quantile, attr in _QUANTILES:
            q = getattr(summary, attr)
            if q is not None:
                add(family, "summary", labels + (("quantile", quantile),), q)
        add(family + "_count", "summary+count", labels, float(summary.count))
        add(family + "_sum", "summary+sum", labels, summary.total)
        if summary.min is not None:
            add(family + "_min", "gauge", labels, summary.min)
        if summary.max is not None:
            add(family + "_max", "gauge", labels, summary.max)

    lines: list[str] = []
    for family in sorted(families):
        ptype, samples = families[family]
        if "+" not in ptype:  # _count/_sum ride their summary without a TYPE
            lines.append(f"# TYPE {family} {ptype}")
        for labels, value in sorted(samples):
            lines.append(_sample(family, labels, value))
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------- #
# reading the format back

_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(
    text: str,
) -> tuple[dict[str, dict[tuple[tuple[str, str], ...], float]], dict[str, str]]:
    """Parse exposition text into ``(samples, types)``.

    ``samples`` maps family name -> {sorted label pairs -> value};
    ``types`` maps family name -> declared ``# TYPE``.  Raises
    ``ValueError`` on lines that are neither comments nor valid samples.
    """
    samples: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    types: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        labels: list[tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL.finditer(raw):
                labels.append((pair.group(1), _unescape_label_value(pair.group(2))))
                consumed = pair.end()
            leftover = raw[consumed:].strip(", ")  # noqa: B005 - char-set strip of delimiters
            if leftover:
                raise ValueError(f"line {lineno}: bad label syntax {leftover!r}")
        value = float(match.group("value"))
        samples.setdefault(match.group("name"), {})[tuple(sorted(labels))] = value
    return samples, types
