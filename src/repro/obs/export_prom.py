"""Prometheus text exposition (version 0.0.4) of a metrics snapshot.

The management endpoint serves this at ``/metrics`` and the
``repro stats`` CLI prints it; the format is the plain-text scrape
format every Prometheus-compatible collector understands::

    # HELP nest_requests_total Requests served.
    # TYPE nest_requests_total counter
    nest_requests_total{protocol="chirp",op="get",outcome="ok"} 12

The input is a :meth:`MetricsRegistry.snapshot` -- one appliance's, or
a shard fleet's merged by :func:`repro.obs.fleet.merge_snapshots` --
so every exposition is a function of a snapshot.  Label values are
escaped, and histograms render as cumulative ``_bucket`` series plus
``_sum`` / ``_count``.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["render_prometheus"]


def _escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(names: tuple[str, ...], key: tuple[str, ...],
            extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{n}="{_escape(v)}"' for n, v in zip(names, key)]
    pairs.extend(f'{n}="{_escape(v)}"' for n, v in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: Mapping[str, Mapping[str, Any]]) -> str:
    """A metrics snapshot in Prometheus text format."""
    lines: list[str] = []
    for name, entry in snapshot.items():
        labelnames = tuple(entry["labels"])
        series = entry["series"]
        lines.append(f"# HELP {name} {entry['help'] or name}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        if entry["kind"] == "histogram":
            bounds = [*entry["buckets"], float("inf")]
            for key, data in sorted(series.items()):
                for bound, cumulative in zip(bounds, data["buckets"]):
                    le = "+Inf" if bound == float("inf") else _format_value(
                        float(bound))
                    labels = _labels(labelnames, key, (("le", le),))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                base = _labels(labelnames, key)
                lines.append(f"{name}_sum{base} {_format_value(data['sum'])}")
                lines.append(f"{name}_count{base} {data['count']}")
            continue
        if not series and not labelnames:
            lines.append(f"{name} 0")
            continue
        for key, value in sorted(series.items()):
            labels = _labels(labelnames, key)
            lines.append(f"{name}{labels} {_format_value(value)}")
    return "\n".join(lines) + "\n"
