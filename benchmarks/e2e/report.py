"""Medians and quartiles, the printed tables, and the regression verdict."""

from __future__ import annotations

import statistics

#: gated on any increase; they read 0 on a healthy commit, so they are
#: listed with the per-layer metrics in BENCHMARK.json (whose end-to-end
#: metrics must never be 0) and judged here
ZERO_TOLERANCE = {"ops_failed_frac": "ratio", "shed_frac": "ratio"}

#: tails printed with their sample counts but not gated.  On the
#: reference host their IQR over three runs of one seed reached 36% of the
#: median (67% for an update p99 resting on ~3 samples beyond it), past
#: the 25% ceiling a bound may have.  BENCHMARK.json lists them without
#: a bound.
UNGATED = {"update_p99_us": "us", "query_p95_ms": "ms", "query_p99_ms": "ms"}

#: which per-run call count a metric's percentile or rate rests on
SAMPLE_OF = {
    "update_rate": "updates",
    "update_p50_us": "updates",
    "update_p99_us": "updates",
    "query_rate": "answered",
    "query_p50_ms": "answered",
    "query_p95_ms": "answered",
    "query_p99_ms": "answered",
    "amortized_ms": "answered",
    "shed_frac": "arrivals",
    "ops_failed_frac": "attempted",
}


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``), IQR and n."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(values),
        "values": list(values),
    }


def metric_rows(spec: dict) -> list[tuple[str, str, str, float | None]]:
    """``(name, unit, better, bound)`` for every end-to-end metric ``run``
    prints: bound ``0`` gates any increase, ``None`` is not gated."""
    rows = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    rows += [(name, unit, "lower", 0.0) for name, unit in ZERO_TOLERANCE.items()]
    rows += [(name, unit, "lower", None) for name, unit in UNGATED.items()]
    return rows


def _bound_text(bound: float | None) -> str:
    if bound is None:
        return "-"
    return "any increase" if bound == 0 else f"{bound:.0%}"


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.0f}"
    if magnitude >= 1:
        return f"{value:.3g}" if magnitude < 100 else f"{value:.1f}"
    return f"{value:.3g}"


def e2e_table(name: str, result: dict, spec: dict) -> str:
    """Markdown table of one workload's end-to-end metrics."""
    lines = [
        f"### {name}",
        "",
        "| metric | unit | better | bound | median | IQR | IQR/median | n | calls/run |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for metric, unit, better, bound in metric_rows(spec):
        s = result["metrics"][metric]
        spread = s["iqr"] / s["median"] if s["median"] else 0.0
        calls = result["samples"].get(SAMPLE_OF.get(metric, ""), "-")
        lines.append(
            f"| {metric} | {unit} | {better} | {_bound_text(bound)} | {_fmt(s['median'])} | "
            f"{_fmt(s['iqr'])} | {spread:.1%} | {s['n']} | {calls} |"
        )
    lines.append("")
    lines.append(
        f"correct: {result['correct']} ({result['failed']} failed of "
        f"{result['attempted']} ops; {result['compared']} answers checked against the oracle)"
    )
    return "\n".join(lines) + "\n"


def profile_table(name: str, traced: dict) -> str:
    """Markdown per-layer self-time table of one traced run."""
    wall = traced["stream_s"]
    rows = sorted(traced["profile"].items(), key=lambda kv: -kv[1]["self_s"])
    layers = traced["layers"]
    covered = layers["bench.coverage"] * wall
    lines = [
        f"### {name} — traced stream {wall:.2f} s",
        "",
        f"coverage (top-level spans / stream wall): {layers['bench.coverage']:.1%}; "
        "tracing overhead (traced / untraced amortized_ms): "
        f"{layers['bench.trace_overhead']:.2f}x",
        "",
        "| span | calls | self s | self % of stream | total s |",
        "|---|---|---|---|---|",
    ]
    for span, r in rows:
        if not r["calls"]:
            continue
        lines.append(
            f"| {span} | {r['calls']:,} | {r['self_s']:.3f} | "
            f"{r['self_s'] / wall:.1%} | {r['total_s']:.3f} |"
        )
    lines.append(
        f"| (driver loop, outside every span) | - | {wall - covered:.3f} | "
        f"{1 - layers['bench.coverage']:.1%} | - |"
    )
    lines.append("")
    return "\n".join(lines) + "\n"


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """better / no worse / regressed / unresolved for one metric.

    Changes are shares of the baseline median, positive meaning worse.
    A zero bound gates any increase of the median.  Otherwise the verdict
    is ``unresolved`` when either side's IQR is wider than the bound
    (unless every new run beats every baseline run) or when the new
    IQR straddles the bound; ``regressed`` when the whole new IQR is past
    it; ``better`` when the whole new IQR improves by more than it.
    """
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        return "regressed" if sign * (new["median"] - base["median"]) > 0 else "no worse"
    a = base["median"]
    lo, hi = sorted(sign * (q - a) / a for q in (new["q1"], new["q3"]))
    if max(base["iqr"] / a, new["iqr"] / new["median"]) > bound:
        beats = all(sign * (n - b) < 0 for n in new["values"] for b in base["values"])
        return "better" if beats else "unresolved"
    if lo > bound:
        return "regressed"
    if hi > bound:
        return "unresolved"
    if hi < -bound:
        return "better"
    return "no worse"


def compare(base: dict, new: dict, spec: dict) -> tuple[str, int]:
    """Markdown comparison of two ``run --out`` files; returns
    ``(text, regressions)``."""
    lines = []
    regressions = 0
    for name in (w["name"] for w in spec["workloads"]):
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        a, b = base["workloads"][name]["metrics"], new["workloads"][name]["metrics"]
        lines += [
            f"### {name}",
            "",
            "| metric | unit | bound | A median (IQR, n) | B median (IQR, n) | change | verdict |",
            "|---|---|---|---|---|---|---|",
        ]
        for metric, unit, better, bound in metric_rows(spec):
            sa, sb = a[metric], b[metric]
            v = "not gated" if bound is None else verdict(sa, sb, better, bound)
            regressions += v == "regressed"
            change = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            lines.append(
                f"| {metric} | {unit} | {_bound_text(bound)} | "
                f"{_fmt(sa['median'])} ({_fmt(sa['iqr'])}, {sa['n']}) | "
                f"{_fmt(sb['median'])} ({_fmt(sb['iqr'])}, {sb['n']}) | {change:+.1%} | {v} |"
            )
        lines.append("")
    lines.append(f"regressions: {regressions}")
    return "\n".join(lines) + "\n", regressions
