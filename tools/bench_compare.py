#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on regressions.

CI's performance-regression gate: the release job runs the serving-path
micro benches (BM_FleetClassifyBatch, BM_CompiledForestBatch,
BM_FleetMillionLinks, BM_AggregatorRollup, ...), then compares the fresh
JSON against the checked-in BENCH_baseline.json. Any selected benchmark
whose real_time grew by more than --threshold (default 25%) fails the
job, as does any benchmark where a *_per_s rate counter (links_per_s on
the fleet engine, rows_per_s on the batch engines) DROPPED by more than
the same threshold -- so an aggregator- or scrape-induced links/s drop on
BM_FleetMillionLinks fails CI even if its real_time stays inside the
window. A benchmark present in the baseline but missing from the current
run also fails (deleting a bench must be an explicit baseline refresh,
not a silent gap).

Usage:
  tools/bench_compare.py BENCH_baseline.json fleet_bench.json \
      --filter 'BM_FleetClassifyBatch|BM_CompiledForestBatch' \
      --threshold 0.25 --report bench_compare.md

Refreshing the baseline: download the release job's bench JSON artifact and
commit it as BENCH_baseline.json (tools/bench_compare.py exits 0 when a
file is compared against itself).
"""

import argparse
import json
import re
import sys

# google-benchmark time_unit -> nanoseconds.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path):
    """Return {name: {"real_time_ns": float, "rates": {counter: float},
    "label": str}} for every non-aggregate benchmark. `rates` holds every
    *_per_s user counter (links_per_s, rows_per_s, ...) -- all of them are
    gated. `label` carries a bench's SetLabel() text, if it set one; it is
    printed, not gated."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for bench in doc.get("benchmarks", []):
        # Skip mean/median/stddev aggregate rows from --benchmark_repetitions.
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        real_time = bench.get("real_time")
        if name is None or real_time is None:
            continue
        unit = _UNIT_NS.get(bench.get("time_unit", "ns"))
        if unit is None:
            raise SystemExit(f"{path}: unknown time_unit for {name!r}")
        rates = {
            key: float(value)
            for key, value in bench.items()
            if key.endswith("_per_s") and isinstance(value, (int, float))
        }
        out[name] = {
            "real_time_ns": float(real_time) * unit,
            "rates": rates,
            "label": str(bench.get("label", "")),
        }
    return out


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3f} {unit}"
    return f"{ns:.1f} ns"


def fmt_rate(rate):
    if rate is None:
        return "—"
    for unit, scale in (("M", 1e6), ("k", 1e3)):
        if rate >= scale:
            return f"{rate / scale:.2f}{unit}/s"
    return f"{rate:.1f}/s"


def rate_ratios(base, cur):
    """{counter: cur/base} over the *_per_s counters present in both."""
    out = {}
    for key, base_rate in base["rates"].items():
        cur_rate = cur["rates"].get(key)
        if base_rate and cur_rate is not None:
            out[key] = cur_rate / base_rate
    return out


def compare(baseline, current, pattern, threshold):
    """Return (rows, regressions, missing) over baseline names matching
    pattern; rows are (name, base, cur, ratio, ratios, status) where
    base/cur are the loaded benchmark dicts (cur None when missing) and
    ratios maps each shared *_per_s counter to cur/base. real_time
    regresses when it GROWS past the threshold; any rate counter
    regresses when it DROPS past it."""
    rows = []
    regressions = []
    missing = []
    for name in sorted(baseline):
        if not pattern.search(name):
            continue
        base = baseline[name]
        if name not in current:
            missing.append(name)
            rows.append((name, base, None, None, {}, "MISSING"))
            continue
        cur = current[name]
        base_ns = base["real_time_ns"]
        ratio = cur["real_time_ns"] / base_ns if base_ns > 0 else float("inf")
        ratios = rate_ratios(base, cur)
        time_regressed = ratio > 1.0 + threshold
        rate_regressed = any(r < 1.0 - threshold for r in ratios.values())
        if time_regressed or rate_regressed:
            status = "REGRESSION"
            regressions.append(name)
        elif ratio < 1.0 - threshold or any(
                r > 1.0 + threshold for r in ratios.values()):
            status = "improved"
        else:
            status = "ok"
        rows.append((name, base, cur, ratio, ratios, status))
    return rows, regressions, missing


def write_report(path, rows, regressions, missing, threshold, args):
    lines = [
        "# Benchmark comparison",
        "",
        f"Baseline: `{args.baseline}` — current: `{args.current}` — "
        f"gate: real_time ratio > {1.0 + threshold:.2f} "
        f"or any *_per_s ratio < {1.0 - threshold:.2f}",
        "",
        "| benchmark | baseline | current | ratio "
        "| rates (base → cur) | label | status |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, base, cur, ratio, ratios, status in rows:
        cur_time = fmt_ns(cur["real_time_ns"]) if cur is not None else "—"
        rat = f"{ratio:.3f}" if ratio is not None else "—"
        # The current run's bench label; flag a baseline recorded under a
        # different label so a "regression" that is really a configuration
        # delta is obvious at a glance.
        cur_label = cur.get("label", "") if cur is not None else ""
        base_label = base.get("label", "")
        if cur_label and base_label and cur_label != base_label:
            label = f"{base_label} → {cur_label}"
        else:
            label = cur_label or base_label or "—"
        rate_cells = []
        for key in sorted(base["rates"]):
            base_rate = base["rates"][key]
            cur_rate = cur["rates"].get(key) if cur is not None else None
            cell = (f"{key}: {fmt_rate(base_rate)} → "
                    f"{fmt_rate(cur_rate)}")
            if key in ratios:
                cell += f" ({ratios[key]:.3f})"
            rate_cells.append(cell)
        rate = "<br>".join(rate_cells) if rate_cells else "—"
        lines.append(
            f"| {name} | {fmt_ns(base['real_time_ns'])} | {cur_time} "
            f"| {rat} | {rate} | {label} | {status} |")
    lines.append("")
    if regressions or missing:
        lines.append(
            f"**FAIL**: {len(regressions)} regression(s), "
            f"{len(missing)} missing benchmark(s).")
    else:
        lines.append("**PASS**: no regressions.")
    lines.append("")
    text = "\n".join(lines)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def main():
    parser = argparse.ArgumentParser(
        description="Fail when benchmarks regress vs. a baseline JSON.")
    parser.add_argument("baseline", help="baseline google-benchmark JSON")
    parser.add_argument("current", help="freshly produced benchmark JSON")
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="allowed fractional real_time growth / *_per_s rate drop "
             "(default 0.25 = 25%%)")
    parser.add_argument(
        "--filter", default=".",
        help="regex selecting benchmark names to gate (default: all)")
    parser.add_argument(
        "--report", default=None, help="write a markdown report here")
    args = parser.parse_args()

    if args.threshold < 0:
        parser.error("--threshold must be >= 0")
    pattern = re.compile(args.filter)
    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)
    rows, regressions, missing = compare(
        baseline, current, pattern, args.threshold)
    if not rows:
        print(f"error: no baseline benchmarks match filter {args.filter!r}",
              file=sys.stderr)
        return 2

    print(write_report(args.report, rows, regressions, missing,
                       args.threshold, args))
    return 1 if (regressions or missing) else 0


if __name__ == "__main__":
    sys.exit(main())
