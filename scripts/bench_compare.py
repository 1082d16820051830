#!/usr/bin/env python3
"""Diff two google-benchmark JSON files and fail on regressions.

Usage: bench_compare.py BASELINE.json CURRENT.json [--threshold PCT]

Benchmarks are matched by name. For each pair the real_time delta is
reported; any benchmark slower than the threshold (default 10%) fails the
comparison with exit code 1. Benchmarks present on only one side are listed
but never fail the run (new benchmarks appear, retired ones disappear —
that is growth, not regression).

Benchmarks that report a metadata_bytes_per_msg counter (E18, tracking the
wire overhead figure E21 sweeps against N) get a second check: the counter
is a deterministic byte count, not a timing, so it is held to a tight 1%
growth bound — header-format regressions hide inside timing noise but not
inside byte counts.

Benchmarks that report abort_rate / commits_per_s counters (E22, the
concurrency-control contention sweep) are gated on those too: the simulator
is deterministic, so a drift beyond the threshold in EITHER direction of
abort_rate means the conflict-resolution behavior changed, and a
commits_per_s drop beyond the threshold is a throughput regression even
when the latency column stays flat (commits can slow down collectively
without moving the per-commit mean).

Both files must come from release builds: bench mains stamp
"repro_build_type" into the context, and comparing debug numbers against
release numbers (or debug against debug) is meaningless, so anything except
release/release is rejected.

Files recorded by scripts/bench.sh also stamp "repro_bench_config"
(batch/buffer knobs) and "repro_git_sha". Two files with different
configs are never compared — a cross-config delta measures the config, not
the code. Files recorded before the stamp existed carry no config and are
tolerated with a warning.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")
    context = doc.get("context", {})
    build_type = context.get("repro_build_type")
    if build_type != "release":
        sys.exit(
            f"bench_compare: {path} was recorded from a "
            f"{build_type or 'unknown'} build, not release — re-record with "
            "scripts/bench.sh"
        )
    out = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repeated runs); the raw
        # iterations carry run_type "iteration" or no run_type at all.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        out[bench["name"]] = bench
    return out, context


def check_configs(baseline_path, base_ctx, current_path, cur_ctx):
    """Refuse cross-config comparisons; tolerate pre-stamp recordings."""
    base_cfg = base_ctx.get("repro_bench_config")
    cur_cfg = cur_ctx.get("repro_bench_config")
    if base_cfg is None or cur_cfg is None:
        for path, cfg in ((baseline_path, base_cfg), (current_path, cur_cfg)):
            if cfg is None:
                print(
                    f"bench_compare: warning: {path} predates the config "
                    "stamp; cannot verify both runs used the same config",
                    file=sys.stderr,
                )
        return
    if base_cfg != cur_cfg:
        sys.exit(
            "bench_compare: refusing cross-config comparison:\n"
            f"  {baseline_path}: {base_cfg}\n"
            f"  {current_path}: {cur_cfg}\n"
            "re-record one side with matching BENCH_BATCH/BENCH_BUFFER"
        )
    base_sha = base_ctx.get("repro_git_sha", "unknown")
    cur_sha = cur_ctx.get("repro_git_sha", "unknown")
    print(f"config {base_cfg}: {base_sha} -> {cur_sha}")


def fmt_time(bench):
    return f"{bench['real_time']:.1f} {bench.get('time_unit', 'ns')}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="fail when real_time regresses more than PCT percent (default 10)",
    )
    args = parser.parse_args()

    base, base_ctx = load(args.baseline)
    cur, cur_ctx = load(args.current)
    check_configs(args.baseline, base_ctx, args.current, cur_ctx)

    regressions = []
    shared = sorted(set(base) & set(cur))
    for name in shared:
        b, c = base[name], cur[name]
        if b["real_time"] <= 0:
            continue
        delta_pct = (c["real_time"] - b["real_time"]) / b["real_time"] * 100.0
        marker = " "
        if delta_pct > args.threshold:
            marker = "!"
            regressions.append((name, delta_pct))
        print(
            f"{marker} {name:<55} {fmt_time(b):>14} -> {fmt_time(c):>14} "
            f"({delta_pct:+.1f}%)"
        )
        # Deterministic wire-overhead counter: any growth beyond rounding is
        # a header-format change, so the bound is 1% regardless of the
        # timing threshold.
        b_meta = b.get("metadata_bytes_per_msg")
        c_meta = c.get("metadata_bytes_per_msg")
        if b_meta and c_meta:
            meta_pct = (c_meta - b_meta) / b_meta * 100.0
            meta_marker = " "
            if meta_pct > 1.0:
                meta_marker = "!"
                regressions.append((f"{name} [metadata_bytes_per_msg]", meta_pct))
            print(
                f"{meta_marker} {name + ' [metadata B/msg]':<55} "
                f"{b_meta:>14.1f} -> {c_meta:>14.1f} ({meta_pct:+.1f}%)"
            )
        # E22 contention counters. abort_rate drift in either direction is a
        # behavior change (the sim is deterministic); commits_per_s only
        # regresses downward.
        b_ab, c_ab = b.get("abort_rate"), c.get("abort_rate")
        if b_ab is not None and c_ab is not None:
            if b_ab > 0:
                ab_pct = (c_ab - b_ab) / b_ab * 100.0
            else:
                ab_pct = 0.0 if c_ab == 0 else float("inf")
            ab_marker = " "
            if abs(ab_pct) > args.threshold:
                ab_marker = "!"
                regressions.append((f"{name} [abort_rate]", ab_pct))
            print(
                f"{ab_marker} {name + ' [abort rate]':<55} "
                f"{b_ab:>14.4f} -> {c_ab:>14.4f} ({ab_pct:+.1f}%)"
            )
        b_tp, c_tp = b.get("commits_per_s"), c.get("commits_per_s")
        if b_tp and c_tp is not None:
            tp_pct = (c_tp - b_tp) / b_tp * 100.0
            tp_marker = " "
            if tp_pct < -args.threshold:
                tp_marker = "!"
                regressions.append((f"{name} [commits_per_s]", tp_pct))
            print(
                f"{tp_marker} {name + ' [commits/s]':<55} "
                f"{b_tp:>14.1f} -> {c_tp:>14.1f} ({tp_pct:+.1f}%)"
            )

    for name in sorted(set(cur) - set(base)):
        print(f"+ {name:<55} {'new':>14} -> {fmt_time(cur[name]):>14}")
    for name in sorted(set(base) - set(cur)):
        print(f"- {name:<55} {fmt_time(base[name]):>14} -> {'gone':>14}")

    if not shared:
        sys.exit("bench_compare: no benchmarks in common — wrong files?")
    if regressions:
        print(
            f"\nbench_compare: {len(regressions)} benchmark(s) regressed "
            f"more than {args.threshold:.0f}%:",
            file=sys.stderr,
        )
        for name, pct in regressions:
            print(f"  {name}: {pct:+.1f}%", file=sys.stderr)
        sys.exit(1)
    print(f"\nbench_compare: {len(shared)} shared benchmarks within {args.threshold:.0f}%")


if __name__ == "__main__":
    main()
