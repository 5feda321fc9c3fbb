#!/usr/bin/env python3
"""Benchmark regression gate for the CI bench lane.

Compares a freshly generated bench JSON (perf_generation's BENCH_pipeline,
perf_campaign's BENCH_campaign, or perf_serving's BENCH_serving) against
the checked-in baseline under bench/baselines/ and fails on regressions.

Gating policy:
  * Deterministic quantities (per-phase VM instruction ticks, per-mode
    samples_analyzed / workers_crashed) gate hard: any growth beyond
    --max-regression (default 15%) fails. These are machine-independent,
    so a tight threshold does not flake on shared runners.
  * Wall-clock times are reported but do not gate by default (shared CI
    runners are too noisy for absolute-time thresholds); opt in with
    --check-wall to apply --max-regression to them too.
  * The snapshot fast-path speedup is a ratio of two wall times from the
    same process on the same machine, so it transfers across runners:
    --min-speedup (default 3.0) gates it. The serving bench's match-index
    speedup over the linear scan is the same kind of ratio:
    --min-index-speedup (default 10.0) gates it.
  * Snapshot replay on the real corpus (off/on wall ratio over the same
    samples, same process) gates with --min-corpus-replay-ratio, read
    from the current run only; a run without the section fails.
  * The campaign's per-sample report JSON and journal bytes (a sample's
    share of what crosses the worker pipe and the fsync'd journal) gate
    with --max-report-kb, read from the current run only; a mode without
    the keys fails with exit 2.

Exit status: 0 clean, 1 on any regression, 2 on usage/IO errors.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        print(f"check_bench: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def pct(new, old):
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / old


def require(obj, key, where):
    """Fetches a key that the bench schema says must exist.

    A missing key used to flow through .get() as None and surface as a
    baffling None-vs-value MISMATCH (or a TypeError inside float()).
    Fail loudly at the source instead, naming the key and which file
    lost it — a missing baseline key means the baseline predates the
    bench schema and must be regenerated, not silently compared.
    """
    if not isinstance(obj, dict) or key not in obj:
        print(f"check_bench: missing key '{key}' in {where} "
              f"(regenerate the baseline?)", file=sys.stderr)
        sys.exit(2)
    return obj[key]


class Gate:
    def __init__(self, max_regression, check_wall):
        self.max_regression = max_regression
        self.check_wall = check_wall
        self.failures = []

    def check(self, label, baseline, current, gate=True):
        change = pct(current, baseline)
        verdict = "ok"
        if gate and change > self.max_regression:
            verdict = "REGRESSION"
            self.failures.append(label)
        elif not gate:
            verdict = "info"
        print(f"  {label:<44} {baseline:>14.3f} -> {current:>14.3f} "
              f"({change:+8.1%}) {verdict}")

    def check_exact(self, label, baseline, current):
        verdict = "ok"
        if current != baseline:
            verdict = "MISMATCH"
            self.failures.append(label)
        print(f"  {label:<44} {baseline:>14} -> {current:>14} {verdict}")


def compare_pipeline(base, cur, gate, min_speedup, min_corpus_replay_ratio):
    gate.check_exact("samples", require(base, "samples", "baseline"),
                     require(cur, "samples", "current"))
    base_phases = {p["phase"]: p
                   for p in require(base, "phases", "baseline")}
    cur_phases = {p["phase"]: p for p in require(cur, "phases", "current")}
    for name in sorted(base_phases):
        if name not in cur_phases:
            print(f"  phase '{name}' missing from current run  REGRESSION")
            gate.failures.append(f"phase:{name}")
            continue
        gate.check(f"phase {name} instructions",
                   float(base_phases[name]["instructions"]),
                   float(cur_phases[name]["instructions"]))
        gate.check(f"phase {name} wall_ms",
                   float(base_phases[name]["wall_ms"]),
                   float(cur_phases[name]["wall_ms"]),
                   gate=gate.check_wall)

    fastpath = cur.get("fastpath")
    if fastpath is None:
        print("  fastpath section missing from current run  REGRESSION")
        gate.failures.append("fastpath")
        return
    speedup = float(fastpath.get("speedup", 0.0))
    verdict = "ok" if speedup >= min_speedup else "REGRESSION"
    if verdict != "ok":
        gate.failures.append("fastpath.speedup")
    print(f"  {'fastpath speedup':<44} {min_speedup:>14.2f} "
          f"<= {speedup:>11.2f}x {verdict}")
    print(f"  {'fastpath legacy_ms':<44} "
          f"{float(fastpath.get('legacy_ms', 0)):>14.3f} info")
    print(f"  {'fastpath fast_ms':<44} "
          f"{float(fastpath.get('fast_ms', 0)):>14.3f} info")

    if min_corpus_replay_ratio is None:
        return
    replay = require(cur, "corpus_replay", "current")
    ratio = float(require(replay, "ratio", "current corpus_replay"))
    verdict = "ok" if ratio >= min_corpus_replay_ratio else "REGRESSION"
    if verdict != "ok":
        gate.failures.append("corpus_replay.ratio")
    print(f"  {'corpus replay off/on ratio':<44} "
          f"{min_corpus_replay_ratio:>14.2f} <= {ratio:>11.2f}x {verdict}")
    for key in ("on_ms", "off_ms"):
        print(f"  {'corpus replay ' + key:<44} "
              f"{float(replay.get(key, 0)):>14.3f} info")


def compare_robustness(base, cur, gate, min_bdr):
    """Adversarial-corpus bench: evasive corpus and pipeline are both
    seed-deterministic, so per-class counts must match the baseline
    exactly; --min-bdr adds absolute floors on the current run."""
    gate.check_exact("per_class", require(base, "per_class", "baseline"),
                     require(cur, "per_class", "current"))
    base_classes = {c["class"]: c
                    for c in require(base, "classes", "baseline")}
    cur_classes = {c["class"]: c for c in require(cur, "classes", "current")}
    for name in sorted(base_classes):
        if name not in cur_classes:
            print(f"  class '{name}' missing from current run  REGRESSION")
            gate.failures.append(f"class:{name}")
            continue
        b = base_classes[name]
        c = cur_classes[name]
        for key in ("samples", "sensitive", "vaccinated", "blocked"):
            gate.check_exact(f"{name} {key}",
                             require(b, key, f"baseline class '{name}'"),
                             require(c, key, f"current class '{name}'"))
    for name, floor in min_bdr:
        if name not in cur_classes:
            print(f"check_bench: --min-bdr names class '{name}' absent "
                  f"from the current run", file=sys.stderr)
            sys.exit(2)
        bdr = 100.0 * float(require(cur_classes[name], "bdr",
                                    f"current class '{name}'"))
        verdict = "ok" if bdr >= floor else "REGRESSION"
        if verdict != "ok":
            gate.failures.append(f"min-bdr:{name}")
        print(f"  {f'{name} blocked-detection rate':<44} {floor:>13.1f}% "
              f"<= {bdr:>10.1f}% {verdict}")


def parse_min_bdr(specs):
    """Parses repeatable --min-bdr '<class>=<pct>' arguments."""
    floors = []
    for spec in specs or []:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            print(f"check_bench: malformed --min-bdr '{spec}' "
                  f"(expected <class>=<pct>)", file=sys.stderr)
            sys.exit(2)
        try:
            floors.append((name, float(value)))
        except ValueError:
            print(f"check_bench: --min-bdr '{spec}' has a non-numeric "
                  f"percentage", file=sys.stderr)
            sys.exit(2)
    return floors


def compare_campaign(base, cur, gate, max_report_kb):
    gate.check_exact("samples", require(base, "samples", "baseline"),
                     require(cur, "samples", "current"))
    base_modes = {m["mode"]: m for m in require(base, "modes", "baseline")}
    cur_modes = {m["mode"]: m for m in require(cur, "modes", "current")}
    for name in sorted(base_modes):
        if name not in cur_modes:
            print(f"  mode '{name}' missing from current run  REGRESSION")
            gate.failures.append(f"mode:{name}")
            continue
        gate.check_exact(f"mode {name} samples_analyzed",
                         base_modes[name]["samples_analyzed"],
                         cur_modes[name]["samples_analyzed"])
        gate.check_exact(f"mode {name} workers_crashed",
                         base_modes[name]["workers_crashed"],
                         cur_modes[name]["workers_crashed"])
        gate.check(f"mode {name} wall_ms",
                   float(base_modes[name]["wall_ms"]),
                   float(cur_modes[name]["wall_ms"]),
                   gate=gate.check_wall)
    if max_report_kb is None:
        return
    for name in sorted(cur_modes):
        where = f"current mode '{name}'"
        for key, what in (("report_bytes_per_sample", "report"),
                          ("journal_bytes_per_sample", "journal")):
            kb = float(require(cur_modes[name], key, where)) / 1e3
            verdict = "ok" if kb <= max_report_kb else "REGRESSION"
            if verdict != "ok":
                gate.failures.append(f"mode {name} {key}")
            print(f"  {f'mode {name} {what} KB/sample':<44} "
                  f"{max_report_kb:>14.2f} >= {kb:>11.2f} {verdict}")


def compare_serving(base, cur, gate, min_index_speedup,
                    min_recovery_speedup, min_qps, max_p99_us):
    gate.check_exact("patterns", require(base, "patterns", "baseline"),
                     require(cur, "patterns", "current"))
    gate.check_exact("lookups", require(base, "lookups", "baseline"),
                     require(cur, "lookups", "current"))

    base_match = require(base, "match", "baseline")
    cur_match = require(cur, "match", "current")
    # The hit counts are deterministic verdicts: the index and the linear
    # scan agreed inside the bench, and both runs must agree with each
    # other — a drift means the match semantics changed.
    gate.check_exact("match hits", require(base_match, "hits", "baseline"),
                     require(cur_match, "hits", "current"))
    speedup = float(cur_match.get("speedup", 0.0))
    verdict = "ok" if speedup >= min_index_speedup else "REGRESSION"
    if verdict != "ok":
        gate.failures.append("match.speedup")
    print(f"  {'index speedup over linear scan':<44} "
          f"{min_index_speedup:>14.2f} <= {speedup:>11.2f}x {verdict}")
    gate.check("match linear_ms", float(base_match.get("linear_ms", 0)),
               float(cur_match.get("linear_ms", 0)), gate=gate.check_wall)
    gate.check("match index_ms", float(base_match.get("index_ms", 0)),
               float(cur_match.get("index_ms", 0)), gate=gate.check_wall)

    base_rt = require(base, "roundtrip", "baseline")
    cur_rt = require(cur, "roundtrip", "current")
    gate.check_exact("roundtrip requests",
                     require(base_rt, "requests", "baseline"),
                     require(cur_rt, "requests", "current"))
    gate.check_exact("roundtrip matches",
                     require(base_rt, "matches", "baseline"),
                     require(cur_rt, "matches", "current"))
    gate.check("roundtrip wall_ms", float(base_rt.get("wall_ms", 0)),
               float(cur_rt.get("wall_ms", 0)), gate=gate.check_wall)

    cur_rec = cur.get("recovery")
    if cur_rec is None:
        print("  recovery section missing from current run  REGRESSION")
        gate.failures.append("recovery")
        return
    base_rec = require(base, "recovery", "baseline")
    # Record counts are deterministic: the full open replays the whole
    # journal, the checkpointed open replays only the post-checkpoint
    # suffix. Any drift means recovery is replaying the wrong span.
    gate.check_exact("recovery entries (full open)",
                     require(base_rec, "entries_full", "baseline"),
                     require(cur_rec, "entries_full", "current"))
    gate.check_exact("recovery full_records",
                     require(base_rec, "full_records", "baseline"),
                     require(cur_rec, "full_records", "current"))
    gate.check_exact("recovery entries (checkpoint open)",
                     require(base_rec, "entries_checkpoint", "baseline"),
                     require(cur_rec, "entries_checkpoint", "current"))
    gate.check_exact("recovery checkpoint_records",
                     require(base_rec, "checkpoint_records", "baseline"),
                     require(cur_rec, "checkpoint_records", "current"))
    speedup = float(cur_rec.get("speedup", 0.0))
    verdict = "ok" if speedup >= min_recovery_speedup else "REGRESSION"
    if verdict != "ok":
        gate.failures.append("recovery.speedup")
    print(f"  {'checkpoint recovery speedup over replay':<44} "
          f"{min_recovery_speedup:>14.2f} <= {speedup:>11.2f}x {verdict}")
    gate.check("recovery full_open_ms",
               float(base_rec.get("full_open_ms", 0)),
               float(cur_rec.get("full_open_ms", 0)), gate=gate.check_wall)
    gate.check("recovery checkpoint_open_ms",
               float(base_rec.get("checkpoint_open_ms", 0)),
               float(cur_rec.get("checkpoint_open_ms", 0)),
               gate=gate.check_wall)

    # Fleet-load section: 10k concurrent clients on the TCP event tier.
    # Item counts are deterministic (a cold pull returns the whole feed,
    # a caught-up delta returns exactly what changed) and gate exactly.
    # Absolute QPS / p99 only gate when the lane opts in with --min-qps /
    # --max-p99-us — and then the keys MUST exist: a lane that asks for a
    # throughput floor and silently skips it because the bench stopped
    # emitting the metric is worse than a failure.
    cur_fleet = cur.get("fleet")
    if cur_fleet is None:
        if min_qps is not None or max_p99_us is not None:
            print("check_bench: --min-qps/--max-p99-us given but current "
                  "run has no 'fleet' section", file=sys.stderr)
            sys.exit(2)
        print("  fleet section missing from current run  REGRESSION")
        gate.failures.append("fleet")
        return
    base_fleet = require(base, "fleet", "baseline")
    gate.check_exact("fleet clients",
                     require(base_fleet, "clients", "baseline"),
                     require(cur_fleet, "clients", "current"))
    gate.check_exact("fleet full_items (cold pull)",
                     require(base_fleet, "full_items", "baseline"),
                     require(cur_fleet, "full_items", "current"))
    gate.check_exact("fleet delta_items (caught-up pull)",
                     require(base_fleet, "delta_items", "baseline"),
                     require(cur_fleet, "delta_items", "current"))
    gate.check("fleet wall_ms", float(base_fleet.get("wall_ms", 0)),
               float(cur_fleet.get("wall_ms", 0)), gate=gate.check_wall)
    if min_qps is not None:
        qps = float(require(cur_fleet, "sustained_qps", "current"))
        verdict = "ok" if qps >= min_qps else "REGRESSION"
        if verdict != "ok":
            gate.failures.append("fleet.sustained_qps")
        print(f"  {'fleet sustained QPS floor':<44} {min_qps:>14.1f} "
              f"<= {qps:>12.1f} {verdict}")
    else:
        print(f"  {'fleet sustained_qps':<44} "
              f"{float(cur_fleet.get('sustained_qps', 0)):>14.1f} info")
    if max_p99_us is not None:
        p99 = float(require(cur_fleet, "pull_p99_us", "current"))
        verdict = "ok" if p99 <= max_p99_us else "REGRESSION"
        if verdict != "ok":
            gate.failures.append("fleet.pull_p99_us")
        print(f"  {'fleet pull p99 ceiling (us)':<44} {max_p99_us:>14.1f} "
              f">= {p99:>12.1f} {verdict}")
    else:
        print(f"  {'fleet pull_p99_us':<44} "
              f"{float(cur_fleet.get('pull_p99_us', 0)):>14.1f} info")


def compare_fleet(base, cur, gate, min_fleet_efficiency):
    gate.check_exact("samples", require(base, "samples", "baseline"),
                     require(cur, "samples", "current"))
    gate.check_exact("workers", require(base, "workers", "baseline"),
                     require(cur, "workers", "current"))
    gate.check("baseline wall_ms",
               float(require(base, "baseline_wall_ms", "baseline")),
               float(require(cur, "baseline_wall_ms", "current")),
               gate=gate.check_wall)
    base_modes = {m["mode"]: m for m in require(base, "modes", "baseline")}
    cur_modes = {m["mode"]: m for m in require(cur, "modes", "current")}
    for name in sorted(base_modes):
        if name not in cur_modes:
            print(f"  mode '{name}' missing from current run  REGRESSION")
            gate.failures.append(f"mode:{name}")
            continue
        b, c = base_modes[name], cur_modes[name]
        where_b = f"baseline mode '{name}'"
        where_c = f"current mode '{name}'"
        # The two deterministic contracts: every sample exactly once,
        # and the merged report byte-identical to the fault-free
        # single-host run — for any failure schedule.
        gate.check_exact(f"mode {name} completed",
                         require(b, "completed", where_b),
                         require(c, "completed", where_c))
        gate.check_exact(f"mode {name} identical",
                         require(b, "identical", where_b),
                         require(c, "identical", where_c))
        gate.check(f"mode {name} wall_ms",
                   float(require(b, "wall_ms", where_b)),
                   float(require(c, "wall_ms", where_c)),
                   gate=gate.check_wall)
        efficiency = float(require(c, "efficiency", where_c))
        if name == "fault-free":
            # Efficiency is a ratio of two walls from the same run on
            # the same machine, so it transfers across runners. Only the
            # clean schedule gates on it: the worker-killed run
            # deliberately pays a lease-expiry wait, so its ratio mostly
            # measures the configured lease window.
            verdict = ("ok" if efficiency >= min_fleet_efficiency
                       else "REGRESSION")
            if verdict != "ok":
                gate.failures.append(f"mode {name} efficiency")
            print(f"  {'fleet efficiency vs ideal shard time':<44} "
                  f"{min_fleet_efficiency:>14.2f} <= {efficiency:>11.2f}x "
                  f"{verdict}")
        else:
            print(f"  {f'mode {name} efficiency':<44} "
                  f"{efficiency:>14.4f} info")
        if name == "worker-killed":
            reassigned = int(require(c, "reassigned", where_c))
            verdict = "ok" if reassigned >= 1 else "REGRESSION"
            if verdict != "ok":
                gate.failures.append(f"mode {name} reassigned")
            print(f"  {'killed worker lease was reassigned':<44} "
                  f"{1:>14} <= {reassigned:>11} {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("current", help="freshly generated bench JSON")
    parser.add_argument("--max-regression", type=float, default=0.15,
                        help="relative growth that fails gated metrics "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="minimum fastpath speedup (pipeline bench)")
    parser.add_argument("--min-corpus-replay-ratio", type=float,
                        default=None,
                        help="minimum off/on wall ratio of snapshot replay "
                             "over the real corpus (pipeline bench); "
                             "errors if the section is absent")
    parser.add_argument("--max-report-kb", type=float, default=None,
                        help="maximum mean report JSON and journal KB per "
                             "sample in every mode (campaign bench); "
                             "errors if the keys are absent")
    parser.add_argument("--min-index-speedup", type=float, default=10.0,
                        help="minimum match-index speedup over the linear "
                             "scan (serving bench)")
    parser.add_argument("--min-recovery-speedup", type=float, default=2.0,
                        help="minimum checkpoint-recovery speedup over a "
                             "full journal replay (serving bench)")
    parser.add_argument("--min-qps", type=float, default=None,
                        help="minimum sustained fleet-load QPS (serving "
                             "bench); errors if the metric is absent")
    parser.add_argument("--max-p99-us", type=float, default=None,
                        help="maximum fleet-load pull p99 in microseconds "
                             "(serving bench); errors if the metric is "
                             "absent")
    parser.add_argument("--min-fleet-efficiency", type=float, default=0.10,
                        help="minimum fault-free fleet efficiency against "
                             "the ideal shard time (fleet bench)")
    parser.add_argument("--min-bdr", action="append", metavar="CLASS=PCT",
                        help="repeatable; minimum blocked-detection rate "
                             "in percent for one evasion class "
                             "(robustness bench); errors if the class or "
                             "its bdr key is absent")
    parser.add_argument("--check-wall", action="store_true",
                        help="also gate wall-clock times (off by default: "
                             "shared runners are noisy)")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    kind = base.get("bench")
    if kind != cur.get("bench"):
        print(f"check_bench: bench kinds differ: baseline={kind} "
              f"current={cur.get('bench')}", file=sys.stderr)
        sys.exit(2)

    gate = Gate(args.max_regression, args.check_wall)
    print(f"== bench '{kind}': {args.baseline} vs {args.current} ==")
    if kind == "pipeline":
        compare_pipeline(base, cur, gate, args.min_speedup,
                         args.min_corpus_replay_ratio)
    elif kind == "campaign":
        compare_campaign(base, cur, gate, args.max_report_kb)
    elif kind == "serving":
        compare_serving(base, cur, gate, args.min_index_speedup,
                        args.min_recovery_speedup, args.min_qps,
                        args.max_p99_us)
    elif kind == "fleet":
        compare_fleet(base, cur, gate, args.min_fleet_efficiency)
    elif kind == "robustness":
        compare_robustness(base, cur, gate, parse_min_bdr(args.min_bdr))
    else:
        print(f"check_bench: unknown bench kind '{kind}'", file=sys.stderr)
        sys.exit(2)

    if gate.failures:
        print(f"\ncheck_bench: FAILED ({len(gate.failures)} regressions): "
              + ", ".join(gate.failures))
        sys.exit(1)
    print("\ncheck_bench: OK")


if __name__ == "__main__":
    main()
