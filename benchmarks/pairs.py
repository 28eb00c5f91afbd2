#!/usr/bin/env python3
"""Alternating base/change perfbench pairs, summarized against the bounds.

Runs ``perfbench/run.py --trace 0`` for each workload and seed twice: once
in a checkout of the base revision and once in this checkout (the
change), taking turns on which side runs first.  Host speed and layout
drift shift timings by more than many claimed gains, so a claim needs
pairs run close together rather than two separate sessions.  For every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles, the median ratio (change over base), how many pairs the change
won, and whether the change stays within the metric's bound, then writes
everything, every run included, to ``BENCH_<PR>.json`` at the root of
this checkout (keeping the workloads an earlier run against the same base
wrote there and this one does not measure).

Usage (from the root of a checkout)::

    python3 benchmarks/pairs.py --base REV --pr N
        [--workload NAME ...] [--seeds 1-5] [--seconds 25]
        [--base-checkout DIR]

The base is checked out into a temporary ``git worktree``, removed again
at the end; ``--base-checkout`` runs an existing checkout of ``REV``
instead.  Each run's output goes to ``perfbench/out`` in its checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    out = subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    )
    return out.stdout.strip()


@contextlib.contextmanager
def _base_checkout(rev: str, given: str | None):
    if given:
        yield os.path.abspath(given)
        return
    where = tempfile.mkdtemp(prefix="pairs-base-")
    _git("worktree", "add", "--detach", where, rev)
    try:
        yield where
    finally:
        _git("worktree", "remove", "--force", where)


def _seeds(text: str) -> list[int]:
    """``"1-5"`` or ``"1,4,9"`` (or both, comma-separated)."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its JSON result (the last line of its output)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": out.stderr.strip()[-2000:]}
    result["wall_s"] = round(time.monotonic() - t0, 1)
    return result


def _value(result: dict, name: str) -> float | None:
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the median ratio, the pairs the
    change won, and whether its median stays within the bound."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        both = [
            (b, c)
            for p in pairs
            if (b := _value(p["base"], name)) is not None
            and (c := _value(p["change"], name)) is not None
        ]
        if not both:
            continue
        base = _quartiles([b for b, _ in both])
        change = _quartiles([c for _, c in both])
        ratio = change[1] / base[1] if base[1] else float("nan")
        worse = (1 / ratio - 1) if higher else (ratio - 1)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "base_q1_median_q3": base,
            "change_q1_median_q3": change,
            "ratio": ratio,
            "wins": sum((c > b) if higher else (c < b) for b, c in both),
            "pairs": len(both),
            # The change's median beats the base's by more than the base's
            # interquartile range.
            "clear_of_base_iqr": abs(change[1] - base[1]) > base[2] - base[0]
            and ((change[1] > base[1]) == higher),
            "within_bound": worse <= m["bound"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the base revision")
    parser.add_argument(
        "--pr", type=int, required=True, help="writes BENCH_<PR>.json"
    )
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-5 or 1,4,9")
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--base-checkout", help="an existing checkout of --base")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = _seeds(args.seeds)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    report = {
        "base": _git("rev-parse", args.base),
        "change": _git("rev-parse", "HEAD")
        + ("+dirty" if _git("status", "--porcelain", "--untracked-files=no") else ""),
        "seconds": seconds,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}",
        "workloads": {},
    }
    if os.path.exists(path):
        # Keep what an earlier run against the same base measured.
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        if old.get("base") == report["base"]:
            report["workloads"] = old.get("workloads", {})
    with _base_checkout(args.base, args.base_checkout) as base_dir:
        k = 0
        for workload in workloads:
            pairs = []
            for seed in seeds:
                sides = {"base": base_dir, "change": ROOT}
                order = ["base", "change"] if k % 2 == 0 else ["change", "base"]
                k += 1
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(sides[side], workload, seed, seconds)
                pairs.append(pair)
                shown = {
                    side: {
                        "correct": pair[side].get("correct"),
                        **{
                            m["name"]: _value(pair[side], m["name"])
                            for m in bench["end_to_end"]
                        },
                    }
                    for side in ("base", "change")
                }
                print(workload, seed, json.dumps(shown), flush=True)
            report["workloads"][workload] = {
                "seeds": seeds,
                # Runs that were not correct or failed an operation.
                "bad_runs": {
                    side: sum(
                        not p[side].get("correct") or p[side].get("failed", 1) > 0
                        for p in pairs
                    )
                    for side in ("base", "change")
                },
                "summary": summarize(pairs, bench["end_to_end"]),
                "pairs": pairs,
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
    for workload, data in report["workloads"].items():
        bad = data["bad_runs"]
        print(
            f"\n{workload} ({len(data['pairs'])} pairs; runs not correct: "
            f"base {bad['base']}, change {bad['change']})"
        )
        for name, s in data["summary"].items():
            b, c = s["base_q1_median_q3"], s["change_q1_median_q3"]
            print(
                f"  {name:20} base {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]  "
                f"change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]  "
                f"x{s['ratio']:.3f}  wins {s['wins']}/{s['pairs']}  "
                f"{'within' if s['within_bound'] else 'OUTSIDE'} bound"
            )
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
