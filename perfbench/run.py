"""Benchmark of morseshell: one seeded workload, measured closed-loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a morseshell checkout; the package is imported from
its ``src`` directory, not from an installed copy.  Items run one after
another in this process, with no threads, until ``--seconds`` have passed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (tail percentile, sample counts, failures, digest checks, host
noise).  Metric names and units come from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
item once untraced and once with a span around each library call, plus
per-layer probes, and reports the per-layer metrics; its spans are written
to ``perfbench/out/``.  Each item's canonical output is hashed; the
digest must not change when items are replayed at the end of the run, nor
between runs on the same inputs in one checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# fresh set-up interpreters before the timed loop and after it, so that
# setup_s samples the host at both ends of the run
SETUP_REPEATS = (6, 5)
# after the timed loop, replay items for this share of --seconds (at least one)
REPLAY_SHARE = 0.05
# items whose digests are kept per workload and seed, to compare across runs
DIGESTS_KEPT = 64
# items_per_s and item_p50_s are taken per window of this many seconds
WINDOW_S = 1.0


def digest(canonical) -> str:
    data = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def read_noise() -> dict:
    """Host load and CPU tick counters, read-only from /proc."""
    out: dict = {}
    try:
        out["loadavg"] = Path("/proc/loadavg").read_text().split()[:3]
        cpu = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        out["cpu_ticks"] = [int(x) for x in cpu[1:9]]
    except (OSError, ValueError):
        pass
    return out


def noise_record(before: dict, after: dict) -> dict:
    rec = {"loadavg_before": before.get("loadavg"),
           "loadavg_after": after.get("loadavg")}
    if "cpu_ticks" in before and "cpu_ticks" in after:
        delta = [b - a for a, b in zip(before["cpu_ticks"], after["cpu_ticks"])]
        rec["steal_ticks"] = delta[7]
        rec["steal_share"] = delta[7] / sum(delta) if sum(delta) else 0.0
    return rec


def windows(ends: list[float], latencies: list[float]) -> list[list[float]]:
    """The item latencies of the run cut into consecutive windows of at
    least WINDOW_S seconds each, from the start of a window's first item
    to the end of its last.  An item longer than that is its window's only
    item; a shorter remainder at the end joins the last window."""
    out: list[list[float]] = [[]]
    start = 0.0
    for end, seconds in zip(ends, latencies):
        if not out[-1]:
            start = end - seconds
        out[-1].append(seconds)
        if end - start >= WINDOW_S:
            out.append([])
    rest = out.pop()
    if out:
        out[-1].extend(rest)
    else:
        out.append(rest)
    return out


def quartile(values: list[float], upper: bool) -> float:
    if len(values) == 1:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 if upper else q1


def window_stats(ends: list[float],
                 latencies: list[float]) -> tuple[list[float], list[float]]:
    """Items per second of item time and median latency of each window.
    The run's items_per_s is the lower quartile of the first, its
    item_p50_s the upper quartile of the second.

    The host's speed moves between a fast and a slow mode, each lasting
    seconds, and most of the time it is slow; within one window it is
    about constant.  Statistics over the whole run move with the share of
    the run spent in each mode, and a whole-run median jumps from one mode
    to the other as that share crosses one half.  The slower quartile of
    the windows is in the slow mode in every run that spends a quarter of
    its time there.
    """
    ws = windows(ends, latencies)
    rates = [len(w) / sum(w) for w in ws]
    medians = [statistics.median(w) for w in ws]
    return rates, medians


def tail(latencies: list[float], p50: float) -> tuple[float, float]:
    """(percentile, latency) at the highest percentile with ten items
    beyond it; below 20 items no percentile above the median has ten
    beyond it, and the median p50 is reported."""
    n = len(latencies)
    if n < 20:
        return 50.0, p50
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


class Run:
    """One benchmark run: the items attempted, their latencies, failures
    and digests."""

    def __init__(self, workload, seconds: float) -> None:
        self.wl = workload
        self.seconds = seconds
        self.latencies: list[float] = []
        # perf_counter at the end of each item, to cut the run into windows
        self.ends: list[float] = []
        self.failed: set[int] = set()
        self.messages: list[str] = []
        self.digests: dict[int, str] = {}
        self.input_keys: dict[int, str] = {}

    def fail(self, i: int, exc: BaseException) -> None:
        self.failed.add(i)
        if len(self.messages) < 5:
            self.messages.append(f"item {i}: " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip())

    def attempt(self, i: int, inp, tracer):
        """Run item i once; return (seconds, result or None).

        Garbage left by earlier items is collected first, so that every
        item starts from the same collector state and its time does not
        depend on what ran before it.
        """
        gc.collect()
        t0 = time.perf_counter()
        try:
            res = self.wl.run(inp, tracer)
        except Exception as exc:  # a failed item is recorded, the run goes on
            self.fail(i, exc)
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, res

    def checked_digest(self, i: int, inp, res) -> str | None:
        try:
            return digest(self.wl.check(inp, res))
        except Exception as exc:  # a failed check is recorded, the run goes on
            self.fail(i, exc)
            return None

    def measure(self, i: int, inp, null) -> tuple[float, str | None]:
        """Run, check and record item i untraced; return its time and
        digest.  The result is dropped on return, before the next item."""
        seconds, res = self.attempt(i, inp, null)
        self.ends.append(time.perf_counter())
        d = None if res is None else self.checked_digest(i, inp, res)
        self.latencies.append(seconds)
        if d is not None:
            self.digests[i] = d
            if i < DIGESTS_KEPT:
                self.input_keys[i] = hashlib.sha256(repr(inp).encode()).hexdigest()
        return seconds, d

    def timed(self, null) -> None:
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < self.seconds:
            self.measure(i, self.wl.inputs(i), null)
            i += 1

    def traced(self, null, tracer) -> list[float]:
        """Each item untraced, then traced, then its probes; returns the
        traced-minus-untraced time per item."""
        overhead = []
        start = time.perf_counter()
        i = 0
        while i < self.wl.fixed_items or time.perf_counter() - start < self.seconds:
            extra = self.traced_item(i, null, tracer)
            if extra is not None:
                overhead.append(extra)
            i += 1
        tracer.item = None
        return overhead

    def traced_item(self, i: int, null, tracer) -> float | None:
        inp = self.wl.inputs(i)
        seconds, d = self.measure(i, inp, null)
        tracer.item = i
        with tracer.span("item"):
            traced_seconds, res = self.attempt(i, inp, tracer)
        if res is None:
            return None
        if self.checked_digest(i, inp, res) != d:
            self.fail(i, RuntimeError("traced output differs"))
        try:
            self.wl.trace_extra(i, inp, res, tracer)
            if i < self.wl.fixed_items:
                self.wl.count(inp, res)
        except Exception as exc:  # recorded, the run goes on
            self.fail(i, exc)
        return traced_seconds - seconds

    def replay(self, null) -> int:
        """Replay items in order for a share of the run; a changed digest
        fails the item.  Returns the number replayed."""
        start = time.perf_counter()
        replayed = 0
        for i in sorted(self.digests):
            if replayed and time.perf_counter() - start >= REPLAY_SHARE * self.seconds:
                break
            self.replay_item(i, null)
            replayed += 1
        return replayed

    def replay_item(self, i: int, null) -> None:
        inp = self.wl.inputs(i)
        _, res = self.attempt(i, inp, null)
        if res is not None and self.checked_digest(i, inp, res) != self.digests[i]:
            self.fail(i, RuntimeError("digest changed on replay"))

    def compare_stored(self, path: Path) -> int:
        """Compare digests with earlier runs on the same inputs, and keep
        the first few for later runs.  Returns the number compared."""
        stored = json.loads(path.read_text()) if path.exists() else {}
        compared = 0
        for i, key in self.input_keys.items():
            if key not in stored:
                stored[key] = self.digests[i]
                continue
            compared += 1
            if stored[key] != self.digests[i]:
                self.fail(i, RuntimeError("digest differs from an earlier run"))
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, sort_keys=True))
        os.replace(tmp, path)
        return compared


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import the package and
    generate the workload's inputs."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: " + proc.stderr.decode()[-2000:])
    return times


def per_layer(tracer, wl, overhead: list[float]) -> dict[str, float]:
    """Median self time per span name, the workload's counts and its own
    layer metrics, and the tracing overhead."""
    values = {f"{name}_s": s for name, s in tracer.median_self_times().items()
              if name != "item"}
    values.update(wl.counters)
    values.update(wl.layer_metrics(tracer))
    values["trace.overhead_s"] = statistics.median(overhead) if overhead else 0.0
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "morseshell" / "__init__.py").is_file():
        print(f"error: no morseshell package under {SRC}; run from the root"
              " of a morseshell checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import NullTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl = make(args.seed, ROOT)
        try:
            for i in range(wl.fixed_items):
                wl.inputs(i)
        finally:
            wl.close()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = workloads.OUT
    out.mkdir(exist_ok=True)
    noise_before = read_noise()
    setup = measure_setup(args.workload, args.seed, SETUP_REPEATS[0])
    wl = make(args.seed, ROOT)
    run = Run(wl, args.seconds)
    tracer = Tracer()
    # what exists now lives for the whole run; keep it out of collections
    gc.freeze()
    try:
        if args.trace:
            overhead = run.traced(NullTracer(), tracer)
        else:
            run.timed(NullTracer())
        replayed = run.replay(NullTracer())
        peak_kib = wl.peak_rss_kib()
    finally:
        wl.close()
    setup += measure_setup(args.workload, args.seed, SETUP_REPEATS[1])
    tag = f"{args.workload}-{args.seed}"
    (out / "digests").mkdir(exist_ok=True)
    compared = run.compare_stored(out / "digests" / f"{tag}.json")
    noise = noise_record(noise_before, read_noise())

    n = len(run.latencies)
    rates, medians = window_stats(run.ends, run.latencies)
    p50 = quartile(medians, upper=True)
    percentile, tail_s = tail(run.latencies, p50)
    if args.trace:
        tracer.write(out / f"spans-{tag}.jsonl")
        values = per_layer(tracer, wl, overhead)
        section = spec["per_layer"]
    else:
        values = {"items_per_s": quartile(rates, upper=False)
                                 * (n - len(run.failed)) / n,
                  "item_p50_s": p50,
                  "item_tail_s": tail_s,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_kib / 1024}
        section = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}

    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "items": n,
              "tail_percentile": percentile, "tail_samples": n,
              "windows": len(medians),
              "run_items_per_s": n / sum(run.latencies),
              "run_median_s": statistics.median(run.latencies),
              "fail_ratio": len(run.failed) / n, "failures": run.messages,
              "replayed": replayed, "digests_compared": compared,
              "setup_samples_s": setup, "noise": noise}
    with open(out / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(detail | {"metrics": metrics,
                                      "window_rates": rates,
                                      "window_medians_s": medians,
                                      "latencies_s": run.latencies[:500]}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not run.failed, "attempted": n,
                      "failed": len(run.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
