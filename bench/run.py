#!/usr/bin/env python3
"""Benchmark for semicover: forward, lemmas, finite and backward workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload forward --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --repeat 10 --seed 1          # every workload, 10 seeds

One run is one process, one thread and one request in flight (a closed
loop).  It generates the workload's inputs from the seed, runs whole rounds
of the request list until `--seconds` of wall time, 100 requests and two
rounds have passed, checks the first round's outputs with the independent
checks in checks.py (later rounds must repeat them byte for byte), and
prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time reported is scaled by a reference loop timed just before it
(see `reference_loop`), so that slow phases of the machine do not set the
figures.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` two untraced rounds are followed by traced rounds, and the
metrics are the per-layer ones from tracing.py.  A request fails when it raises, when its
output check fails, or when a later round's output differs from the
first's; `correct` is false when a completed request gave a wrong output.

`--repeat N` runs every workload N times, each in a fresh process with
seeds seed .. seed + N - 1, and prints the median, quartiles and spread of
every metric; the bounds in BENCHMARK.json were set from its output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, strftime

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOAD_NAMES = ("forward", "lemmas", "finite", "backward")
MIN_REQUESTS = 100
MIN_ROUNDS = 2
SETUP_LAUNCHES_FIRST = 5
SETUP_LAUNCHES_PER_ROUND = 2
UNTRACED_ROUNDS = 2
# The reference loop's time on the 2-core machine the figures in README.md
# come from, in its fast phases.  Every time the benchmark reports is scaled
# by REFERENCE_S over the reference loop's time measured just before it.
REFERENCE_S = 0.0011
IMPORT_PROGRAM = "import sys; sys.path.insert(0, 'src'); import semicover.cli"
END_TO_END = {"verdicts_per_s": "1/s", "verdict_p50_ms": "ms", "verdict_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def load_program(root: Path):
    """Import semicover from the checkout's own sources, never from an
    installed copy."""
    src = root / "src"
    if not (src / "semicover" / "__init__.py").is_file():
        raise SystemExit(f"error: no semicover sources under {src}")
    sys.path.insert(0, str(src))
    import semicover
    import semicover.cli  # noqa: F401  (binds semicover.cli)

    if Path(semicover.__file__).resolve().parent != (src / "semicover").resolve():
        raise SystemExit(f"error: imported semicover from {semicover.__file__}")
    return semicover


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop: integer arithmetic and dict
    stores, then a breadth-first search of a ball in Z^2 with tuple keys.
    It measures the machine's speed at this moment.

    The machine has slow phases, from seconds to minutes long, in which all
    code runs up to half as fast.  Over four minutes in which lemmas rounds
    varied by 58 % (IQR 26 %), their ratio to this loop varied by 8 % (IQR
    3 %), so a time scaled by it measures the program rather than the phase.
    """
    t0 = perf_counter()
    total, table = 0, {}
    for i in range(10_000):
        total += i * i
        table[i & 1023] = total
    seen = {(0, 0): 0}
    frontier = [(0, 0)]
    for step in range(1, 20):
        grown = []
        for x, y in frontier:
            for p in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if p not in seen:
                    seen[p] = step
                    grown.append(p)
        frontier = grown
    return perf_counter() - t0


def scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference


def launch_seconds(root: Path, count: int) -> list[float]:
    """Scaled wall times of `count` fresh interpreters importing the CLI."""
    times = []
    for _ in range(count):
        reference = reference_loop()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-I", "-c", IMPORT_PROGRAM], cwd=root, check=True)
        times.append(scaled(perf_counter() - t0, reference))
    return times


def _digest(code, text) -> bytes:
    return hashlib.blake2b(f"{code}\n{text}".encode(), digest_size=16).digest()


class Loop:
    """Whole rounds of one request list; keeps every request's scaled
    latencies, the wall time and scaled time of each round, the first
    round's outputs, and whether each later output repeats the first byte
    for byte."""

    def __init__(self, requests):
        self.requests = requests
        self.first: list[tuple] = []
        self.digests: list[bytes] = []
        self.samples: list[list[float]] = [[] for _ in requests]
        self.walls: list[float] = []
        self.round_times: list[float] = []
        self.mismatches = 0
        self.report_bytes = 0
        self._last_reference = float("inf")

    @property
    def rounds(self) -> int:
        return len(self.walls)

    @property
    def attempted(self) -> int:
        return self.rounds * len(self.requests)

    def round(self, tracer=None) -> None:
        start = perf_counter()
        round_time = 0.0
        for i, req in enumerate(self.requests):
            # the smaller of this and the previous reference time, so that
            # one interrupted reference loop does not shrink a latency
            measured = reference_loop()
            reference = min(measured, self._last_reference)
            self._last_reference = measured
            if tracer is not None:
                tracer.begin_request(scaled(1.0, reference))
            t0 = perf_counter()
            try:
                code, text = req.run()
            except Exception as exc:  # a crash is a failed request, not a dead run
                code, text = None, f"{type(exc).__name__}: {exc}"
            latency = scaled(perf_counter() - t0, reference)
            self.samples[i].append(latency)
            round_time += latency
            self.report_bytes += len(text)
            if self.rounds == 0:
                self.first.append((code, text))
                self.digests.append(_digest(code, text))
            elif _digest(code, text) != self.digests[i]:
                self.mismatches += 1
        self.walls.append(perf_counter() - start)
        self.round_times.append(round_time)

    def end_to_end(self) -> dict:
        """A request's time to verdict is the median of its scaled
        repetitions, and p50 and p90 are taken over requests; throughput is
        the requests of one round per second of scaled request time, median
        over rounds."""
        per_request = [statistics.median(s) for s in self.samples]
        return {
            "verdicts_per_s": len(self.requests) / statistics.median(self.round_times),
            "verdict_p50_ms": statistics.median(per_request) * 1000,
            "verdict_p90_ms": statistics.quantiles(per_request, n=10)[8] * 1000,
        }


def check_outputs(loop: Loop, check, seed: int) -> tuple[int, int, list[str]]:
    """Requests of the first round that crashed, requests whose output is
    wrong, and the problems found."""
    rng = random.Random(f"check-{seed}")
    crashed = wrong = 0
    problems = []
    for req, (code, text) in zip(loop.requests, loop.first):
        if code is None:
            crashed += 1
            problems.append(f"{req.label}: {text}")
            continue
        try:
            found = check(req.meta, code, text, rng)
        except (KeyError, TypeError, ValueError) as exc:
            found = [f"malformed output: {exc!r}"]
        if found:
            wrong += 1
            problems.append(f"{req.label}: {'; '.join(found[:3])}")
    return crashed, wrong, problems


def run_once(args) -> int:
    root = Path.cwd()
    sc = load_program(root)
    import workloads

    build, check = workloads.WORKLOADS[args.workload]
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        requests = build(sc, random.Random(args.seed), workdir)
        loop = Loop(requests)
        if args.trace:
            import tracing

            for _ in range(UNTRACED_ROUNDS):
                loop.round()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                bytes_before = loop.report_bytes
                while (loop.rounds == UNTRACED_ROUNDS
                       or sum(loop.walls[UNTRACED_ROUNDS:]) < args.seconds):
                    loop.round(tracer)
            finally:
                tracer.uninstall()
            overhead = (statistics.median(loop.round_times[UNTRACED_ROUNDS:])
                        / statistics.median(loop.round_times[:UNTRACED_ROUNDS]))
            metrics = tracer.metrics(loop.report_bytes - bytes_before, overhead)
            trace_dir = root / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            # set-up launches before the first round and between rounds, so
            # that their median is not set by one phase of the machine
            launches = launch_seconds(root, SETUP_LAUNCHES_FIRST)
            while (sum(loop.walls) < args.seconds or loop.attempted < MIN_REQUESTS
                   or loop.rounds < MIN_ROUNDS):
                loop.round()
                launches += launch_seconds(root, SETUP_LAUNCHES_PER_ROUND)
            setup = statistics.median(launches)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {**loop.end_to_end(), "setup_s": setup, "peak_rss_mb": peak_kb / 1024}
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    crashed, wrong, problems = check_outputs(loop, check, args.seed)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = loop.attempted
    failed = (crashed + wrong) * loop.rounds + loop.mismatches
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} requests {attempted} in {loop.rounds} rounds of "
          f"{len(loop.requests)}, failed {failed}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# -- repeat mode -------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args) -> int:
    root = Path.cwd()
    bounds = {}
    spec = root / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m.get("bound") for m in json.loads(spec.read_text())["end_to_end"]}
    summary = {}
    for name in WORKLOAD_NAMES:
        runs = []
        for i in range(args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{name} seed {args.seed + i}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", flush=True)
        rows = {}
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "unit": runs[0]["metrics"][metric]["unit"], "values": vals}
            bound = bounds.get(metric)
            mark = "" if bound is None else f"  bound {bound}" + \
                ("" if spread < bound / 3 else "  SPREAD ABOVE A THIRD OF BOUND")
            print(f"  {name:9s} {metric:40s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}{mark}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  {name:9s} failed share per run: {sorted(shares)}", flush=True)
        summary[name] = {"metrics": rows, "failed_shares": sorted(shares),
                         "correct": all(r["correct"] for r in runs)}
    out_dir = root / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"repeat-trace{args.trace}-{strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seed": args.seed, "repeat": args.repeat,
                                "seconds": args.seconds, "workloads": summary}, indent=1))
    print(f"wrote {path.relative_to(root)}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="runs per workload (repeat mode)")
    args = p.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload is None:
        p.error("--workload is required unless --repeat is given")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
