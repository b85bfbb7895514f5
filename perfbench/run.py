"""Benchmark for the rascent CLI.

    python3 perfbench/run.py --workload avoid-count --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With `--trace 0` every command runs as
its users run it: a fresh interpreter per command with PYTHONPATH=src,
one process at a time, so every memo cache starts cold.  The run repeats
the workload's commands (in seeded order, reversed on every other pass)
until `--seconds` is spent, and reports the end-to-end metrics, with
every time scaled by a fixed reference program timed alongside (see
REFERENCE_ENTRY).  With
`--trace 1` each command is replayed in-process traced, untraced and
traced again (see layers.py), and the per-layer metrics are reported.

Every output is checked against values held in workloads.py.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Raw samples, the host record and the trace spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import TABLE_PATTERNS, WORKLOADS, Workload, check_output, expected_leaves

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
# What the installed `rascent` console script runs.
CLI_ENTRY = "import sys; from rascent.cli import main; sys.exit(main())"
# wait4's ru_maxrss also counts the spawning process's own peak (Linux
# carries it across exec), so each command reports its VmHWM on stderr.
PEAK_MARKER = b"\nperfbench-peak-kb "
PEAK_HOOK = """
import atexit, os
def _report_peak():
    with open("/proc/self/status", "rb") as status:
        for line in status:
            if line.startswith(b"VmHWM:"):
                os.write(2, b"\\nperfbench-peak-kb " + line.split()[1] + b"\\n")
atexit.register(_report_peak)
"""
SETUP_ENTRY = "import os, rascent.cli; os.write(1, b'.')"
# A fixed pure-Python program (no rascent import) timed in a fresh
# interpreter before every command: the host's speed drifts by tens of
# percent over minutes, and the program's times move with it.  Every time
# metric is scaled by REFERENCE_NOMINAL_S / (median reference time of the
# run), i.e. reported in seconds on a host where the reference takes
# REFERENCE_NOMINAL_S.  The unscaled values stay in the results record.
REFERENCE_ENTRY = """
import os
def ascent_sequences(length, ascents, last, n):
    if length == n:
        return 1
    return sum(ascent_sequences(length + 1, ascents + (v > last), v, n) for v in range(ascents + 2))
os.write(1, b"%d" % ascent_sequences(1, 0, 0, 10))
"""
REFERENCE_OUTPUT = b"201608"  # ascent sequences of length 10
REFERENCE_NOMINAL_S = 0.2
SETUP_REPEATS = 10  # at the start; one more follows every pass
HARD_LIMIT_S = 170.0  # every run must end within 180 s

perf = time.perf_counter


@dataclass
class Sample:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    first_byte_s: float
    rss_mb: float
    lines: int
    code: int
    timed_out: bool
    error: str | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(entry: str, argv: tuple[str, ...], timeout_s: float) -> tuple[Sample, bytes]:
    """Run one fresh interpreter; kill it if it outlives timeout_s."""
    t0 = perf()
    proc = subprocess.Popen([sys.executable, "-c", entry, *argv], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = bytearray(), bytearray()
    first = None
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            remaining = t0 + timeout_s - perf()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, 1 << 20)
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                if first is None and key.data is out:
                    first = perf()
                key.data.extend(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    end = perf()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    err, marker, peak = bytes(err).rpartition(PEAK_MARKER)
    if not marker:
        err = peak
    sample = Sample(
        argv=argv, wall_s=end - t0, cpu_s=usage.ru_utime + usage.ru_stime,
        first_byte_s=(first if first is not None else end) - t0,
        rss_mb=(int(peak) if marker else usage.ru_maxrss) / 1024, lines=out.count(b"\n"),
        code=proc.returncode, timed_out=timed_out,
    )
    if not timed_out and proc.returncode != 0:
        sample.error = f"exit {proc.returncode}: {err.decode(errors='replace').strip()[-300:]}"
    return sample, bytes(out)


def run_checked(argv, seed: int, timeout_s: float) -> Sample:
    sample, out = spawn(PEAK_HOOK + CLI_ENTRY, argv, timeout_s)
    if sample.timed_out:
        sample.error = f"no result within {timeout_s:.0f} s"
    elif sample.error is None:
        sample.error = check_output(argv, out, random.Random(f"{seed}:{' '.join(argv)}"))
    return sample


def measure_reach(workload: Workload, seed: int, hard_end: float) -> tuple[int, list[Sample]]:
    """Probe upward; reach is the last n that finished inside the budget."""
    reach, probes = workload.reach, []
    best = reach.start - 1
    for n in range(reach.start, reach.limit + 1):
        budget = min(reach.budget_s, hard_end - perf())
        sample = run_checked(reach.argv(n), seed, budget)
        probes.append(sample)
        if sample.timed_out or sample.error is not None:
            break
        best = n
    return best, probes


def host_record() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_before": os.getloadavg()}


def timed_run(workload: Workload, seed: int, seconds: float, record: dict) -> tuple[dict, list[Sample]]:
    start = perf()
    hard_end = start + HARD_LIMIT_S
    deadline = start + seconds
    spawn(SETUP_ENTRY, (), HARD_LIMIT_S)  # fills __pycache__, as an install does

    def setup() -> None:
        setups.append(spawn(SETUP_ENTRY, (), HARD_LIMIT_S)[0].first_byte_s)

    def reference() -> None:
        sample, out = spawn(REFERENCE_ENTRY, (), HARD_LIMIT_S)
        if out != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference program printed {out[:40]!r}: {sample.error}")
        refs.append(sample.wall_s)

    setups: list[float] = []
    refs: list[float] = []
    for _ in range(SETUP_REPEATS):
        setup()
    reach, probes = measure_reach(workload, seed, hard_end)
    probes = [p for p in probes if not p.timed_out]  # a probe past the budget is no failure

    order = list(workload.commands)
    random.Random(seed).shuffle(order)
    samples: dict[tuple[str, ...], list[Sample]] = {argv: [] for argv in order}
    passes = 0
    while True:
        ran = False
        for argv in order if passes % 2 == 0 else reversed(order):
            past = samples[argv]
            if past and perf() + statistics.median(s.wall_s for s in past) > deadline:
                continue
            reference()
            past.append(run_checked(argv, seed, hard_end - perf()))
            ran = True
        setup()  # one per pass, so that drift in host speed averages out
        passes += 1
        if not ran or perf() >= deadline:
            break

    def total(field: str) -> float:
        return sum(statistics.median(getattr(s, field) for s in runs) for runs in samples.values())

    speed = REFERENCE_NOMINAL_S / statistics.median(refs)
    wall = total("wall_s")
    lines = sum(runs[0].lines for runs in samples.values())
    every = [s for runs in samples.values() for s in runs]
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": total("cpu_s"),
        "first_line_s": total("first_byte_s"),
    }
    metrics = {name: (value * speed, "s") for name, value in raw.items()}
    metrics.update({
        "words_per_s": (lines / (wall * speed), "1/s"),
        "peak_rss_mb": (max(s.rss_mb for s in every), "MB"),
        "reach_n": (reach, "n"),
    })
    record["per_command"] = [
        {"argv": " ".join(argv), "samples": len(runs),
         "median_wall_s": statistics.median(s.wall_s for s in runs),
         "max_wall_s": max(s.wall_s for s in runs)}
        for argv, runs in samples.items()]
    record.update(passes=passes, unscaled=raw, speed=speed, reference_samples=refs, setup_samples=setups,
                  reach_probes=[asdict(p) for p in probes],
                  samples=[asdict(s) for s in every])
    return metrics, every + probes


def traced_run(workload: Workload, seed: int, record: dict) -> tuple[dict, list, list[str]]:
    sys.path.insert(0, str(ROOT / "src"))
    import layers

    order = list(workload.commands)
    random.Random(seed).shuffle(order)
    first, plain, second = layers.Replay(layers.Tracer()), layers.Replay(), layers.Replay(layers.Tracer())
    for argv in order:
        # untraced between two traced runs of the same command, so that
        # drift in host speed cancels out of the overhead ratio
        for replay in (first, plain, second):
            replay.run(argv)
    problems = []
    outcomes = []
    for replay in (plain, first, second):
        for c in replay.commands:
            error = f"exit {c.code}" if c.code != 0 else check_output(
                c.argv, c.stdout, random.Random(f"{seed}:{' '.join(c.argv)}"))
            outcomes.append(error and f"{' '.join(c.argv)}: {error}")
    counters, again = layers.exact_counters(first), layers.exact_counters(second)
    if counters != again:
        differ = sorted(k for k in counters.keys() | again.keys() if counters.get(k) != again.get(k))
        problems.append(f"exact counters differ between traced replays: {differ[:5]}")
    for span in first.tracer.spans:
        if span.name == "words.search_family":
            e = span.extra
            want = expected_leaves(e["family"], e["pattern"], e["filtered"], e["n"])
            if want is not None and e["leaves"] != want:
                problems.append(f"{e} reached {e['leaves']} leaves, expected {want}")
    metrics = layers.layer_metrics(plain, first, second, TABLE_PATTERNS + ("111",))
    record.update(wall_s={"untraced": plain.wall_s, "traced": [first.wall_s, second.wall_s]},
                  exact_counters={k: list(v) if isinstance(v, tuple) else v
                                  for k, v in counters.items()})
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{workload.name}-seed{seed}-spans.jsonl", "w") as fh:
        for span in first.tracer.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    return metrics, outcomes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/rascent/cli.py", "tests/reference.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} is missing; run from the root of a rascent checkout",
                  file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **host_record()}
    if args.trace:
        metrics, outcomes, problems = traced_run(workload, args.seed, record)
        errors = [e for e in outcomes if e is not None]
        attempted = len(outcomes)
    else:
        metrics, samples = timed_run(workload, args.seed, args.seconds, record)
        problems = []
        errors = [f"{' '.join(s.argv)}: {s.error}" for s in samples if s.error is not None]
        attempted = len(samples)
    record["loadavg_after"] = os.getloadavg()
    record["errors"] = errors + problems
    record["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for message in errors + problems:
        print(f"FAIL  {message}")
    for row in record.get("per_command", ()):
        print(f"{row['argv']:60s} n={row['samples']:<3d} median {row['median_wall_s']:8.3f} s"
              f"  max {row['max_wall_s']:8.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
