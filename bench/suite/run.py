#!/usr/bin/env python3
"""The repository benchmark: builds bench/suite, generates its inputs, runs
the four workloads one fresh process per repetition, checks every output,
and reports each metric as median, p25/p75 and n.

One workload, time-boxed (the form BENCHMARK.json names):

    python3 bench/suite/run.py --workload nas-lu16 --seed 7 --seconds 28 --trace 0

repeats the workload while another repetition still fits in --seconds (at
least twice), samples the set-up after each repetition on every CPU, and
prints, as the last line of stdout, {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1
(untraced and traced repetitions alternate; the per-layer numbers come from
the traced ones). Build and progress output go to stderr.

The whole suite:

    python3 bench/suite/run.py [--seed N] [--out FILE]
        5 repetitions per workload, interleaved across workloads, then one
        traced run each; prints every metric and writes a results JSON with
        a host block (default build/bench-suite/results.json)
    python3 bench/suite/run.py --traced      only the traced runs (plus one
                                             untraced each, for the overhead)
    python3 bench/suite/run.py --smoke       tiny sizes; every code path,
                                             traced run and --compare included
    python3 bench/suite/run.py --compare BASE NEW
                                             labels each metric better, worse,
                                             unchanged or unresolved; exits 1
                                             if any is worse
    python3 bench/suite/run.py --merge A B --out FILE
                                             pools result files into one
    python3 bench/suite/run.py --update-goldens
                                             rewrites goldens.json from this
                                             run (default seed only)

Exits 1, printing no result, when a repetition cannot run at all (for
example outside the repository, where nothing can be built).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NoReturn

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / "build" / "bench-suite"
BINARY = BUILD / "bench_suite"
GOLDENS = SUITE / "goldens.json"

DEFAULT_SEED = 2003
# Repetitions per workload of the whole suite (of --smoke).
REPETITIONS = 5
SMOKE_REPETITIONS = 2
# Bounds on the repetitions of the time-boxed form.
MIN_REPS = 2
MAX_REPS = 50
REP_TIMEOUT_S = 150
# Workloads whose inputs `bench_suite generate` writes before they run.
WITH_INPUTS = ("replay-lu16", "serve-32k")

# BENCHMARK.json names the workloads, the end-to-end metrics every workload
# reports (with their bounds: the share of the base median a metric may
# worsen by) and the per-layer metrics of the traced run.
try:
    BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
except (OSError, json.JSONDecodeError) as err:
    sys.exit(f"run.py: cannot read {ROOT / 'BENCHMARK.json'}: {err}")
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
CONTRACT_END_TO_END = tuple(m["name"] for m in BENCHMARK["end_to_end"])
# End-to-end metrics: name -> (unit, better, bound, workloads; None = all).
# Those beyond BENCHMARK.json's belong to one workload and are compared by
# --compare only.
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"], None)
              for m in BENCHMARK["end_to_end"]}
END_TO_END.update({
    "events_per_s": ("events/s", "higher", 0.08, ("serve-32k",)),
    "feed_p50_us": ("us", "lower", 0.10, ("serve-32k",)),
    "feed_p99_us": ("us", "lower", 0.15, ("serve-32k",)),
    "sim_speedup_pct": ("%", "higher", 0.0, ("adaptive-cg16",)),
    "error_rate": ("failed/attempted", "lower", 0.0, None),
})
# Pure functions of the seed: with equal seeds --compare demands equality.
DETERMINISTIC = {"sender_hit_pct", "sim_speedup_pct", "error_rate"}
# Per-layer metrics: name -> (unit, better). A bypassed layer reports 0.
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}

# A process keeps the speed of the CPU it lands on, and on a shared host
# some CPUs run the same code 1.5x slower than others. So each set-up sample
# is the fastest of one set-up-only process pinned to each usable CPU: the
# program's set-up cost on an uncontended core at that moment.
CPUS = sorted(os.sched_getaffinity(0))


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def die(msg: str) -> NoReturn:
    log(f"run.py: {msg}")
    sys.exit(1)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return p25, statistics.median(values), p75


# --------------------------------------------------------------- building


def build() -> None:
    """Builds the driver (Release) against the library of this checkout."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"{ROOT} holds no mpipred sources to build the benchmark against")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(SUITE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, check=False).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"], stdout=sys.stderr,
                      check=False).returncode != 0:
        die("build failed")


class Inputs:
    """The inputs of `workloads` for one seed, generated once into a
    private directory under the build tree and removed afterwards."""

    def __init__(self, seed: int, smoke: bool, workloads: tuple[str, ...]):
        self.path = None
        needed = [w for w in workloads if w in WITH_INPUTS]
        if needed:
            self.path = Path(tempfile.mkdtemp(prefix="inputs-", dir=BUILD))
        for w in needed:
            cmd = [str(BINARY), "generate", "--workload", w, "--seed", str(seed),
                   "--inputs", str(self.path)]
            if smoke:
                cmd.append("--smoke")
            if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
                self.close()
                die(f"{w}: input generation failed")

    def close(self) -> None:
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)
            self.path = None


def run_rep(workload: str, seed: int, smoke: bool, inputs: Inputs,
            trace_out: Path | None = None, setup_only: bool = False,
            cpu: int | None = None) -> dict | None:
    """One repetition in a fresh process (pinned to `cpu` if given); None
    when it failed to report."""
    cmd = [str(BINARY), "run", "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if inputs.path is not None:
        cmd += ["--inputs", str(inputs.path)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S,
                              check=False, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        log(f"{workload}: repetition timed out after {REP_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: repetition exited {proc.returncode}")
        return None
    rep = json.loads(lines[-1])
    for failure in rep["failures"]:
        log(f"{workload}: check failed: {failure}")
    return rep


# ----------------------------------------------------------------- checks


class Tally:
    """Correctness checks: every one attempted, every false one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            log(f"check failed: {what}")


def check_reps(workload: str, seed: int, smoke: bool, reps: list[dict | None],
               setups: list[dict | None], tally: Tally) -> None:
    """Folds the driver's own checks in and adds the runner's: every
    process reported, the repetitions agree on their fingerprint, and it
    matches goldens.json: the whole fingerprint at the default seed, the
    logical-level one (a pure function of the program) at every seed."""
    for r in reps + setups:
        tally.check(r is not None, f"{workload}: a process failed to report")
    runs = [r for r in reps if r is not None]
    for r in runs:
        tally.attempted += r["attempted"]
        tally.failures += [f"{workload}: {f}" for f in r["failures"]]
    for r in runs[1:]:
        tally.check(r["fingerprint"] == runs[0]["fingerprint"],
                    f"{workload}: repetitions disagree on their outputs")
    if not runs:
        return
    goldens = load_goldens()
    key = golden_key(workload, smoke)
    for name, field, applies in (("", "fingerprint", seed == DEFAULT_SEED),
                                 ("/logical", "logical_fingerprint", True)):
        golden = goldens.get(key + name)
        if applies and golden is not None:
            tally.check(runs[0][field] == golden, f"{workload}: {field} differs from "
                        f"goldens.json ({runs[0][field]} != {golden})")


def setup_sample(workload: str, seed: int, smoke: bool, inputs: Inputs) -> list[dict | None]:
    """One set-up-only process pinned to each usable CPU; the fastest of
    them is one setup_s sample."""
    return [run_rep(workload, seed, smoke, inputs, setup_only=True, cpu=c) for c in CPUS]


def golden_key(workload: str, smoke: bool) -> str:
    return workload + ("@smoke" if smoke else "")


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}


def metric_values(reps: list[dict], setups: list[list[dict | None]]) -> dict[str, list[float]]:
    """Each end-to-end metric's samples: one per repetition, and for
    setup_s, which only set-up-only processes report, the fastest process
    of each set-up sample."""
    values = {}
    for name in END_TO_END:
        samples = [r.get(name, r["extra"].get(name)) for r in reps]
        if samples and None not in samples:
            values[name] = samples
    fastest = [min(r["setup_s"] for r in sample if r is not None)
               for sample in setups if any(sample)]
    if fastest:
        values["setup_s"] = fastest
    return values


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer medians over the traced repetitions, 0 for a layer the
    workload bypasses, plus the tracing overhead against untraced runs."""
    out = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
           for name in PER_LAYER if name != "tracing_overhead_pct"}
    plain = statistics.median(r["wall_s"] for r in untraced)
    out["tracing_overhead_pct"] = 100.0 * (out["traced_wall_s"] - plain) / plain
    return out


# ---------------------------------------------------- one workload, timed


def contract_run(args: argparse.Namespace) -> int:
    build()
    inputs = Inputs(args.seed, args.smoke, (args.workload,))
    reps: list[dict | None] = []
    setups: list[list[dict | None]] = []
    traced_flags: list[bool] = []
    try:
        start = time.monotonic()
        durations: list[float] = []
        while True:
            traced = args.trace == 1 and len(reps) % 2 == 1
            trace_out = BUILD / f"trace-{args.workload}.json" if traced else None
            t0 = time.monotonic()
            reps.append(run_rep(args.workload, args.seed, args.smoke, inputs, trace_out))
            traced_flags.append(traced)
            if args.trace == 0:
                setups.append(setup_sample(args.workload, args.seed, args.smoke, inputs))
            durations.append(time.monotonic() - t0)
            # Another repetition starts only if one still fits in --seconds.
            fits = time.monotonic() - start + statistics.median(durations) <= args.seconds
            if len(reps) >= MAX_REPS or (len(reps) >= MIN_REPS and not fits):
                break
    finally:
        inputs.close()

    tally = Tally()
    check_reps(args.workload, args.seed, args.smoke, reps, sum(setups, []), tally)
    untraced = [r for r, t in zip(reps, traced_flags) if r is not None and not t]
    traced = [r for r, t in zip(reps, traced_flags) if r is not None and t]
    if not untraced or (args.trace == 1 and not traced):
        die(f"{args.workload}: no repetition reported")
    if args.trace == 1:
        metrics = {name: {"value": v, "unit": PER_LAYER[name][0]}
                   for name, v in layer_metrics(traced, untraced).items()}
    else:
        values = metric_values(untraced, setups)
        if any(name not in values for name in CONTRACT_END_TO_END):
            die(f"{args.workload}: no set-up sample reported")
        metrics = {name: {"value": statistics.median(values[name]), "unit": END_TO_END[name][0]}
                   for name in CONTRACT_END_TO_END}
    log(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced repetitions "
        f"in {time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


# ------------------------------------------------------------ whole suite


def repetitions(args: argparse.Namespace) -> int:
    """Untraced repetitions per workload; --traced needs only one, for the
    tracing overhead."""
    if args.traced:
        return 1
    return SMOKE_REPETITIONS if args.smoke else REPETITIONS


def host_block(args: argparse.Namespace) -> dict:
    info = json.loads(subprocess.run([str(BINARY), "host"], stdout=subprocess.PIPE, text=True,
                                     check=True).stdout)
    cpu = platform.processor()
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, check=False).stdout.strip() or sha
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "compiler": info["compiler"], "build_type": info["build_type"], "git_sha": sha,
            "seed": args.seed, "repetitions": repetitions(args), "smoke": args.smoke}


def summarize(workload: str, reps: list[dict], setups: list[list[dict | None]], traced: dict,
              tally: Tally) -> dict:
    samples = metric_values(reps, setups)
    samples["error_rate"] = [len(tally.failures) / max(tally.attempted, 1)]
    metrics = {}
    for name, (unit, better, _, only) in END_TO_END.items():
        if (only is not None and workload not in only) or name not in samples:
            continue
        values = samples[name]
        p25, med, p75 = quartiles(values)
        metrics[name] = {"unit": unit, "better": better, "median": med, "p25": p25, "p75": p75,
                         "n": len(values), "values": values}
    return {"metrics": metrics, "layers": layer_metrics([traced], reps),
            "fingerprint": reps[0]["fingerprint"],
            "logical_fingerprint": reps[0]["logical_fingerprint"], "attempted": tally.attempted,
            "failed": len(tally.failures), "failures": tally.failures}


def print_set(results: dict) -> None:
    for workload, res in results.items():
        log("")
        log(f"{workload}: {res['attempted']} checks, {res['failed']} failed, "
            f"fingerprint {res['fingerprint']}")
        log(f"  {'metric':<18} {'unit':<16} {'median':>14} {'p25':>14} {'p75':>14} {'n':>3}")
        for name, m in res["metrics"].items():
            log(f"  {name:<18} {m['unit']:<16} {m['median']:>14.6g} {m['p25']:>14.6g} "
                f"{m['p75']:>14.6g} {m['n']:>3}")
        layers = res["layers"]
        shares = ", ".join(f"{name.split('.')[0]} {layers[name]:.1f}%" for name in PER_LAYER
                           if name.endswith(".self_pct") and layers[name] > 0)
        log(f"  traced: self time {shares}; covered {100 - layers['unattributed_pct']:.1f}%, "
            f"tracing overhead {layers['tracing_overhead_pct']:+.2f}%")
        for name, (unit, _) in PER_LAYER.items():
            if layers[name] and not name.endswith("_pct") and name != "traced_wall_s":
                log(f"    {name:<32} {layers[name]:>16.6g} {unit}")


def suite_run(args: argparse.Namespace) -> int:
    build()
    host = host_block(args)
    (BUILD / "traces").mkdir(exist_ok=True)
    inputs = Inputs(args.seed, args.smoke, WORKLOADS)
    reps = {w: [] for w in WORKLOADS}
    setups = {w: [] for w in WORKLOADS}
    traced = {}
    try:
        for i in range(repetitions(args)):
            for w in WORKLOADS:
                log(f"repetition {i + 1}: {w}")
                reps[w].append(run_rep(w, args.seed, args.smoke, inputs))
                setups[w].append(setup_sample(w, args.seed, args.smoke, inputs))
        for w in WORKLOADS:
            log(f"traced: {w} -> {BUILD / 'traces' / (w + '.json')}")
            traced[w] = run_rep(w, args.seed, args.smoke, inputs, BUILD / "traces" / f"{w}.json")
    finally:
        inputs.close()

    results = {}
    done = {}
    for w in WORKLOADS:
        tally = Tally()
        check_reps(w, args.seed, args.smoke, reps[w] + [traced[w]], sum(setups[w], []), tally)
        done[w] = [r for r in reps[w] if r is not None]
        if traced[w] is None or not done[w]:
            die(f"{w}: no repetition reported")
        results[w] = summarize(w, done[w], setups[w], traced[w], tally)
    print_set(results)

    doc = {"host": host, "sets": [results]}
    out = Path(args.out) if args.out else BUILD / "results.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"\nwrote {out}")
    if args.update_goldens:
        if args.seed != DEFAULT_SEED:
            die("--update-goldens needs the default seed")
        goldens = load_goldens()
        for w, r in results.items():
            goldens[golden_key(w, args.smoke)] = r["fingerprint"]
            if r["logical_fingerprint"]:
                goldens[golden_key(w, args.smoke) + "/logical"] = r["logical_fingerprint"]
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        log(f"wrote {GOLDENS}")
    if args.smoke:
        # Exercises --compare on real data: first repetition against the rest.
        first = {w: summarize(w, done[w][:1], setups[w][:1], traced[w], Tally())
                 for w in WORKLOADS}
        rest = {w: summarize(w, done[w][1:] or done[w], setups[w][1:] or setups[w], traced[w],
                             Tally()) for w in WORKLOADS}
        compare_docs({"host": host, "sets": [first]}, {"host": host, "sets": [rest]})
    return 1 if any(r["failed"] for r in results.values()) else 0


# ---------------------------------------------------------------- compare


def classify(base: list[float], new: list[float], better: str, bound: float,
             exact: bool) -> tuple[str, float, float]:
    """Label, relative change (positive = worse) and spread of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    change = sign * (mn - mb) / abs(mb) if mb else sign * (mn - mb)
    spread = 0.0
    for values, med in ((base, mb), (new, mn)):
        p25, _, p75 = quartiles(values)
        spread = max(spread, (p75 - p25) / abs(med) if med else 0.0)
    if exact or bound == 0.0:
        return ("unchanged" if mn == mb else "worse" if change > 0 else "better"), change, spread
    if spread > bound:
        all_better = all(sign * (x - y) < 0 for x in new for y in base)
        return ("better" if all_better else "unresolved"), change, spread
    if change > bound:
        return "worse", change, spread
    return ("better" if change < -bound else "unchanged"), change, spread


def pooled(doc: dict, workload: str, name: str) -> list[float]:
    return [v for s in doc["sets"] if workload in s and name in s[workload]["metrics"]
            for v in s[workload]["metrics"][name]["values"]]


def compare_docs(base: dict, new: dict) -> int:
    same_inputs = all(base["host"][k] == new["host"][k] for k in ("seed", "smoke"))
    worse = 0
    log(f"\n{'workload':<14} {'metric':<16} {'base':>12} {'new':>12} {'change':>8} "
        f"{'spread':>7} {'bound':>6}  label")
    for w in WORKLOADS:
        for name, (_, better, bound, _) in END_TO_END.items():
            b, n = pooled(base, w, name), pooled(new, w, name)
            if not b or not n:
                continue
            exact = same_inputs and name in DETERMINISTIC
            label, change, spread = classify(b, n, better, bound, exact)
            worse += label == "worse"
            log(f"{w:<14} {name:<16} {statistics.median(b):>12.6g} {statistics.median(n):>12.6g} "
                f"{100 * change:>+7.2f}% {100 * spread:>6.2f}% "
                f"{'exact' if exact or bound == 0 else f'{100 * bound:.0f}%':>6}  {label}")
    log(f"\n{worse} metric(s) worse")
    return 1 if worse else 0


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read results file {path}: {e}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload for --seconds and print one result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--update-goldens", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--merge", nargs="+", metavar="FILE")
    args = parser.parse_args()

    if args.compare:
        return compare_docs(load(args.compare[0]), load(args.compare[1]))
    if args.merge:
        if not args.out:
            die("--merge needs --out")
        docs = [load(p) for p in args.merge]
        merged = {"host": docs[0]["host"], "sets": [s for d in docs for s in d["sets"]]}
        Path(args.out).write_text(json.dumps(merged, indent=1) + "\n")
        return 0
    if args.workload:
        return contract_run(args)
    return suite_run(args)


if __name__ == "__main__":
    sys.exit(main())
