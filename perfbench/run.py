#!/usr/bin/env python3
"""Benchmark of the IQ-RUDP simulator: builds `perfbench`, runs one
workload in a fresh process and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paper_tables --seed 42 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics of untraced passes made by
PROCESSES fresh processes; `--trace 1` runs one untraced pass and one
traced pass (agent wrappers, tagged heap) and reports the per-layer
metrics. The last line of stdout is the result:
`{"correct", "attempted", "failed", "metrics"}`; the line before it holds
the host, the per-metric sample statistics and the checks.

`python3 perfbench/run.py --record-reference` re-records
perfbench/reference.json: the fingerprints (seeds 42 and 7, every
workload) and each run's figure-contract outcome.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("paper_tables", "mega_flows", "telemetry_figures")
REFERENCE_SEEDS = (42, 7)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Fresh processes per untraced run (at least 3, so every run has a
# median and a determinism check over passes).
PROCESSES = 3
# Median host-probe sample (src/probe.rs) on the reference host, a 2-vCPU
# Intel Xeon VM; timings are reported at this host speed (README.md).
PROBE_REFERENCE_S = 0.0017
DEADLINE = None
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "crates", "experiments")):
        fail("the simulator's sources (crates/) are not here; run from a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def measure(binary, args, tagged=False):
    """Runs one perfbench process and returns its JSON result. All the
    processes of one run.py call share RUN_TIMEOUT_S, counted from the
    end of the build."""
    env = dict(os.environ)
    env.pop("PERFBENCH_ALLOC_TAGS", None)
    if tagged:
        env["PERFBENCH_ALLOC_TAGS"] = "1"
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, env=env,
                              timeout=max(1.0, DEADLINE - time.monotonic()), text=True)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} timed out")
    if done.returncode != 0:
        fail(f"perfbench {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def first_line(cmd):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else None
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return None


def proc_field(path, key):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the simulator and benchmark sources, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, p) for p in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)
                      if f.endswith((".rs", ".toml", ".lock", ".py", ".json"))]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def host_block(seed, workers):
    mem_kib = proc_field("/proc/meminfo", "MemTotal")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total_mb": round(int(mem_kib.split()[0]) / 1024) if mem_kib else None,
        "rustc": first_line(["rustc", "-V"]),
        "git_commit": first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "source_sha256": source_digest(),
        "seed": seed,
        "workers": workers,
    }


def load_reference():
    """Stored expectations: `fingerprints[workload][seed][run]` and, for
    workloads that rebuild figures, `figure_ok[workload][run]`."""
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {REFERENCE}: {e}")


class Expected:
    """What each run of one workload and seed must show."""

    def __init__(self, workload, seed):
        ref = load_reference()
        self.fingerprints = ref["fingerprints"].get(workload, {}).get(str(seed))
        self.figure_ok = ref["figure_ok"].get(workload, {})

    def mismatch(self, name, run):
        """Why `run` differs from the reference, or None."""
        if self.fingerprints is not None and run["hash"] != self.fingerprints.get(name):
            return f"fingerprint {run['hash']} differs from the reference {self.fingerprints.get(name)}"
        if run["figure_ok"] != self.figure_ok.get(name):
            return (f"figure contract outcome {run['figure_ok']} differs from the "
                    f"recorded {self.figure_ok.get(name)}")
        return None


def summary(values):
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def check_runs(passes, names, expected, label, failures):
    """Counts failed scenario runs: a run fails its sanity check, differs
    from the first pass (determinism) or from the stored reference (its
    fingerprint at the seeds recorded there; its figure-contract outcome
    at every seed)."""
    failed = 0
    for k, runs in enumerate(passes):
        for name, run, first in zip(names, runs, passes[0]):
            why = None
            if not run["sane"]:
                why = "sanity check failed"
            elif run["hash"] != first["hash"]:
                why = f"fingerprint {run['hash']} differs from pass 0 ({first['hash']})"
            else:
                why = expected.mismatch(name, run)
            if why:
                failed += 1
                failures.append(f"{label} pass {k} {name}: {why}")
    return failed


def figure_violations(runs, names):
    """The runs whose rebuilt jitter series breaks the contract documented
    in figures.rs; the known ones are recorded in reference.json."""
    bad = [n for n, r in zip(names, runs) if r["figure_ok"] is False]
    checked = sum(r["figure_ok"] is not None for r in runs)
    return {"violations": len(bad), "checked": checked, "runs": bad}


def untraced(binary, args):
    # PROCESSES fresh processes share --seconds equally. A fixed share
    # keeps the number of passes each makes from depending on how fast
    # the ones before it ran: on mega_flows, time left over by two fast
    # processes let the third make a second pass on a warm heap, which
    # pulled the median down. Each starts from another heap layout
    # (--heap-perturb), so the peak RSS can be taken over layouts. Their
    # passes and set-up passes are pooled.
    share = args.seconds / PROCESSES
    outs = [measure(binary, ["run", "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", f"{share:.3f}", "--heap-perturb", str(k)])
            for k in range(PROCESSES)]
    names = outs[0]["names"]
    all_passes = [p for out in outs for p in out["passes"]]
    passes = [p["runs"] for p in all_passes]
    failures = []
    failed = check_runs(passes, names, Expected(args.workload, args.seed), "untraced", failures)
    # A pass's time is estimated as the sum over scenarios of each
    # scenario's median over passes: a burst of host noise then costs one
    # scenario one sample instead of a whole pass. The per-pass totals are
    # kept in the detail line.
    per_scenario = {k: [statistics.median(x) for x in zip(*(p[k] for p in all_passes))]
                    for k in ("walls", "cpus")}
    wall, cpu = sum(per_scenario["walls"]), sum(per_scenario["cpus"])
    events = all_passes[0]["events"]
    setup = [s for out in outs for s in out["setup_s"]]
    first_peaks = [out["first_pass_peak_rss_mb"] for out in outs]
    # The shared host's speed drifts by up to a third over minutes; the
    # timings of a probed workload are scaled to the reference host speed
    # by the run's median probe sample (src/probe.rs). The others record
    # no samples and are reported as measured. The raw values are in the
    # detail line.
    probes = [x for p in all_passes for x in p["probes"]]
    slowdown = statistics.median(probes) / PROBE_REFERENCE_S if probes else 1.0
    samples = {
        "pass_wall_s": summary([p["wall_s"] for p in all_passes]),
        "pass_cpu_s": summary([p["cpu_s"] for p in all_passes]),
        "setup_s": summary(setup),
        "first_pass_peak_rss_mb": summary(first_peaks),
    }
    if probes:
        samples["probe_s"] = summary(probes)
    metrics = {
        "wall_s": {"value": wall / slowdown, "unit": "s"},
        "events_per_s": {"value": events * slowdown / wall, "unit": "1/s"},
        "cpu_s": {"value": cpu / slowdown, "unit": "s"},
        "setup_s": {"value": samples["setup_s"]["median"] / slowdown, "unit": "s"},
        # glibc's heap makes one layout's peak land on one of a few levels
        # up to 3 MiB apart on paper_tables; the lowest over layouts is
        # what the workload needs (README.md, peak_rss_mb).
        "peak_rss_mb": {"value": min(first_peaks), "unit": "MiB"},
    }
    detail = {
        "samples": samples,
        "host_slowdown": slowdown,
        "raw": {"wall_s": wall, "cpu_s": cpu, "setup_s": samples["setup_s"]["median"]},
        "first_pass_peak_rss_mb": first_peaks,
        "end_of_run_rss_mb": [{k: out[k] for k in ("peak_rss_mb", "rss_anon_mb", "rss_file_mb")}
                              for out in outs],
        "events_per_pass": events,
        "scenarios": len(names),
        "figure_contract": figure_violations(passes[0], names),
    }
    return outs[0], len(passes) * len(names), failed, failures, metrics, detail


def layer_checks(tr):
    """The traced run's time split must add up: the shards' phase profiles
    span the run wall within the tolerance, agent spans nest inside the
    execute phase (core >= 0), and idle, the remainder, is not negative
    beyond the tolerance. Returns (label, failure or None) per check."""
    tol = tr["layer_sum_tolerance"]
    return [
        ("layer sum", None if tr["layer_sum_error"] <= tol else
         f"phase profiles off the run wall by {tr['layer_sum_error']:.4f} (tolerance {tol})"),
        ("core time", None if tr["core_ns"] >= 0 else
         f"agent spans exceed the execute phase by {-tr['core_ns']:.0f} ns"),
        ("idle time", None if tr["idle_ns"] >= -tol * tr["worker_ns"] else
         f"idle time {tr['idle_ns']:.0f} ns is below -{tol} x {tr['worker_ns']:.0f} ns"),
    ]


def traced(binary, args):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    base = measure(binary, ["run", "--baseline", "--seconds", str(args.seconds)] + common)
    tr = measure(binary, ["traced"] + common, tagged=True)
    names = base["names"]
    expected = Expected(args.workload, args.seed)
    failures = []
    failed = check_runs([base["passes"][0]["runs"]], names, expected, "untraced", failures)
    for name, a, b in zip(names, base["passes"][0]["runs"], tr["runs"]):
        if a["hash"] != b["hash"] or a["events"] != b["events"]:
            why = (f"fingerprint/events {b['hash']}/{b['events']} "
                   f"differ from untraced {a['hash']}/{a['events']}")
        else:
            why = expected.mismatch(name, b)
        if why:
            failed += 1
            failures.append(f"traced {name}: {why}")
    checks = layer_checks(tr)
    for label, why in checks:
        if why:
            failed += 1
            failures.append(f"traced {label}: {why}")
    metrics = dict(tr["metrics"])
    metrics["trace.overhead_frac"] = {
        "value": tr["wall_s"] / base["passes"][0]["wall_s"] - 1.0, "unit": "ratio"}
    detail = {
        "untraced_wall_s": base["passes"][0]["wall_s"],
        "traced_wall_s": tr["wall_s"],
        "heap_tagged": tr["tagged"],
        "agent_ns_per_call": tr["ns_per_call"],
        "layer_sum_error": tr["layer_sum_error"],
        "layer_sum_tolerance": tr["layer_sum_tolerance"],
        "core_ns": tr["core_ns"],
        "idle_ns": tr["idle_ns"],
        "worker_ns": tr["worker_ns"],
        "figure_contract": figure_violations(tr["runs"], names),
    }
    return base, 2 * len(names) + len(checks), failed, failures, metrics, detail


def declared_metrics(trace):
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def record_reference(binary):
    ref = {"fingerprints": {}, "figure_ok": {}}
    for w in WORKLOADS:
        ref["fingerprints"][w] = {}
        for seed in REFERENCE_SEEDS:
            out = measure(binary, ["run", "--baseline", "--workload", w, "--seed", str(seed)])
            runs = dict(zip(out["names"], out["passes"][0]["runs"]))
            ref["fingerprints"][w][str(seed)] = {n: r["hash"] for n, r in runs.items()}
            figure_ok = {n: r["figure_ok"] for n, r in runs.items() if r["figure_ok"] is not None}
            if figure_ok and ref["figure_ok"].setdefault(w, figure_ok) != figure_ok:
                fail(f"{w}: the figure-contract outcomes differ between seeds; "
                     "they are stored per run, for every seed")
            print(f"recorded {w} seed {seed}: {len(runs)} runs", file=sys.stderr)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_TIMEOUT_S
    if args.record_reference:
        record_reference(binary)
        return
    if args.workload is None:
        p.error("--workload is required")

    out, attempted, failed, failures, metrics, detail = (traced if args.trace else untraced)(
        binary, args)
    for f in failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    bad_names = [n for n in metrics if not NAME_RE.match(n)]
    declared = declared_metrics(args.trace)
    if bad_names or (declared is not None and declared != set(metrics)):
        fail(f"metric names out of contract: bad={bad_names} "
             f"missing={sorted((declared or set()) - set(metrics))} "
             f"undeclared={sorted(set(metrics) - (declared or set(metrics)))}")
    detail.update({"workload": args.workload, "trace": args.trace,
                   "host": host_block(args.seed, out["workers"]), "failures": failures[:20]})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
