//! `perfbench` — the measuring half of the benchmark (`run.py` builds it,
//! runs it and reports). One process measures one workload:
//!
//! ```text
//! perfbench run    --workload NAME --seed N --seconds S [--baseline] [--heap-perturb K]
//! perfbench traced --workload NAME --seed N
//! ```
//!
//! `run` times untraced passes for 95% of `--seconds` (at least one),
//! then zero-deadline set-up passes for the rest (at least five);
//! `--baseline` makes it one untraced pass with no set-up passes, and
//! `--heap-perturb` starts it from another heap layout (`perturb_heap`).
//! Each pass also records the host probe's samples (`perfbench::probe`).
//! `traced` runs one traced pass with the heap metrics; it needs
//! `PERFBENCH_ALLOC_TAGS=1`, which `run` refuses. Both print one JSON
//! object on the last line of stdout.

use std::fmt::Write as _;
use std::time::Instant;

use perfbench::alloc::TaggingAlloc;
use perfbench::layers::{Metric, LAYER_SUM_TOLERANCE};
use perfbench::measure::{setup_pass, traced_pass, untraced_pass, Pass, RunCheck};
use perfbench::probe::HostProbe;
use perfbench::sys::status_mb;
use perfbench::workloads::Workload;

#[global_allocator]
static GLOBAL: TaggingAlloc = TaggingAlloc;

/// Share of `--seconds` spent on set-up passes (at least
/// [`MIN_SETUP_PASSES`] of them).
const SETUP_SHARE: f64 = 0.05;
const MIN_SETUP_PASSES: usize = 5;
const MAX_SETUP_PASSES: usize = 5000;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    baseline: bool,
    heap_perturb: usize,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench run|traced --workload paper_tables|mega_flows|telemetry_figures \
         --seed N [--seconds S] [--baseline] [--heap-perturb K]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mode = it.next().unwrap_or_else(|| usage("missing mode"));
    if mode != "run" && mode != "traced" {
        usage(&format!("unknown mode {mode:?}"));
    }
    let (mut workload, mut seed, mut seconds, mut baseline) = (None, None, 10.0, false);
    let mut heap_perturb = 0;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload {v:?}"))),
                );
            }
            "--seed" => {
                let v = value();
                seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage(&format!("bad seed {v:?}"))),
                );
            }
            "--seconds" => {
                let v = value();
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage(&format!("bad seconds {v:?}")));
            }
            "--baseline" => baseline = true,
            "--heap-perturb" => {
                let v = value();
                heap_perturb = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad heap perturbation {v:?}")));
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    Args {
        mode,
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        baseline,
        heap_perturb,
    }
}

fn main() {
    iq_experiments::runner::tune_allocator();
    let args = parse_args();
    if (args.mode == "traced") != perfbench::alloc::enabled() {
        usage("`traced` needs PERFBENCH_ALLOC_TAGS=1 and `run` needs it unset");
    }
    // Allocated before the heap perturbation, so it takes the same place
    // in every process.
    let mut probe = HostProbe::new();
    perturb_heap(args.heap_perturb);
    let workers = args.workload.configure();
    let scenarios = args.workload.scenarios(args.seed);
    let names: Vec<&str> = scenarios.iter().map(|(n, _)| n.as_str()).collect();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"mode\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"workers\":{},\"names\":{}",
        args.mode,
        args.workload.name(),
        args.seed,
        workers,
        json_strs(&names),
    );
    if args.mode == "run" {
        write_run(&mut out, &args, &scenarios, &mut probe);
    } else {
        let t = traced_pass(args.workload, &scenarios);
        let _ = write!(
            out,
            ",\"tagged\":{},\"wall_s\":{},\"runs\":{},\"layer_sum_error\":{},\
             \"layer_sum_tolerance\":{},\"core_ns\":{},\"idle_ns\":{},\"worker_ns\":{},\"ns_per_call\":{{{}}},\
             \"metrics\":{}",
            perfbench::alloc::enabled(),
            num(t.wall_s),
            json_runs(&t.runs),
            num(t.totals.layer_sum_error()),
            num(LAYER_SUM_TOLERANCE),
            num(t.totals.core_ns()),
            num(t.totals.idle_ns()),
            num(t.totals.worker_ns()),
            t.totals
                .ns_per_call()
                .iter()
                .map(|(kind, ns)| format!("\"{kind}\":{}", num(*ns)))
                .collect::<Vec<_>>()
                .join(","),
            json_metrics(&t.metrics),
        );
    }
    let _ = write!(
        out,
        ",\"peak_rss_mb\":{},\"rss_anon_mb\":{},\"rss_file_mb\":{}}}",
        num(status_mb("VmHWM")),
        num(status_mb("RssAnon")),
        num(status_mb("RssFile")),
    );
    println!("{out}");
}

/// Leaves `8 × n` small holes in the heap before the workload allocates.
/// glibc's peak heap size depends on its free lists at start (one more
/// command-line argument moved `paper_tables` from 12.9 to 16.1 MiB), so
/// `run.py` starts its processes with different `n` and keeps the lowest
/// first-pass peak. The blocks kept take about `4 × n` KiB.
fn perturb_heap(n: usize) {
    let mut kept = Vec::new();
    for i in 0..16 * n {
        let block = std::hint::black_box(Vec::<u8>::with_capacity(24 + (i * 88) % 1000));
        if i % 2 == 0 {
            kept.push(block);
        }
    }
    std::mem::forget(kept);
}

fn write_run(
    out: &mut String,
    args: &Args,
    scenarios: &[(String, iq_experiments::Scenario)],
    probe: &mut HostProbe,
) {
    // The reported peak RSS is `VmHWM` after the first pass, which runs on
    // the fresh process's heap. Later passes and set-up passes reuse a
    // heap whose fragmentation, and so its growth, depends on how many of
    // them fit in `--seconds`; counting them made the peak vary by ±15%
    // between identical runs.
    let start = Instant::now();
    let pass_budget = (1.0 - SETUP_SHARE) * args.seconds;
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_peak_mb = 0.0;
    loop {
        let pass = untraced_pass(args.workload, scenarios, probe);
        let last = pass.wall_s;
        passes.push(pass);
        if passes.len() == 1 {
            first_peak_mb = status_mb("VmHWM");
        }
        if args.baseline {
            break;
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + last > pass_budget {
            break;
        }
    }
    let mut setup = Vec::new();
    if !args.baseline {
        let setup_start = Instant::now();
        let budget = SETUP_SHARE * args.seconds;
        while setup.len() < MIN_SETUP_PASSES
            || (setup_start.elapsed().as_secs_f64() < budget && setup.len() < MAX_SETUP_PASSES)
        {
            setup.push(setup_pass(scenarios));
        }
    }
    let _ = write!(
        out,
        ",\"first_pass_peak_rss_mb\":{},\"setup_s\":{},\"passes\":[",
        num(first_peak_mb),
        json_nums(&setup)
    );
    for (i, p) in passes.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"wall_s\":{},\"cpu_s\":{},\"events\":{},\"walls\":{},\"cpus\":{},\"probes\":{},\"runs\":{}}}",
            if i > 0 { "," } else { "" },
            num(p.wall_s),
            num(p.cpu_s),
            p.events,
            json_nums(&p.walls),
            json_nums(&p.cpus),
            json_nums(&p.probes),
            json_runs(&p.runs),
        );
    }
    out.push(']');
}

fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite measurement {v}");
    format!("{v}")
}

fn json_nums(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| num(x)).collect();
    format!("[{}]", items.join(","))
}

fn json_strs(v: &[&str]) -> String {
    let items: Vec<String> = v.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", items.join(","))
}

fn json_runs(runs: &[RunCheck]) -> String {
    let items: Vec<String> = runs
        .iter()
        .map(|r| {
            let figure = match r.figure_ok {
                Some(ok) => ok.to_string(),
                None => "null".to_string(),
            };
            format!(
                "{{\"hash\":\"{:016x}\",\"sane\":{},\"events\":{},\"figure_ok\":{figure}}}",
                r.hash, r.sane, r.events
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}
