//! Benchmark of the InSURE workspace, measured from outside the program.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <site_year|fault_grid|fleet_day|service_period> \
//!     --seed <n> --seconds <s> --trace <0|1> [--update-reference]
//! ```
//!
//! Every input the program receives is generated from `--seed`. A run
//! first replays the workload at the default seed and checks its
//! simulated outputs against `perfbench/reference/`, then measures
//! seeded episodes for `--seconds` of host time. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it runs each episode
//! untraced and traced, checks the two produce identical outputs, and
//! reports the per-layer metrics plus the tracing overhead. The last
//! line of standard output is one JSON object; the process exits 1 when
//! any output check failed.

mod check;
mod fault_grid;
mod fleet_day;
mod host;
mod report;
mod service_period;
mod site_year;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ins_sim::rng::SimRng;

use crate::report::Tracer;

/// The seed whose outputs are pinned in `perfbench/reference/`.
pub const DEFAULT_SEED: u64 = 1;

/// Settings shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub update_reference: bool,
    /// Worker threads for the sweep workload (`available_parallelism`).
    pub threads: usize,
    /// Scratch directory for files the workload writes.
    pub work_dir: PathBuf,
    /// Cost of an empty timer span, ns.
    pub timer_ns: f64,
}

impl Run {
    /// The seed of episode `k`: a labelled fork of the run seed, so
    /// episodes differ from each other and from other workloads.
    pub fn episode_seed(seed: u64, label: &str, k: usize) -> u64 {
        SimRng::seed(seed).fork_seed(&format!("{label}-{k}"))
    }

    /// Calls `episode(k)` for k = 0, 1, … until `seconds` of host time
    /// have passed; returns the number of episodes run.
    pub fn for_duration(&self, mut episode: impl FnMut(usize)) -> usize {
        let start = Instant::now();
        let mut k = 0;
        while k == 0 || start.elapsed().as_secs_f64() < self.seconds {
            episode(k);
            k += 1;
        }
        k
    }

    /// Host time since `start`, ns, minus the timer's own cost.
    pub fn ns_since(&self, start: Instant) -> f64 {
        (start.elapsed().as_nanos() as f64 - self.timer_ns).max(0.0)
    }
}

const WORKLOADS: [&str; 4] = ["site_year", "fault_grid", "fleet_day", "service_period"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    update_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut update_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--update-reference" => update_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        update_reference,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--update-reference]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::Fingerprint::collect();
    println!("{}", fingerprint.line());

    let work_dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        update_reference: args.update_reference,
        threads: host::available_threads(),
        work_dir,
        timer_ns: host::timer_overhead_ns(),
    };
    let mut tracer = Tracer::new();
    let mut report = match args.workload.as_str() {
        "site_year" => site_year::run(&run, &mut tracer),
        "fault_grid" => fault_grid::run(&run, &mut tracer),
        "fleet_day" => fleet_day::run(&run, &mut tracer),
        _ => service_period::run(&run, &mut tracer),
    };
    report.end_to_end.peak_rss_mb = host::peak_rss_mb();
    report.layer("host.calibration_ms", fingerprint.calibration_ms);

    if run.trace {
        let path = PathBuf::from(".bench_work")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.finish(&path) {
            Ok(rows) => {
                println!("# spans written to {}", path.display());
                println!(
                    "# {:<18} {:>8} {:>12} {:>12}",
                    "span", "count", "total_ms", "self_ms"
                );
                for (name, n, total, own) in rows {
                    println!("# {name:<18} {n:>8} {total:>12.3} {own:>12.3}");
                }
            }
            Err(e) => report
                .problems
                .push(format!("cannot write spans to {}: {e}", path.display())),
        }
    }
    let _ = std::fs::remove_dir_all(&run.work_dir);

    for problem in &report.problems {
        eprintln!("perfbench: {problem}");
    }
    print!("{}", report.summary(&args.workload, run.trace));
    println!("{}", report.json(run.trace));
    if report.failed == 0 && report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
