//! `fault_grid`: the recovery grid and the late-window fault grid.
//!
//! Both grids run through `ins_bench::runner::run_cells_incremental`
//! (one thread untraced, `available_parallelism` traced; see `run`), with
//! the same prefix and cell closures as `recovery::sweep_grid_incremental`
//! and `faults::sweep_shared_window`; the benchmark's copies only add
//! timers. Cells are many and short, so system builds, `snapshot` /
//! `fork_from`, fault drain and checkpoint/restore dominate. An
//! operation is one cell (one simulated site-day); the period is one
//! episode, both grids at one base seed. Cell times are no period: they
//! mix forked and scratch cells of both controllers, and their median
//! jumped between modes (1.5 against 2.4 ms) at equal grid rates.
//!
//! Output check: the rows' JSON must equal the library's own incremental
//! sweep and its scratch `run_cells` oracle, and at the default seed the
//! committed reference.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ins_bench::experiments::faults::{self, late_window_schedule_for, FaultSweepRow, RATES_HOURS};
use ins_bench::experiments::recovery::{
    self, RecoveryRow, CHECKPOINT_INTERVALS_HOURS, FAULT_RATES_HOURS,
};
use ins_bench::runner::run_cells_incremental;
use ins_core::controller::{BaselineController, InsureController, PowerController};
use ins_core::metrics::RunMetrics;
use ins_core::system::{InSituSystem, SystemEvent, SystemSnapshot};
use ins_sim::fault::{FaultSchedule, FaultTargets};
use ins_sim::snapshot::{plan_prefix_groups, CellPlan};
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::trace::high_generation_day;
use ins_workload::checkpoint::CheckpointPolicy;

use crate::check::{against_reference, Digest};
use crate::report::{EpisodeLog, Report, Tracer};
use crate::stats::{mean, median, percentile};
use crate::{Run, DEFAULT_SEED};

const NAME: &str = "fault_grid";
const STEP: SimDuration = SimDuration::from_secs(30);
const TARGETS: FaultTargets = FaultTargets {
    units: 3,
    servers: 4,
};
/// Cells per episode: 3 × 3 × 2 recovery cells plus 5 × 2 late-window
/// cells.
const CELLS: u64 = 28;

fn end() -> SimTime {
    SimTime::from_hms(23, 59, 30)
}

fn controller(name: &str) -> Box<dyn PowerController> {
    if name == "insure" {
        Box::new(InsureController::default())
    } else {
        Box::new(BaselineController::new())
    }
}

fn hours(h: f64) -> SimDuration {
    SimDuration::from_secs((h * 3600.0) as u64)
}

fn injected(sys: &InSituSystem) -> usize {
    sys.events()
        .count(|e| matches!(e, SystemEvent::FaultInjected(_)))
}

#[derive(Debug, Default)]
struct CellRecord {
    start_ns: u64,
    dur_ns: u64,
    forked: bool,
}

#[derive(Debug, Default)]
struct ProbeData {
    cells: Vec<CellRecord>,
    prefix_busy_ns: u64,
    build_ns: Vec<f64>,
    snapshot_ns: Vec<f64>,
    fork_ns: Vec<f64>,
    steps: u64,
    trace_samples: u64,
    switch_ops: u64,
    checkpoint_writes: u64,
}

/// Timers shared by the runner's worker threads. Untraced, it records
/// only each cell's span and the first simulated step; traced, it also
/// times builds, snapshots and forks and counts the cells' work.
struct Probe {
    origin: Instant,
    traced: bool,
    first_step_ns: AtomicU64,
    data: Mutex<ProbeData>,
}

impl Probe {
    fn new(traced: bool) -> Self {
        Self {
            origin: Instant::now(),
            traced,
            first_step_ns: AtomicU64::new(u64::MAX),
            data: Mutex::new(ProbeData::default()),
        }
    }

    fn since_origin(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn with<R>(&self, f: impl FnOnce(&mut ProbeData) -> R) -> R {
        f(&mut self
            .data
            .lock()
            .expect("probe lock poisoned by a panicking cell"))
    }

    fn about_to_step(&self) {
        self.first_step_ns
            .fetch_min(self.since_origin(), Ordering::Relaxed);
    }

    fn timed<R>(&self, f: impl FnOnce() -> R, record: impl FnOnce(&mut ProbeData, f64)) -> R {
        if !self.traced {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as f64;
        self.with(|d| record(d, ns));
        out
    }

    fn build(&self, f: impl FnOnce() -> InSituSystem) -> InSituSystem {
        self.timed(f, |d, ns| d.build_ns.push(ns))
    }

    fn snapshot(&self, sys: &InSituSystem) -> Option<SystemSnapshot> {
        self.timed(|| sys.snapshot().ok(), |d, ns| d.snapshot_ns.push(ns))
    }

    fn fork(&self, snap: &SystemSnapshot, faults: FaultSchedule) -> InSituSystem {
        self.timed(
            || InSituSystem::fork_from(snap, faults),
            |d, ns| d.fork_ns.push(ns),
        )
    }

    /// Counts a finished cell's work: steps run since `from`, trace
    /// samples held, relay operations and checkpoint writes.
    fn finished(&self, sys: &InSituSystem, from: SimTime) {
        if !self.traced {
            return;
        }
        let steps = sys.now().since(from).as_secs() / STEP.as_secs();
        let samples = [
            sys.trace_solar(),
            sys.trace_load(),
            sys.trace_stored(),
            sys.trace_pack_voltage(),
        ]
        .iter()
        .map(|t| t.len() as u64)
        .sum::<u64>();
        let ops = sys.matrix().total_switch_operations();
        let writes = sys.checkpoint_counters().written;
        self.with(|d| {
            d.steps += steps;
            d.trace_samples += samples;
            d.switch_ops += ops;
            d.checkpoint_writes += writes;
        });
    }

    fn prefix<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.with(|d| d.prefix_busy_ns += ns);
        out
    }

    fn cell<R>(&self, forked: bool, f: impl FnOnce() -> R) -> R {
        let start_ns = self.since_origin();
        let t = Instant::now();
        let out = f();
        let dur_ns = t.elapsed().as_nanos() as u64;
        self.with(|d| {
            d.cells.push(CellRecord {
                start_ns,
                dur_ns,
                forked,
            })
        });
        out
    }
}

fn recovery_schedule(seed: u64, rate: f64) -> FaultSchedule {
    FaultSchedule::stochastic_extended(seed, SimDuration::from_hours(24), hours(rate), TARGETS)
}

fn recovery_system(name: &str, ckpt: f64, schedule: FaultSchedule, seed: u64) -> InSituSystem {
    InSituSystem::builder(high_generation_day(seed), controller(name))
        .unit_count(TARGETS.units)
        .time_step(STEP)
        .fault_schedule(schedule)
        .checkpoints(CheckpointPolicy::with_interval(hours(ckpt)))
        .build()
}

fn recovery_cells() -> Vec<(f64, f64, &'static str)> {
    let mut cells = Vec::new();
    for &ckpt in &CHECKPOINT_INTERVALS_HOURS {
        for &rate in &FAULT_RATES_HOURS {
            cells.push((ckpt, rate, "insure"));
            cells.push((ckpt, rate, "baseline"));
        }
    }
    cells
}

/// The recovery grid (checkpoint interval × fault rate × controller).
fn recovery_grid(seed: u64, threads: usize, probe: &Probe) -> Vec<RecoveryRow> {
    let cells = recovery_cells();
    run_cells_incremental(
        threads,
        &cells,
        STEP,
        |&(ckpt, rate, name)| ((ckpt, name), recovery_schedule(seed, rate).first_event_at()),
        |&(ckpt, name): &(f64, &'static str), fork_at| {
            probe.prefix(|| {
                let mut sys = probe.build(|| {
                    recovery_system(
                        name,
                        ckpt,
                        FaultSchedule::from_events(seed, Vec::new()),
                        seed,
                    )
                });
                probe.about_to_step();
                sys.run_until(fork_at);
                probe.snapshot(&sys)
            })
        },
        |_, &(ckpt, rate, name), snap: Option<&SystemSnapshot>| {
            probe.cell(snap.is_some(), || {
                let (mut sys, from) = match snap {
                    Some(s) => (probe.fork(s, recovery_schedule(seed, rate)), s.now()),
                    None => (
                        probe.build(|| {
                            recovery_system(name, ckpt, recovery_schedule(seed, rate), seed)
                        }),
                        SimTime::ZERO,
                    ),
                };
                probe.about_to_step();
                sys.run_until(end());
                probe.finished(&sys, from);
                let m = RunMetrics::collect(&sys);
                RecoveryRow {
                    checkpoint_interval_hours: ckpt,
                    mean_interarrival_hours: rate,
                    controller: name,
                    faults_injected: injected(&sys),
                    throughput_gb_per_hour: m.throughput_gb_per_hour,
                    goodput_gb_per_hour: m.goodput_gb_per_hour,
                    lost_work_hours: m.lost_work_hours,
                    mttr_minutes: m.mttr_minutes,
                    recoveries: m.recoveries,
                    data_loss_events: m.data_loss_events,
                    checkpoints_written: m.checkpoints_written,
                    checkpoints_torn: m.checkpoints_torn,
                }
            })
        },
    )
}

fn late_system(name: &str, schedule: FaultSchedule, seed: u64) -> InSituSystem {
    InSituSystem::builder(high_generation_day(seed), controller(name))
        .unit_count(TARGETS.units)
        .time_step(STEP)
        .fault_schedule(schedule)
        .build()
}

fn late_cells() -> Vec<(Option<f64>, &'static str)> {
    RATES_HOURS
        .iter()
        .flat_map(|&rate| [(rate, "insure"), (rate, "baseline")])
        .collect()
}

/// The late-window fault grid (faults only in `[18 h, 24 h)`, 75 %
/// shared prefix).
fn late_grid(seed: u64, threads: usize, probe: &Probe) -> Vec<FaultSweepRow> {
    let cells = late_cells();
    run_cells_incremental(
        threads,
        &cells,
        STEP,
        |&(rate, name)| (name, late_window_schedule_for(seed, rate).first_event_at()),
        |name: &&'static str, fork_at| {
            probe.prefix(|| {
                let mut sys = probe.build(|| {
                    late_system(name, FaultSchedule::from_events(seed, Vec::new()), seed)
                });
                probe.about_to_step();
                sys.run_until(fork_at);
                probe.snapshot(&sys)
            })
        },
        |_, &(rate, name), snap: Option<&SystemSnapshot>| {
            probe.cell(snap.is_some(), || {
                let schedule = late_window_schedule_for(seed, rate);
                let (mut sys, from) = match snap {
                    Some(s) => (probe.fork(s, schedule), s.now()),
                    None => (
                        probe.build(|| late_system(name, schedule, seed)),
                        SimTime::ZERO,
                    ),
                };
                probe.about_to_step();
                sys.run_until(end());
                probe.finished(&sys, from);
                let m = RunMetrics::collect(&sys);
                FaultSweepRow {
                    mean_interarrival_hours: rate.unwrap_or(f64::INFINITY),
                    controller: name,
                    faults_injected: injected(&sys),
                    uptime: m.uptime,
                    gb_per_hour: m.throughput_gb_per_hour,
                    energy_availability_wh: m.mean_stored_energy_wh,
                    brownouts: m.brownouts,
                }
            })
        },
    )
}

/// One row per field, as the library's `to_json` renders it.
fn rows_digest(digest: &mut Digest, grid: &str, json: &str) {
    let rows = json
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with('{'));
    for (i, row) in rows.enumerate() {
        digest.put(format!("{grid}.row{i:02}"), row);
    }
}

struct Episode {
    setup_s: f64,
    wall_s: f64,
    faults: u64,
    digest: Digest,
    probe: [Probe; 2],
    walls_ns: [u64; 2],
}

fn episode(seed: u64, threads: usize, traced: bool) -> Episode {
    let mut setup_s = 0.0;
    let mut digest = Digest::new();
    // Each probe's origin is its grid's start.
    let recovery_probe = Probe::new(traced);
    let recovery_rows = recovery_grid(seed, threads, &recovery_probe);
    let recovery_wall = recovery_probe.since_origin();
    let late_probe = Probe::new(traced);
    let late_rows = late_grid(seed, threads, &late_probe);
    let walls_ns = [recovery_wall, late_probe.since_origin()];
    let probes = [recovery_probe, late_probe];
    for p in &probes {
        setup_s += p.first_step_ns.load(Ordering::Relaxed) as f64 / 1e9;
    }
    let faults = recovery_rows
        .iter()
        .map(|r| r.faults_injected as u64)
        .sum::<u64>()
        + late_rows
            .iter()
            .map(|r| r.faults_injected as u64)
            .sum::<u64>();
    rows_digest(&mut digest, "recovery", &recovery::to_json(&recovery_rows));
    rows_digest(&mut digest, "late_window", &faults::to_json(&late_rows));
    Episode {
        setup_s,
        wall_s: (walls_ns[0] + walls_ns[1]) as f64 / 1e9,
        faults,
        digest,
        probe: probes,
        walls_ns,
    }
}

/// The library's incremental sweeps and scratch oracles for `seed`.
fn library_digests(seed: u64, threads: usize) -> [(&'static str, Digest); 2] {
    let mut incremental = Digest::new();
    rows_digest(
        &mut incremental,
        "recovery",
        &recovery::to_json(&recovery::sweep_grid_incremental(
            seed,
            &CHECKPOINT_INTERVALS_HOURS,
            &FAULT_RATES_HOURS,
            threads,
        )),
    );
    rows_digest(
        &mut incremental,
        "late_window",
        &faults::to_json(&faults::sweep_shared_window(
            seed,
            &RATES_HOURS,
            threads,
            true,
        )),
    );
    let mut scratch = Digest::new();
    rows_digest(
        &mut scratch,
        "recovery",
        &recovery::to_json(&recovery::sweep_grid_with(
            seed,
            &CHECKPOINT_INTERVALS_HOURS,
            &FAULT_RATES_HOURS,
            threads,
        )),
    );
    rows_digest(
        &mut scratch,
        "late_window",
        &faults::to_json(&faults::sweep_shared_window(
            seed,
            &RATES_HOURS,
            threads,
            false,
        )),
    );
    [
        ("library-incremental", incremental),
        ("scratch-oracle", scratch),
    ]
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    // The untraced run sweeps on one thread: with two threads on a
    // shared two-vCPU host, grid wall time doubled whenever another
    // tenant took a core (316-442 against 621-680 days/s across ten
    // runs), while cell times held within 3 %. The traced run keeps
    // `available_parallelism` threads, so the runner metrics still show
    // what the pool buys; outputs are identical at any thread count.
    let threads = if run.trace { run.threads } else { 1 };
    let reference = episode(Run::episode_seed(DEFAULT_SEED, NAME, 0), threads, false);
    report.check(
        0,
        against_reference(&reference.digest, NAME, run.update_reference),
    );

    let mut log = EpisodeLog::new();
    let mut plain_rates = Vec::new();
    let mut traced = Vec::new();
    let mut plan_ns = Vec::new();
    let mut first = None;
    run.for_duration(|k| {
        let seed = Run::episode_seed(run.seed, NAME, k);
        let ep = episode(seed, threads, false);
        report.attempted += CELLS;
        if run.seed == DEFAULT_SEED && k == 0 {
            report.check(CELLS, ep.digest.diff(&reference.digest, NAME, "reference"));
        }
        if run.trace {
            let t = Instant::now();
            let tr = episode(seed, threads, true);
            tracer.span("fault_grid.episode", 0, t);
            report.check(
                CELLS,
                tr.digest.diff(&ep.digest, NAME, "traced-vs-untraced"),
            );
            plain_rates.push(CELLS as f64 / ep.wall_s);
            plan_ns.push(replay_plans(seed));
            traced.push(tr);
        } else {
            log.push(ep.setup_s, CELLS as f64 / ep.wall_s, &[ep.wall_s * 1e3]);
        }
        if k == 0 {
            first = Some((seed, ep.digest));
        }
    });
    // The oracle runs once per run, outside the timed loop.
    if let Some((seed, digest)) = first {
        for (what, expected) in library_digests(seed, threads) {
            // A differing row is one failed cell.
            let mismatch = digest.diff(&expected, NAME, what);
            report.check(mismatch.fields as u64, mismatch);
        }
    }

    if !run.trace {
        report.end_to_end = log.end_to_end();
        return report;
    }
    layer_metrics(run, &mut report, &traced, &plain_rates, &plan_ns);
    report
}

/// Host time of `plan_prefix_groups` over both grids' cell plans, ns.
fn replay_plans(seed: u64) -> f64 {
    let recovery: Vec<CellPlan<(u64, &str)>> = recovery_cells()
        .iter()
        .map(|&(ckpt, rate, name)| CellPlan {
            key: (ckpt.to_bits(), name),
            diverges_at: recovery_schedule(seed, rate).first_event_at(),
        })
        .collect();
    let late: Vec<CellPlan<&str>> = late_cells()
        .iter()
        .map(|&(rate, name)| CellPlan {
            key: name,
            diverges_at: late_window_schedule_for(seed, rate).first_event_at(),
        })
        .collect();
    let t = Instant::now();
    std::hint::black_box(plan_prefix_groups(std::hint::black_box(&recovery), STEP));
    std::hint::black_box(plan_prefix_groups(std::hint::black_box(&late), STEP));
    t.elapsed().as_nanos() as f64
}

fn layer_metrics(
    run: &Run,
    report: &mut Report,
    traced: &[Episode],
    plain_rates: &[f64],
    plan_ns: &[f64],
) {
    let n = traced.len().max(1) as f64;
    let mut cells = 0u64;
    let mut forked = 0u64;
    let mut prefix_wall = 0u64;
    let mut wall = 0u64;
    let mut busy = 0u64;
    let mut cell_ms = Vec::new();
    let mut build = Vec::new();
    let mut snapshot = Vec::new();
    let mut fork = Vec::new();
    let (mut steps, mut samples, mut ops, mut writes) = (0u64, 0u64, 0u64, 0u64);
    for ep in traced {
        for (p, grid_wall) in ep.probe.iter().zip(ep.walls_ns) {
            p.with(|d| {
                cells += d.cells.len() as u64;
                forked += d.cells.iter().filter(|c| c.forked).count() as u64;
                let first_cell = d.cells.iter().map(|c| c.start_ns).min().unwrap_or(0);
                prefix_wall += first_cell;
                wall += grid_wall;
                busy += d.prefix_busy_ns + d.cells.iter().map(|c| c.dur_ns).sum::<u64>();
                cell_ms.extend(d.cells.iter().map(|c| c.dur_ns as f64 / 1e6));
                build.extend_from_slice(&d.build_ns);
                snapshot.extend_from_slice(&d.snapshot_ns);
                fork.extend_from_slice(&d.fork_ns);
                steps += d.steps;
                samples += d.trace_samples;
                ops += d.switch_ops;
                writes += d.checkpoint_writes;
            });
        }
    }
    let traced_rates: Vec<f64> = traced.iter().map(|e| CELLS as f64 / e.wall_s).collect();
    report.layer("runner.cells", cells as f64 / n);
    report.layer("runner.forked_cells", forked as f64 / n);
    report.layer("runner.fork_ratio", forked as f64 / cells.max(1) as f64);
    report.layer(
        "runner.prefix_share",
        prefix_wall as f64 / wall.max(1) as f64,
    );
    report.layer("runner.cell_ms_p50", percentile(&cell_ms, 0.5));
    report.layer("runner.cell_ms_max", percentile(&cell_ms, 1.0));
    report.layer(
        "runner.parallel_efficiency",
        busy as f64 / (run.threads as f64 * wall.max(1) as f64),
    );
    report.layer("core.build_ms", mean(&build) / 1e6);
    report.layer("core.snapshot_us", mean(&snapshot) / 1e3);
    report.layer("core.fork_us", mean(&fork) / 1e3);
    report.layer("core.steps", steps as f64 / n);
    report.layer("sim.trace_samples", samples as f64 / n);
    report.layer(
        "sim.trace_bytes",
        samples as f64 / n * std::mem::size_of::<ins_sim::trace::Sample>() as f64,
    );
    report.layer("sim.plan_us", mean(plan_ns) / 1e3);
    report.layer(
        "sim.fault_events",
        traced.iter().map(|e| e.faults as f64).sum::<f64>() / n,
    );
    report.layer("powernet.switch_ops", ops as f64 / n);
    report.layer("workload.checkpoint_writes", writes as f64 / n);
    report.layer(
        "trace.overhead_share",
        median(plain_rates) / median(&traced_rates) - 1.0,
    );
    println!(
        "# fault_grid tracing overhead: untraced {:.3} days/s, traced {:.3} days/s ({} episode pairs)",
        median(plain_rates),
        median(&traced_rates),
        traced.len()
    );
}
