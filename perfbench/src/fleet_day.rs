//! `fleet_day`: 64 federated sites over one simulated day.
//!
//! `FleetConfig::new` defaults (one-day solar trace per site, 30 s site
//! steps under 1-minute routing ticks, hourly checkpoints), fleet-level
//! faults at a 2 h mean, and router demand scaled from the 3-site
//! prototype to the site count with a seeded ±10 % jitter (the
//! prototype demand is fixed, so most of 64 sites would idle). The same
//! step loop runs as many small interleaved systems, so per-site state
//! size, the router, the breakers and hedging dominate. An operation is
//! one site-day; the period is one routing tick (`Fleet::step_tick`).

use std::time::Instant;

use ins_core::controller::InsureController;
use ins_core::system::{InSituSystem, WorkloadModel};
use ins_fleet::fleet::{Fleet, FleetConfig};
use ins_fleet::metrics::{ClassCounters, FleetMetrics};
use ins_sim::rng::SimRng;
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::trace::high_generation_day;

use crate::check::{against_reference, Digest};
use crate::report::{EpisodeLog, Report, Tracer};
use crate::stats::{mean, median, percentile};
use crate::{Run, DEFAULT_SEED};

const NAME: &str = "fleet_day";
const SITES: usize = 64;
/// Sites whose construction the traced run replays for the solar and
/// build timings.
const BUILD_REPLAYS: usize = 4;

fn config(seed: u64) -> FleetConfig {
    let mut config = FleetConfig::new(seed, SITES).with_fleet_faults(SimDuration::from_hours(2));
    let mut rng = SimRng::seed(seed).fork("router-demand");
    let scale = SITES as f64 / 3.0 * rng.uniform(0.9, 1.1);
    let proto = config.router;
    config.router.stream_requests_per_tick =
        (f64::from(proto.stream_requests_per_tick) * scale).round() as u32;
    config.router.batch_requests_per_tick = (f64::from(proto.batch_requests_per_tick) * scale)
        .round()
        .max(1.0) as u32;
    config
}

fn counters(d: &mut Digest, class: &str, c: &ClassCounters) {
    d.put(format!("{class}.offered"), c.offered);
    d.put(format!("{class}.served"), c.served);
    d.put(format!("{class}.served_degraded"), c.served_degraded);
    d.put(format!("{class}.shed"), c.shed);
    d.put(format!("{class}.failed"), c.failed);
    d.num(format!("{class}.offered_gb"), c.offered_gb);
    d.num(format!("{class}.served_gb"), c.served_gb);
}

fn digest(m: &FleetMetrics) -> Digest {
    let mut d = Digest::new();
    counters(&mut d, "stream", &m.stream);
    counters(&mut d, "batch", &m.batch);
    d.put("retries", m.retries);
    d.put("hedges", m.hedges);
    d.put("duplicate_serves", m.duplicate_serves);
    d.num("misrouted_wh", m.misrouted_wh);
    d.put("fleet_faults", m.fleet_faults);
    d.put("breaker_trips", m.breaker_trips);
    d.put("breaker_resets", m.breaker_resets);
    for (i, a) in m.site_availability.iter().enumerate() {
        d.num(format!("site{i:02}.availability"), *a);
    }
    d
}

struct Day {
    setup_s: f64,
    run_s: f64,
    tick_us: Vec<f64>,
    metrics: FleetMetrics,
    site_steps: u64,
    trace_samples: u64,
}

fn fleet_day(seed: u64, tracer: Option<&mut Tracer>) -> Day {
    let start = Instant::now();
    let mut fleet = Fleet::new(config(seed));
    let setup_s = start.elapsed().as_secs_f64();
    let horizon = SimTime::ZERO + fleet.config().horizon;
    let mut tick_us = Vec::with_capacity(1440);
    let run_start = Instant::now();
    while fleet.now() < horizon {
        let t = Instant::now();
        fleet.step_tick();
        tick_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let run_s = run_start.elapsed().as_secs_f64();
    let (mut site_steps, mut trace_samples) = (0, 0);
    if let Some(tracer) = tracer {
        tracer.span("fleet_day.day", 0, start);
        for site in fleet.sites() {
            let sys = site.system();
            site_steps += sys.trace_load().len() as u64;
            trace_samples += [
                sys.trace_solar(),
                sys.trace_load(),
                sys.trace_stored(),
                sys.trace_pack_voltage(),
            ]
            .iter()
            .map(|t| t.len() as u64)
            .sum::<u64>();
        }
    }
    Day {
        setup_s,
        run_s,
        tick_us,
        metrics: fleet.metrics(),
        site_steps,
        trace_samples,
    }
}

/// Replays the construction of the first sites as `Fleet::new` builds
/// them; returns (solar ms, build ms) per site.
fn replay_builds(seed: u64) -> (f64, f64) {
    let config = config(seed);
    let fleet_rng = SimRng::seed(seed);
    let (mut solar_ms, mut build_ms) = (Vec::new(), Vec::new());
    for i in 0..BUILD_REPLAYS {
        let site_seed = fleet_rng.fork_seed(&format!("site-{i}"));
        let t = Instant::now();
        let solar = high_generation_day(site_seed);
        solar_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut builder = InSituSystem::builder(solar, Box::new(InsureController::default()))
            .unit_count(config.units_per_site)
            .workload(WorkloadModel::video())
            .time_step(config.site_time_step);
        if let Some(policy) = config.checkpoints {
            builder = builder.checkpoints(policy);
        }
        let t = Instant::now();
        std::hint::black_box(builder.build());
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (mean(&solar_ms), mean(&build_ms))
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let reference = fleet_day(Run::episode_seed(DEFAULT_SEED, NAME, 0), None);
    let reference_digest = digest(&reference.metrics);
    report.check(
        0,
        against_reference(&reference_digest, NAME, run.update_reference),
    );

    let ops = SITES as u64;
    let mut log = EpisodeLog::new();
    let mut plain_rates = Vec::new();
    let mut traced_days = Vec::new();
    let mut builds = Vec::new();
    run.for_duration(|k| {
        let seed = Run::episode_seed(run.seed, NAME, k);
        let day = fleet_day(seed, None);
        report.attempted += ops;
        let d = digest(&day.metrics);
        if run.seed == DEFAULT_SEED && k == 0 {
            report.check(ops, d.diff(&reference_digest, NAME, "reference"));
        }
        if !day.metrics.all_requests_resolved() {
            report.check(
                ops,
                crate::check::Mismatch::of(format!(
                    "MISMATCH workload={NAME} check=invariant field=all_requests_resolved episode={k}"
                )),
            );
        }
        if run.trace {
            let traced = fleet_day(seed, Some(tracer));
            report.check(ops, digest(&traced.metrics).diff(&d, NAME, "traced-vs-untraced"));
            plain_rates.push(SITES as f64 / day.run_s);
            builds.push(replay_builds(seed));
            traced_days.push(traced);
        } else {
            let tick_ms: Vec<f64> = day.tick_us.iter().map(|us| us / 1e3).collect();
            log.push(day.setup_s, SITES as f64 / day.run_s, &tick_ms);
        }
    });

    if !run.trace {
        report.end_to_end = log.end_to_end();
        return report;
    }

    let n = traced_days.len().max(1) as f64;
    let per_day = |f: &dyn Fn(&Day) -> f64| traced_days.iter().map(f).sum::<f64>() / n;
    let ticks: Vec<f64> = traced_days
        .iter()
        .flat_map(|d| d.tick_us.iter().copied())
        .collect();
    let traced_rates: Vec<f64> = traced_days.iter().map(|d| SITES as f64 / d.run_s).collect();
    let hedges = per_day(&|d| d.metrics.hedges as f64);
    let duplicates = per_day(&|d| d.metrics.duplicate_serves as f64);
    report.layer("fleet.tick_us_p50", percentile(&ticks, 0.5));
    report.layer("fleet.tick_us_p99", percentile(&ticks, 0.99));
    report.layer("fleet.site_steps", per_day(&|d| d.site_steps as f64));
    report.layer("fleet.retries", per_day(&|d| d.metrics.retries as f64));
    report.layer("fleet.hedges", hedges);
    report.layer("fleet.duplicate_serves", duplicates);
    report.layer("fleet.duplicates_per_hedge", duplicates / hedges.max(1.0));
    report.layer("core.steps", per_day(&|d| d.site_steps as f64));
    report.layer("sim.trace_samples", per_day(&|d| d.trace_samples as f64));
    report.layer(
        "sim.trace_bytes",
        per_day(&|d| d.trace_samples as f64) * std::mem::size_of::<ins_sim::trace::Sample>() as f64,
    );
    report.layer(
        "sim.fault_events",
        per_day(&|d| d.metrics.fleet_faults as f64),
    );
    report.layer(
        "solar.build_ms",
        mean(&builds.iter().map(|b| b.0).collect::<Vec<_>>()),
    );
    report.layer(
        "core.build_ms",
        mean(&builds.iter().map(|b| b.1).collect::<Vec<_>>()),
    );
    report.layer(
        "trace.overhead_share",
        median(&plain_rates) / median(&traced_rates) - 1.0,
    );
    println!(
        "# fleet_day tracing overhead: untraced {:.3} days/s, traced {:.3} days/s ({} episode pairs)",
        median(&plain_rates),
        median(&traced_rates),
        traced_days.len()
    );
    report
}
