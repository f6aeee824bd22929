//! `site_year`: one prototype system through a year of mixed weather.
//!
//! Three cabinets under the InSURE controller, a 10 s step and hourly
//! checkpoints, 365 seeded days at sunshine fraction 0.6 (the weather
//! model `endurance` uses), no faults. The step loop does nearly all the
//! work. An operation is one simulated site-day; the period is one
//! simulated hour (360 steps, one `run_until` call).
//!
//! The traced run times every `InSituSystem::step` and, every
//! `REPLAY_STRIDE` steps, clones the state the public accessors expose
//! and replays each stage's public call on the clone, so the measured
//! system is never perturbed.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use ins_battery::BatteryUnit;
use ins_core::controller::{
    ControlAction, InsureController, PowerController, SnapshotController, SystemObservation,
};
use ins_core::system::InSituSystem;
use ins_powernet::bus::LoadBus;
use ins_powernet::charger::ChargeController;
use ins_sim::rng::SimRng;
use ins_sim::time::{SimDuration, SimTime};
use ins_sim::trace::{Sample, Trace};
use ins_sim::units::{Amps, Watts};
use ins_solar::trace::{SolarTrace, SolarTraceBuilder};
use ins_solar::weather::DayWeather;
use ins_workload::checkpoint::CheckpointPolicy;

use crate::check::{against_reference, Digest};
use crate::report::{EpisodeLog, Report, Tracer};
use crate::stats::{mean, median, NsHistogram};
use crate::{Run, DEFAULT_SEED};

const NAME: &str = "site_year";
const DAYS: u64 = 365;
const STEP: SimDuration = SimDuration::from_secs(10);
/// Every 13th step is replayed stage by stage; 13 is prime to the
/// 6-step control period, so replays sample every step phase.
const REPLAY_STRIDE: u64 = 13;

fn solar_for(seed: u64) -> SolarTrace {
    let mut rng = SimRng::seed(seed);
    let weather = DayWeather::mix_for_sunshine_fraction(0.6, DAYS as usize, &mut rng);
    SolarTraceBuilder::new().seed(seed).build_days(&weather)
}

fn system_for(solar: SolarTrace, controller: Box<dyn PowerController>) -> InSituSystem {
    InSituSystem::builder(solar, controller)
        .unit_count(3)
        .time_step(STEP)
        .checkpoints(CheckpointPolicy::prototype())
        .build()
}

const HOURS: u64 = DAYS * 24;

fn hour_end(hour: u64) -> SimTime {
    SimTime::from_secs(hour * 3600)
}

fn digest(sys: &InSituSystem) -> Digest {
    let mut d = Digest::new();
    let workload = sys.workload();
    d.num("processed_gb", workload.processed_gb());
    d.num("pending_gb", workload.pending_gb());
    d.num("goodput_gb", sys.goodput_gb());
    d.num("lost_work_gb", sys.lost_work_gb());
    d.num("service_availability", sys.service_availability());
    d.num("rack_availability", sys.rack().availability());
    d.num(
        "discharge_throughput_ah",
        sys.total_discharge_throughput().value(),
    );
    for u in sys.units() {
        d.num(
            format!("unit{}.throughput_ah", u.id().0),
            u.discharge_throughput().value(),
        );
        d.num(format!("unit{}.soc", u.id().0), u.soc().value());
    }
    d.put("switch_ops", sys.matrix().total_switch_operations());
    let c = sys.checkpoint_counters();
    d.put("checkpoints.written", c.written);
    d.put("checkpoints.torn", c.torn);
    d.put("checkpoints.lost", c.lost);
    d.put("checkpoints.restored", c.restored);
    d.put("brownouts", sys.brownout_count());
    d.put("events", sys.events().len());
    d.num("solar_harvested_wh", sys.solar_harvested().value());
    d.num("battery_delivered_wh", sys.battery_delivered().value());
    for trace in traces(sys) {
        let s = trace.stats();
        d.put(format!("trace[{}].len", trace.name()), trace.len());
        d.num(format!("trace[{}].mean", trace.name()), s.mean());
        d.num(format!("trace[{}].min", trace.name()), s.min());
        d.num(format!("trace[{}].max", trace.name()), s.max());
    }
    d
}

fn traces(sys: &InSituSystem) -> [&Trace; 4] {
    [
        sys.trace_solar(),
        sys.trace_load(),
        sys.trace_stored(),
        sys.trace_pack_voltage(),
    ]
}

/// One untraced year: setup, per-hour host times, outputs.
struct Year {
    setup_s: f64,
    run_s: f64,
    hour_ms: Vec<f64>,
    digest: Digest,
}

/// Hours between reference-kernel samples inside an untraced year: a
/// year runs for seconds, and the host's speed changes within one.
const MARK_HOURS: u64 = 360;

/// `log`, when given, samples the reference kernel every `MARK_HOURS`.
fn untraced_year(seed: u64, mut log: Option<&mut EpisodeLog>) -> Year {
    let start = Instant::now();
    let solar = solar_for(seed);
    let mut sys = system_for(solar, Box::new(InsureController::default()));
    let setup_s = start.elapsed().as_secs_f64();
    let mut hour_ms = Vec::with_capacity(HOURS as usize);
    for hour in 1..=HOURS {
        let t = Instant::now();
        sys.run_until(hour_end(hour));
        hour_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(log) = log.as_deref_mut() {
            if hour % MARK_HOURS == 0 && hour < HOURS {
                log.mark(hour_ms.len());
            }
        }
    }
    Year {
        setup_s,
        run_s: hour_ms.iter().sum::<f64>() / 1e3,
        hour_ms,
        digest: digest(&sys),
    }
}

/// Host time and call count of the controller, shared with the wrapper
/// installed in the system.
#[derive(Debug, Default)]
struct ControlTiming {
    calls: u64,
    ns: f64,
}

/// Times `PowerController::control` and forwards everything else,
/// including `fork_controller`, so a wrapped system still forks.
struct TimedController {
    inner: Box<dyn PowerController>,
    timing: Rc<RefCell<ControlTiming>>,
}

impl PowerController for TimedController {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn control(&mut self, obs: &SystemObservation) -> ControlAction {
        let start = Instant::now();
        let action = self.inner.control(obs);
        let ns = start.elapsed().as_nanos() as f64;
        let mut t = self.timing.borrow_mut();
        t.calls += 1;
        t.ns += ns;
        action
    }

    fn fork_controller(&self) -> Option<Box<dyn SnapshotController>> {
        self.inner.fork_controller()
    }
}

/// Per-stage replay sums over the sampled steps.
#[derive(Debug, Default)]
struct Stages {
    replays: u64,
    power_at: f64,
    power_demand: f64,
    settle: f64,
    charger: f64,
    rack_step: f64,
    workload_step: f64,
    /// Sum over replays of every stage's cost at that step.
    covered: f64,
    rest: (f64, u64),
    discharge: (f64, u64),
    charge: (f64, u64),
    battery_calls: u64,
}

/// Replays each stage of the coming step on clones of the state the
/// public accessors expose, with the inputs that step will see.
fn replay(run: &Run, sys: &InSituSystem, solar: &SolarTrace, st: &mut Stages) {
    let now = sys.now();
    let dt_h = STEP.as_hours();

    let t = Instant::now();
    let sun = black_box(solar.power_at(black_box(now)));
    let power_at = run.ns_since(t);

    let util = sys.workload().utilization();
    let checkpoint_power = match sys.checkpointer() {
        Some(c) if c.store.writing() => c.policy.write_power,
        _ => Watts::ZERO,
    };
    let t = Instant::now();
    let demand = black_box(sys.rack().power_demand(black_box(util))) + checkpoint_power;
    let power_demand = run.ns_since(t);

    let discharging = sys.matrix().discharging_units();
    let charging = sys.matrix().charging_units();
    let mut units: Vec<BatteryUnit> = sys.units().to_vec();
    let bus = LoadBus::prototype();
    let (settlement, settle) = {
        let mut refs: Vec<&mut BatteryUnit> = units
            .iter_mut()
            .filter(|u| discharging.contains(&u.id()))
            .collect();
        let t = Instant::now();
        let s = bus.settle(demand, sun, &mut refs, dt_h);
        (black_box(s), run.ns_since(t))
    };
    let solar_left = (sun - settlement.solar_used).max(Watts::ZERO);
    let charger_ns = {
        let mut refs: Vec<&mut BatteryUnit> = units
            .iter_mut()
            .filter(|u| charging.contains(&u.id()))
            .collect();
        let t = Instant::now();
        black_box(ChargeController::prototype().charge(&mut refs, solar_left, dt_h));
        run.ns_since(t)
    };

    let mut rest_ns = 0.0;
    let pack_v = sys
        .units()
        .first()
        .map_or(24.0, |u| u.params().nominal_voltage.value());
    let share = settlement.battery_used.value() / pack_v / discharging.len().max(1) as f64;
    for unit in sys.units() {
        let mut c = unit.clone();
        if discharging.contains(&unit.id()) {
            let t = Instant::now();
            black_box(c.discharge(Amps::new(share), dt_h));
            st.discharge.0 += run.ns_since(t);
            st.discharge.1 += 1;
        } else if charging.contains(&unit.id()) {
            let applied = c.acceptance_limit();
            let t = Instant::now();
            black_box(c.charge(applied, dt_h));
            st.charge.0 += run.ns_since(t);
            st.charge.1 += 1;
        } else {
            let t = Instant::now();
            c.rest(dt_h);
            black_box(&c);
            let ns = run.ns_since(t);
            rest_ns += ns;
            st.rest.0 += ns;
            st.rest.1 += 1;
        }
    }
    st.battery_calls += sys.units().len() as u64;

    let mut rack = sys.rack().clone();
    let t = Instant::now();
    black_box(rack.step(STEP, util));
    let rack_step = run.ns_since(t);

    let mut workload = sys.workload().clone();
    let capacity = workload.capacity_gb_per_hour(rack.active_vms(), rack.duty().fraction());
    let t = Instant::now();
    workload.step(now, STEP, capacity);
    black_box(&workload);
    let workload_step = run.ns_since(t);

    st.replays += 1;
    st.power_at += power_at;
    st.power_demand += power_demand;
    st.settle += settle;
    st.charger += charger_ns;
    st.rack_step += rack_step;
    st.workload_step += workload_step;
    st.covered +=
        power_at + power_demand + settle + charger_ns + rest_ns + rack_step + workload_step;
}

/// Step and stage timings summed over every traced year of a run.
struct Totals {
    steps: NsHistogram,
    /// Step host time and count over the first `EARLY_DAYS` days and over
    /// the rest of the year.
    early: (f64, u64),
    late: (f64, u64),
    stages: Stages,
    control: Rc<RefCell<ControlTiming>>,
}

/// A 120-day run's horizon, to compare its step cost with the year's
/// while the traces are still small.
const EARLY_DAYS: u64 = 120;

/// One traced year: the same inputs as [`untraced_year`], every step
/// timed and a sample of steps replayed stage by stage. `run_s` is the
/// wall time of the day loops, replays included, so the traced rate
/// carries the whole tracing overhead.
struct TracedYear {
    run_s: f64,
    solar_ms: f64,
    build_ms: f64,
    trace_samples: u64,
    switch_ops: u64,
    checkpoint_writes: u64,
    digest: Digest,
}

fn traced_year(run: &Run, tracer: &mut Tracer, totals: &mut Totals, seed: u64) -> TracedYear {
    let year_start = Instant::now();
    let t = Instant::now();
    let solar = solar_for(seed);
    let solar_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.span("solar.build_days", 0, t);
    let controller = TimedController {
        inner: Box::new(InsureController::default()),
        timing: Rc::clone(&totals.control),
    };
    // The replays read the trace through a copy; the copy is not timed.
    let trace_copy = solar.clone();
    let t = Instant::now();
    let mut sys = system_for(trace_copy, Box::new(controller));
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.span("core.build", 0, t);

    let mut run_s = 0.0;
    let mut k: u64 = 0;
    for day in 1..=DAYS {
        let day_start = Instant::now();
        let end = hour_end(day * 24);
        while sys.now() < end {
            if k.is_multiple_of(REPLAY_STRIDE) {
                replay(run, &sys, &solar, &mut totals.stages);
            }
            k += 1;
            let t = Instant::now();
            sys.step();
            let ns = t.elapsed().as_nanos() as u64;
            totals.steps.record(ns);
            let part = if day <= EARLY_DAYS {
                &mut totals.early
            } else {
                &mut totals.late
            };
            part.0 += ns as f64;
            part.1 += 1;
        }
        run_s += day_start.elapsed().as_secs_f64();
        tracer.span("site_year.day", 0, day_start);
    }
    tracer.span("site_year.year", 0, year_start);
    TracedYear {
        run_s,
        solar_ms,
        build_ms,
        trace_samples: traces(&sys).iter().map(|t| t.len() as u64).sum(),
        switch_ops: sys.matrix().total_switch_operations(),
        checkpoint_writes: sys.checkpoint_counters().written,
        digest: digest(&sys),
    }
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    // Reference replay at the default seed: checks the outputs and warms
    // the allocator; it is not part of any metric.
    let reference = untraced_year(Run::episode_seed(DEFAULT_SEED, NAME, 0), None);
    report.check(
        0,
        against_reference(&reference.digest, NAME, run.update_reference),
    );
    // Episode 0 of a default-seed run replays the reference inputs.
    let check_ref = |report: &mut Report, k: usize, digest: &Digest| {
        if run.seed == DEFAULT_SEED && k == 0 {
            report.check(DAYS, digest.diff(&reference.digest, NAME, "reference"));
        }
    };

    if !run.trace {
        let mut log = EpisodeLog::new();
        run.for_duration(|k| {
            let year = untraced_year(Run::episode_seed(run.seed, NAME, k), Some(&mut log));
            report.attempted += DAYS;
            check_ref(&mut report, k, &year.digest);
            log.push(year.setup_s, DAYS as f64 / year.run_s, &year.hour_ms);
        });
        report.end_to_end = log.end_to_end();
        return report;
    }

    let mut plain_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut years = Vec::new();
    let mut totals = Totals {
        steps: NsHistogram::new(),
        early: (0.0, 0),
        late: (0.0, 0),
        stages: Stages::default(),
        control: Rc::default(),
    };
    run.for_duration(|k| {
        let seed = Run::episode_seed(run.seed, NAME, k);
        let plain = untraced_year(seed, None);
        let traced = traced_year(run, tracer, &mut totals, seed);
        report.attempted += DAYS;
        check_ref(&mut report, k, &plain.digest);
        report.check(
            DAYS,
            traced
                .digest
                .diff(&plain.digest, NAME, "traced-vs-untraced"),
        );
        plain_rates.push(DAYS as f64 / plain.run_s);
        traced_rates.push(DAYS as f64 / traced.run_s);
        years.push(traced);
    });

    let (steps, st) = (&totals.steps, &totals.stages);
    let control = totals.control.borrow();
    let n = years.len() as f64;
    let step_mean = steps.mean();
    let per = |sum: f64| sum / st.replays.max(1) as f64;
    let per_call = |(sum, calls): (f64, u64)| sum / calls.max(1) as f64;
    let control_per_step = control.ns / steps.count().max(1) as f64;
    let covered = per(st.covered) + control_per_step;

    report.layer("core.step_ns", step_mean);
    report.layer("core.step_ns_p99", steps.percentile(0.99));
    report.layer("core.steps", steps.count() as f64 / n);
    report.layer("core.control_ns", control.ns / control.calls.max(1) as f64);
    report.layer("core.control_calls", control.calls as f64 / n);
    report.layer("core.step_uncovered_share", 1.0 - covered / step_mean);
    report.layer(
        "core.build_ms",
        mean(&years.iter().map(|y| y.build_ms).collect::<Vec<_>>()),
    );
    report.layer("battery.discharge_ns", per_call(st.discharge));
    report.layer("battery.charge_ns", per_call(st.charge));
    report.layer("battery.rest_ns", per_call(st.rest));
    report.layer(
        "battery.calls_per_step",
        st.battery_calls as f64 / st.replays.max(1) as f64,
    );
    report.layer("powernet.settle_ns", per(st.settle));
    report.layer("powernet.charger_ns", per(st.charger));
    report.layer("cluster.rack_step_ns", per(st.rack_step));
    report.layer("cluster.power_demand_ns", per(st.power_demand));
    report.layer("workload.step_ns", per(st.workload_step));
    report.layer(
        "solar.build_ms",
        mean(&years.iter().map(|y| y.solar_ms).collect::<Vec<_>>()),
    );
    report.layer("solar.power_at_ns", per(st.power_at));
    if let Some(y) = years.first() {
        report.layer("powernet.switch_ops", y.switch_ops as f64);
        report.layer("workload.checkpoint_writes", y.checkpoint_writes as f64);
        report.layer("sim.trace_samples", y.trace_samples as f64);
        report.layer(
            "sim.trace_bytes",
            (y.trace_samples as usize * std::mem::size_of::<Sample>()) as f64,
        );
    }
    report.layer(
        "trace.overhead_share",
        median(&plain_rates) / median(&traced_rates) - 1.0,
    );
    println!(
        "# site_year tracing overhead: untraced {:.3} days/s, traced {:.3} days/s",
        median(&plain_rates),
        median(&traced_rates)
    );
    let mean_ns = |(sum, n): (f64, u64)| sum / n.max(1) as f64;
    println!(
        "# site_year step cost: days 1-{EARLY_DAYS} {:.1} ns, days {}-{DAYS} {:.1} ns",
        mean_ns(totals.early),
        EARLY_DAYS + 1,
        mean_ns(totals.late)
    );
    report
}
