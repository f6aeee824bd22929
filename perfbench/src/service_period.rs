//! `service_period`: one `ServiceCore` driven with the daemon's
//! per-period work.
//!
//! The engine runs on its own worker thread (`ThreadedExecutor`, 250 ms
//! deadline) behind the prototype spec (3 cabinets, 60 s period, 10 s
//! step). Input is a replay feed generated from the seed: a seeded
//! solar day and stream offers around the admission release budget, so
//! the intake queue fills, plus seeded batch offers standing in for
//! socket clients, so admission sheds. Each period is the daemon loop's
//! own closed-loop shape with one caller and no pacing: offers,
//! `ServiceCore::tick`, and the telemetry line write and flush. One
//! episode is one simulated day (1440 periods and the drain). An
//! operation is one control period.
//!
//! The caller and the engine's worker thread share one CPU (see
//! `host::pin_to_current_cpu`), so a handoff is a context switch on that
//! CPU, not a wake-up of another vCPU by the hypervisor.
//!
//! The untraced run is the daemon without `--resume`: on a shared host
//! the per-period `ResumeToken::save` fsync swings from 1 ms to over
//! 8 ms between runs, which would bury every change to the code in disk
//! noise. The traced run adds the resume-token save after every period,
//! as `--resume` does, and reports its cost (`service.token_save_ms`)
//! and its share of a period.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ins_core::controller::SystemObservation;
use ins_core::engine::PolicyDecision;
use ins_service::admission::WorkClass;
use ins_service::daemon::ThreadedExecutor;
use ins_service::harness::{ServiceCore, ServiceSpec};
use ins_service::supervisor::{EngineExecutor, EngineFault};
use ins_sim::replay::ReplayFeed;
use ins_sim::rng::SimRng;
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::trace::SolarTraceBuilder;
use ins_solar::weather::DayWeather;

use crate::check::{against_reference, fnv64, Digest, Mismatch};
use crate::report::{EpisodeLog, Report, Tracer};
use crate::stats::{mean, median, percentile};
use crate::{Run, DEFAULT_SEED};

const NAME: &str = "service_period";
const PERIODS: u64 = 1440;
const ENGINE: &str = "insure";
const DEADLINE: Duration = Duration::from_millis(250);

/// The replay feed (`time_s, solar_w, work_gb`, one row a minute) and
/// the per-period batch offers, all drawn from `seed`.
fn inputs(seed: u64) -> (String, Vec<Option<f64>>) {
    let mut rng = SimRng::seed(seed).fork("replay-feed");
    let weather = if rng.chance(0.6) {
        DayWeather::Sunny
    } else {
        DayWeather::Cloudy
    };
    let solar = SolarTraceBuilder::new()
        .weather(weather)
        .seed(seed)
        .sample_interval(SimDuration::from_minutes(1))
        .build_day();
    // The prototype admission releases 10 GB a period; offers averaging
    // just under that, with ±50 % per-period swings, keep the queue
    // filling and draining all day.
    let base_gb = rng.uniform(9.0, 10.0);
    let mut csv = String::new();
    for minute in 0..=PERIODS {
        let t = minute * 60;
        let watts = solar.power_at(SimTime::from_secs(t)).value();
        let gb = base_gb * rng.uniform(0.5, 1.5);
        let _ = writeln!(csv, "{t},{watts:.3},{gb:.4}");
    }
    let batch = (0..PERIODS)
        .map(|_| rng.chance(0.25).then(|| rng.uniform(1.0, 4.0)))
        .collect();
    (csv, batch)
}

/// Wall time and count of engine decisions: the round trip to the
/// worker thread, as the plant's controller slot waits on it.
#[derive(Debug, Default, Clone, Copy)]
struct DecideTiming {
    calls: u64,
    ns: f64,
}

/// Times `EngineExecutor::decide` on the wrapped executor and forwards
/// everything else.
struct TimedExecutor {
    inner: ThreadedExecutor,
    timing: Rc<RefCell<DecideTiming>>,
}

impl EngineExecutor for TimedExecutor {
    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }

    fn decide(&mut self, obs: &SystemObservation) -> Result<PolicyDecision, EngineFault> {
        let t = Instant::now();
        let out = self.inner.decide(obs);
        let ns = t.elapsed().as_nanos() as f64;
        let mut timing = self.timing.borrow_mut();
        timing.calls += 1;
        timing.ns += ns;
        out
    }

    fn restart(&mut self) -> bool {
        self.inner.restart()
    }

    fn inject(&mut self, fault: EngineFault) {
        self.inner.inject(fault);
    }
}

#[derive(Debug, Default)]
struct Day {
    setup_s: f64,
    run_s: f64,
    period_ms: Vec<f64>,
    digest: Digest,
    safe_periods: u64,
    io_errors: u64,
    // Traced only.
    tick_ms: Vec<f64>,
    write_us: Vec<f64>,
    save_ms: Vec<f64>,
    decide: DecideTiming,
    queued_max: u64,
    /// Restarts, then offered, served, degraded, shed and failed
    /// requests over both classes.
    counts: [u64; 6],
}

fn emit(file: &mut File, line: &str) -> std::io::Result<()> {
    writeln!(file, "{line}")?;
    file.flush()
}

fn service_day(run: &Run, seed: u64, traced: bool) -> Result<Day, String> {
    let telemetry = run.work_dir.join("telemetry.log");
    let token = run.work_dir.join("resume.token");
    for stale in [&telemetry, &token] {
        if stale.exists() {
            std::fs::remove_file(stale).map_err(|e| format!("remove {}: {e}", stale.display()))?;
        }
    }

    let start = Instant::now();
    let (csv, batch) = inputs(seed);
    let feed = ReplayFeed::parse(&csv).map_err(|e| format!("generated feed rejected: {e}"))?;
    let mut spec = ServiceSpec::prototype(ENGINE, seed);
    spec.replay = Some(feed);
    let threaded =
        ThreadedExecutor::try_new(ENGINE, DEADLINE).map_err(|e| format!("executor: {e}"))?;
    let timing = Rc::new(RefCell::new(DecideTiming::default()));
    let exec: Box<dyn EngineExecutor> = if traced {
        Box::new(TimedExecutor {
            inner: threaded,
            timing: Rc::clone(&timing),
        })
    } else {
        Box::new(threaded)
    };
    let mut core = ServiceCore::with_executor(spec, exec).map_err(|e| format!("service: {e}"))?;
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&telemetry)
        .map_err(|e| format!("open {}: {e}", telemetry.display()))?;
    let mut day = Day {
        setup_s: start.elapsed().as_secs_f64(),
        ..Day::default()
    };
    let header = format!("# insure-service engine={ENGINE} seed={seed} resumed_from=0");
    day.io_errors += u64::from(emit(&mut file, &header).is_err());

    let mut lines = Vec::with_capacity(PERIODS as usize + 1);
    let mut queued_max = 0;
    let run_start = Instant::now();
    for offer in &batch {
        if core.feed_exhausted() {
            break;
        }
        let t0 = Instant::now();
        if let Some(gb) = offer {
            core.offer(WorkClass::Batch, *gb);
        }
        let Some(line) = core.tick() else { break };
        let t1 = Instant::now();
        day.io_errors += u64::from(emit(&mut file, &line).is_err());
        let t2 = Instant::now();
        day.period_ms
            .push(t2.duration_since(t0).as_secs_f64() * 1e3);
        if traced {
            day.io_errors += u64::from(save(&core, &token).is_err());
            day.save_ms.push(t2.elapsed().as_secs_f64() * 1e3);
            day.tick_ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
            day.write_us.push(t2.duration_since(t1).as_secs_f64() * 1e6);
            queued_max = queued_max.max(core.admission().queued_requests());
        }
        lines.push(line);
    }
    let drain = core.drain();
    day.io_errors += u64::from(emit(&mut file, &drain.line).is_err());
    if traced {
        day.io_errors += u64::from(save(&core, &token).is_err());
    }
    day.run_s = run_start.elapsed().as_secs_f64();

    let counters = core.supervisor_counters();
    day.safe_periods = counters.safe_periods;
    let a = core.admission();
    let (s, b) = (a.counters(WorkClass::Stream), a.counters(WorkClass::Batch));
    day.digest.put("periods", lines.len());
    for (i, line) in lines.iter().enumerate() {
        day.digest
            .put(format!("line.{i:04}"), format!("{:016x}", fnv64(line)));
    }
    day.digest.put("drain", &drain.line);
    day.digest.put("fully_accounted", a.fully_accounted());
    for (class, c) in [("stream", s), ("batch", b)] {
        day.digest.put(
            format!("{class}.offered/served/degraded/shed/failed"),
            format!(
                "{}/{}/{}/{}/{}",
                c.offered, c.served, c.degraded, c.shed, c.failed
            ),
        );
    }
    if traced {
        day.decide = *timing.borrow();
        day.queued_max = queued_max;
        day.counts = [
            counters.restarts,
            s.offered + b.offered,
            s.served + b.served,
            s.degraded + b.degraded,
            s.shed + b.shed,
            s.failed + b.failed,
        ];
    }
    Ok(day)
}

fn save(core: &ServiceCore, token: &Path) -> Result<(), String> {
    core.resume_token().save(token).map_err(|e| e.to_string())
}

/// Counts periods decided by safe mode and failed writes as failed
/// operations.
fn check_day(report: &mut Report, day: &Day, k: usize) {
    if day.safe_periods > 0 {
        report.check(
            day.safe_periods,
            Mismatch::of(format!(
                "MISMATCH workload={NAME} check=deadline field=safe_periods episode={k}: {} periods decided by safe mode",
                day.safe_periods
            )),
        );
    }
    if day.io_errors > 0 {
        report.check(
            day.io_errors,
            Mismatch::of(format!(
                "workload={NAME} episode={k}: {} telemetry or resume-token writes failed",
                day.io_errors
            )),
        );
    }
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    // The engine's worker thread shares the caller's CPU; see
    // `pin_to_current_cpu`.
    match crate::host::pin_to_current_cpu() {
        Some(cpu) => println!("# service_period: caller and engine worker pinned to CPU {cpu}"),
        None => println!("# service_period: not pinned, the engine handoff may cross CPUs"),
    }
    let day_or_fail =
        |report: &mut Report, seed: u64, traced: bool| match service_day(run, seed, traced) {
            Ok(day) => Some(day),
            Err(e) => {
                report.check(PERIODS, Mismatch::of(format!("workload={NAME}: {e}")));
                None
            }
        };
    let Some(reference) = day_or_fail(&mut report, Run::episode_seed(DEFAULT_SEED, NAME, 0), false)
    else {
        return report;
    };
    report.check(
        0,
        against_reference(&reference.digest, NAME, run.update_reference),
    );

    let mut log = EpisodeLog::new();
    let mut plain_p50 = Vec::new();
    let mut traced_days = Vec::new();
    run.for_duration(|k| {
        let seed = Run::episode_seed(run.seed, NAME, k);
        report.attempted += PERIODS;
        let Some(day) = day_or_fail(&mut report, seed, false) else {
            return;
        };
        check_day(&mut report, &day, k);
        if run.seed == DEFAULT_SEED && k == 0 {
            // A differing telemetry line is one failed period.
            let mismatch = day.digest.diff(&reference.digest, NAME, "reference");
            report.check(mismatch.fields as u64, mismatch);
        }
        if run.trace {
            let t = Instant::now();
            let Some(traced) = day_or_fail(&mut report, seed, true) else {
                return;
            };
            tracer.span("service_period.day", 0, t);
            let mismatch = traced.digest.diff(&day.digest, NAME, "traced-vs-untraced");
            report.check(mismatch.fields as u64, mismatch);
            plain_p50.push(percentile(&day.period_ms, 0.5));
            traced_days.push(traced);
        } else {
            log.push(day.setup_s, 1.0 / day.run_s, &day.period_ms);
        }
    });

    if !run.trace {
        report.end_to_end = log.end_to_end();
        return report;
    }

    let n = traced_days.len().max(1) as f64;
    let all = |f: &dyn Fn(&Day) -> &Vec<f64>| -> Vec<f64> {
        traced_days
            .iter()
            .flat_map(|d| f(d).iter().copied())
            .collect()
    };
    let per_day = |i: usize| traced_days.iter().map(|d| d.counts[i] as f64).sum::<f64>() / n;
    let decide_calls: u64 = traced_days.iter().map(|d| d.decide.calls).sum();
    let decide_ns: f64 = traced_days.iter().map(|d| d.decide.ns).sum();
    let traced_p50: Vec<f64> = traced_days
        .iter()
        .map(|d| percentile(&d.period_ms, 0.5))
        .collect();
    let tick_ms = all(&|d| &d.tick_ms);
    let save_ms = all(&|d| &d.save_ms);
    report.layer("service.tick_ms", mean(&tick_ms));
    report.layer(
        "service.decide_us",
        decide_ns / decide_calls.max(1) as f64 / 1e3,
    );
    report.layer("service.telemetry_write_us", mean(&all(&|d| &d.write_us)));
    report.layer("service.token_save_ms", mean(&save_ms));
    report.layer(
        "service.safe_periods",
        traced_days
            .iter()
            .map(|d| d.safe_periods as f64)
            .sum::<f64>()
            / n,
    );
    report.layer("service.restarts", per_day(0));
    report.layer("service.offered", per_day(1));
    report.layer("service.served", per_day(2));
    report.layer("service.degraded", per_day(3));
    report.layer("service.shed", per_day(4));
    report.layer("service.failed", per_day(5));
    report.layer(
        "service.queued_max",
        traced_days.iter().map(|d| d.queued_max).max().unwrap_or(0) as f64,
    );
    report.layer(
        "trace.overhead_share",
        median(&traced_p50) / median(&plain_p50) - 1.0,
    );
    let period = mean(&all(&|d| &d.period_ms));
    println!(
        "# service_period: with --resume the token save is {:.1} % of a period ({:.4} of {:.4} ms mean); tracing overhead on period p50 (save excluded): untraced {:.4} ms, traced {:.4} ms ({} day pairs)",
        100.0 * mean(&save_ms) / (period + mean(&save_ms)),
        mean(&save_ms),
        period + mean(&save_ms),
        median(&plain_p50),
        median(&traced_p50),
        traced_days.len()
    );
    report
}
