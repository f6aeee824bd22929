//! Deterministic crash-recovery properties over the full system.
//!
//! The checkpoint subsystem's contract, exercised end to end: a crash at
//! any instant loses at most the work since the last durable checkpoint;
//! recovery restores only durable state (a torn write is never
//! restorable); and the whole crash → recover trajectory replays
//! bit-identically from the same seed.
//!
//! CI's chaos job fans the fixed-seed tests across a seed matrix via the
//! `INS_CHAOS_SEED` environment variable (default 11).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use insure::core::controller::InsureController;
use insure::core::metrics::RunMetrics;
use insure::core::system::{InSituSystem, SystemEvent};
use insure::sim::fault::{FaultEvent, FaultKind, FaultSchedule, FaultTargets};
use insure::sim::time::{SimDuration, SimTime};
use insure::solar::trace::high_generation_day;
use insure::workload::checkpoint::CheckpointPolicy;
use proptest::prelude::*;

const TARGETS: FaultTargets = FaultTargets {
    units: 3,
    servers: 4,
};

/// The chaos-matrix seed: `INS_CHAOS_SEED` when set (CI fans a matrix of
/// values across jobs), the repo's canonical seed 11 otherwise.
fn chaos_seed() -> u64 {
    std::env::var("INS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11)
}

/// A checkpointed InSURE system under the extended stochastic fault menu
/// (hardware faults plus checkpoint corruption, torn writes and restart
/// storms).
fn checkpointed_system(seed: u64, mean_minutes: u64, interval_minutes: u64) -> InSituSystem {
    let schedule = FaultSchedule::stochastic_extended(
        seed,
        SimDuration::from_hours(24),
        SimDuration::from_minutes(mean_minutes),
        TARGETS,
    );
    InSituSystem::builder(
        high_generation_day(seed),
        Box::new(InsureController::default()),
    )
    .unit_count(TARGETS.units)
    .time_step(SimDuration::from_secs(30))
    .fault_schedule(schedule)
    .checkpoints(CheckpointPolicy::with_interval(SimDuration::from_minutes(
        interval_minutes,
    )))
    .build()
}

/// The invariants every crashed-and-recovered run must satisfy.
fn assert_recovery_invariants(sys: &InSituSystem) {
    let c = sys.checkpoint_counters();
    // The torn-write rule, observed from outside: only completed durable
    // writes are ever restorable, so restores can never outnumber them.
    assert!(
        c.restored <= c.written,
        "restored {} checkpoints but only {} ever became durable — \
         a torn write was restored",
        c.restored,
        c.written
    );
    // Every restore-from-durable is audited as an event, one for one.
    let restored_events = sys
        .events()
        .count(|e| matches!(e, SystemEvent::CheckpointRestored));
    assert_eq!(restored_events as u64, c.restored);
    let m = RunMetrics::collect(sys);
    assert!(
        m.goodput_gb <= m.processed_gb + 1e-9,
        "goodput exceeds throughput"
    );
    assert!(m.goodput_gb >= 0.0 && m.lost_work_gb >= 0.0);
    assert!(m.lost_work_hours >= 0.0 && m.lost_work_hours.is_finite());
    assert!(m.mttr_minutes >= 0.0 && m.mttr_minutes.is_finite());
    assert_eq!(m.recoveries, sys.recovery_durations().len());
    for unit in sys.units() {
        let soc = unit.soc();
        assert!((0.0..=1.0).contains(&soc), "SoC {soc} escaped [0, 1]");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash at an arbitrary step: a scripted server crash + torn write
    /// + later checkpoint corruption at a fuzzed instant, on top of the
    /// day's natural outages. The system must recover and hold every
    /// recovery invariant to end of day.
    #[test]
    fn crash_at_arbitrary_step_recovers(
        crash_min in 60u64..1200,
        server in 0usize..4,
        interval in 15u64..121,
    ) {
        let crash_at = SimTime::from_secs(crash_min * 60);
        let schedule = FaultSchedule::from_events(1, vec![
            FaultEvent { at: crash_at, kind: FaultKind::TornWrite { server } },
            FaultEvent { at: crash_at, kind: FaultKind::ServerCrash { server } },
            FaultEvent {
                at: crash_at + SimDuration::from_minutes(30),
                kind: FaultKind::CheckpointCorruption { server },
            },
        ]);
        let mut sys = InSituSystem::builder(
            high_generation_day(7),
            Box::new(InsureController::default()),
        )
        .unit_count(TARGETS.units)
        .time_step(SimDuration::from_secs(30))
        .fault_schedule(schedule)
        .checkpoints(CheckpointPolicy::with_interval(SimDuration::from_minutes(interval)))
        .build();
        sys.run_until(SimTime::from_hms(23, 59, 30));
        assert_recovery_invariants(&sys);
    }

    /// The same seed replays the same crash → recover trajectory
    /// bit-identically: metrics, the full audited event log, and every
    /// battery's terminal state.
    #[test]
    fn same_seed_replays_identical_post_recovery_trajectory(
        seed in 0u64..5_000,
        mean in 30u64..240,
    ) {
        let run = || {
            let mut sys = checkpointed_system(seed, mean, 30);
            sys.run_until(SimTime::from_hms(18, 0, 0));
            sys
        };
        let a = run();
        let b = run();
        prop_assert_eq!(RunMetrics::collect(&a), RunMetrics::collect(&b));
        prop_assert_eq!(a.events().entries(), b.events().entries());
        prop_assert_eq!(a.checkpoint_counters(), b.checkpoint_counters());
        for (ua, ub) in a.units().iter().zip(b.units()) {
            prop_assert_eq!(ua.soc().to_bits(), ub.soc().to_bits(), "unit {}", ua.id());
        }
    }

    /// No torn checkpoint is ever restored, for any seed and fault rate.
    #[test]
    fn no_torn_checkpoint_is_ever_restored(
        seed in 0u64..5_000,
        mean in 20u64..240,
        interval in 15u64..121,
    ) {
        let mut sys = checkpointed_system(seed, mean, interval);
        sys.run_until(SimTime::from_hms(18, 0, 0));
        assert_recovery_invariants(&sys);
    }
}

/// Full-day chaos run at the matrix seed: the system checkpoints, crashes
/// through the extended fault menu, recovers, and replays exactly.
#[test]
fn chaos_seed_full_day_recovers_deterministically() {
    let seed = chaos_seed();
    let run = || {
        let mut sys = checkpointed_system(seed, 120, 30);
        sys.run_until(SimTime::from_hms(23, 59, 30));
        sys
    };
    let a = run();
    assert_recovery_invariants(&a);
    let c = a.checkpoint_counters();
    assert!(
        c.written > 0,
        "a full day at 30-minute intervals must land durable checkpoints (seed {seed})"
    );
    let b = run();
    assert_eq!(RunMetrics::collect(&a), RunMetrics::collect(&b));
    assert_eq!(a.events().entries(), b.events().entries());
    assert_eq!(a.now(), b.now());
}
