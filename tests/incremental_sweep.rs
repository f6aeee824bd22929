//! Workspace-level equivalence oracle for the incremental sweep engine.
//!
//! The sweep binaries promise that `--incremental` (copy-on-write
//! shared-prefix forking, the default) and `--no-incremental` (every
//! cell from scratch) produce byte-identical JSON at any thread count.
//! These tests pin that promise at the artifact level — the exact bytes
//! the CI `bench-smoke` job diffs — with property-based grids for the
//! single-site sweeps, a deterministic fleet case, and a regression test
//! for the fork-boundary rule that fault events delivered before the
//! fork instant must never re-fire in a forked cell.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use proptest::prelude::*;

use ins_bench::experiments::{faults, fleet, recovery};
use insure::core::controller::InsureController;
use insure::core::system::{InSituSystem, SystemEvent};
use insure::sim::fault::{FaultEvent, FaultKind, FaultSchedule};
use insure::sim::time::{SimDuration, SimTime};
use insure::solar::trace::high_generation_day;

/// The fault-rate palette random grids draw from (`None` = fault-free
/// reference cell).
const RATE_PALETTE: [Option<f64>; 6] =
    [None, Some(8.0), Some(4.0), Some(2.0), Some(1.0), Some(0.5)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For random fault-rate grids, seeds and thread counts, the
    /// incremental fault sweep renders exactly the same JSON as the
    /// from-scratch sweep.
    #[test]
    fn fault_sweep_incremental_json_matches_scratch(
        seed in 1u64..500,
        rate_picks in proptest::collection::vec(0usize..RATE_PALETTE.len(), 1..3),
        thread_pick in 0usize..3,
    ) {
        let rates: Vec<Option<f64>> = rate_picks.iter().map(|&i| RATE_PALETTE[i]).collect();
        let threads = [1usize, 4, 16][thread_pick];
        let scratch = faults::to_json(&faults::sweep_rates_with(seed, &rates, 1));
        let incremental = faults::to_json(&faults::sweep_rates_incremental(seed, &rates, threads));
        prop_assert_eq!(
            incremental, scratch,
            "fault sweep diverged: seed {} rates {:?} threads {}", seed, rates, threads
        );
    }

    /// Same oracle for the recovery grid, whose prefixes carry live
    /// checkpoint state across the fork.
    #[test]
    fn recovery_incremental_json_matches_scratch(
        seed in 1u64..500,
        interval_pick in 0usize..3,
        rate_pick in 0usize..2,
        thread_pick in 0usize..3,
    ) {
        let intervals = [[0.5f64, 1.0, 2.0][interval_pick]];
        let rates: &[f64] = [&[4.0f64, 2.0][..], &[1.0][..]][rate_pick];
        let threads = [1usize, 4, 16][thread_pick];
        let scratch = recovery::to_json(&recovery::sweep_grid_with(seed, &intervals, rates, 1));
        let incremental =
            recovery::to_json(&recovery::sweep_grid_incremental(seed, &intervals, rates, threads));
        prop_assert_eq!(
            incremental, scratch,
            "recovery sweep diverged: seed {} intervals {:?} threads {}", seed, intervals, threads
        );
    }
}

#[test]
fn fleet_incremental_json_matches_scratch() {
    let scratch = fleet::to_json(&fleet::sweep_grid_with(
        7,
        &[2],
        &[0.0, 2.0],
        &["standard"],
        1,
    ));
    for threads in [1, 4] {
        let incremental = fleet::to_json(&fleet::sweep_grid_incremental(
            7,
            &[2],
            &[0.0, 2.0],
            &["standard"],
            threads,
        ));
        assert_eq!(
            incremental, scratch,
            "fleet sweep diverged at {threads} threads"
        );
    }
}

/// Regression: a schedule can carry events *before* the fork instant
/// (the planner never forks past one, but `fork_from` must not rely on
/// that). The fork expires everything the prefix's steps already
/// covered, so pre-fork events must not re-fire in the forked cell.
#[test]
fn pre_fork_fault_windows_never_refire_after_forking() {
    let dropout = |h: u64| FaultEvent {
        at: SimTime::from_hms(h, 0, 0),
        kind: FaultKind::ChargerDropout {
            duration: SimDuration::from_minutes(10),
        },
    };
    let schedule = FaultSchedule::from_events(3, vec![dropout(2), dropout(4), dropout(9)]);

    // Fault-free prefix to 06:00 — past the first two events' slots.
    let mut prefix = InSituSystem::builder(
        high_generation_day(3),
        Box::new(InsureController::default()),
    )
    .time_step(SimDuration::from_secs(30))
    .fault_schedule(FaultSchedule::from_events(3, Vec::new()))
    .build();
    prefix.run_until(SimTime::from_hms(6, 0, 0));
    let snapshot = prefix.snapshot().expect("insure controller forks");

    let mut forked = InSituSystem::fork_from(&snapshot, schedule);
    forked.run_until(SimTime::from_hms(12, 0, 0));
    let injected = forked
        .events()
        .count(|e| matches!(e, SystemEvent::FaultInjected(_)));
    assert_eq!(
        injected, 1,
        "only the 09:00 event may fire; the 02:00/04:00 events predate the fork"
    );
}
