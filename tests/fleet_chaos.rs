//! Fleet-level chaos: partition storms, blackout waves and seeded
//! replay over the federated router.
//!
//! CI's chaos job fans these across its `INS_CHAOS_SEED` matrix (default
//! 11) alongside the single-site crash-recovery properties: whatever the
//! seed throws at the fleet, every request must resolve to an explicit
//! outcome, breakers must account for their trips, and the trajectory
//! must replay bit-identically.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use insure::fleet::{Fleet, FleetConfig};
use insure::sim::fault::FaultKind;
use insure::sim::time::{SimDuration, SimTime};

/// The chaos-matrix seed: `INS_CHAOS_SEED` when set, 11 otherwise.
fn chaos_seed() -> u64 {
    std::env::var("INS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11)
}

#[test]
fn fault_storm_resolves_every_request() {
    // A harsh fleet day: 30-minute mean inter-arrival over 3 sites.
    let config = FleetConfig::new(chaos_seed(), 3).with_fleet_faults(SimDuration::from_minutes(30));
    let mut fleet = Fleet::new(config);
    fleet.run_to_horizon();
    let m = fleet.metrics();
    assert!(m.fleet_faults > 0, "a 30-min mean day must inject faults");
    assert!(m.all_requests_resolved(), "zero silent drops under storm");
    assert!(m.breaker_resets <= m.breaker_trips);
    for a in &m.site_availability {
        assert!((0.0..=1.0).contains(a));
    }
}

#[test]
fn total_partition_fails_fast_and_recovers_after_expiry() {
    let mut fleet = Fleet::new(FleetConfig::new(chaos_seed(), 2));
    while fleet.now() < SimTime::from_hms(10, 0, 0) {
        fleet.step_tick();
    }
    let before = fleet.metrics();
    for site in 0..2 {
        fleet.inject_fault(FaultKind::WanPartition {
            site,
            duration: SimDuration::from_minutes(20),
        });
    }
    while fleet.now() < SimTime::from_hms(10, 20, 0) {
        fleet.step_tick();
    }
    let during = fleet.metrics();
    assert_eq!(
        during.stream.served + during.stream.served_degraded,
        before.stream.served + before.stream.served_degraded,
        "nothing can be served while every site is partitioned"
    );
    assert!(
        during.stream.failed > before.stream.failed,
        "partitioned requests must fail explicitly, not hang"
    );
    // Give breakers time to probe and close again after the partitions
    // lift, then confirm traffic flows.
    while fleet.now() < SimTime::from_hms(12, 0, 0) {
        fleet.step_tick();
    }
    let after = fleet.metrics();
    assert!(
        after.stream.served > during.stream.served,
        "streams must be served again after the partitions expire"
    );
    assert!(after.all_requests_resolved());
}

#[test]
fn fleet_trajectory_replays_bit_identically_from_the_chaos_seed() {
    let run = || {
        let config =
            FleetConfig::new(chaos_seed(), 3).with_fleet_faults(SimDuration::from_hours(1));
        let mut fleet = Fleet::new(config);
        fleet.run_to_horizon();
        fleet.metrics()
    };
    assert_eq!(run(), run());
}
