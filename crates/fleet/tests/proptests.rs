//! Property tests for the circuit-breaker state machine, plus the
//! fault-window-expiry scenario: a `SiteBlackout` spanning a checkpoint
//! restore must end with the site routable again.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use proptest::prelude::*;

use ins_fleet::breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
use ins_fleet::fleet::{Fleet, FleetConfig};
use ins_sim::fault::FaultKind;
use ins_sim::time::{SimDuration, SimTime};

/// Replays one `(success, dt)` event sequence against a fresh breaker,
/// returning every `(state_before, admitted, state_after)` transition.
fn drive(
    policy: BreakerPolicy,
    events: &[(bool, u64)],
) -> (CircuitBreaker, Vec<(BreakerState, bool, BreakerState)>) {
    let mut b = CircuitBreaker::new(policy);
    let mut now = SimTime::from_secs(0);
    let mut transitions = Vec::with_capacity(events.len());
    for &(success, dt) in events {
        now += SimDuration::from_secs(dt);
        let before = b.state();
        let admitted = b.allows(now);
        if admitted {
            if success {
                b.record_success(now);
            } else {
                b.record_failure(now);
            }
        }
        transitions.push((before, admitted, b.state()));
    }
    (b, transitions)
}

fn policies() -> [BreakerPolicy; 3] {
    [
        BreakerPolicy::standard(),
        BreakerPolicy::aggressive(),
        BreakerPolicy::disabled(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The state machine never shortcuts Closed → Half-open: Half-open
    /// is only reachable from Open (via window expiry inside `allows`),
    /// and an Open breaker admits nothing until that expiry.
    #[test]
    fn half_open_is_only_reachable_from_open(
        events in proptest::collection::vec((any::<bool>(), 0u64..900), 1..300)
    ) {
        for policy in policies() {
            let (_, transitions) = drive(policy, &events);
            for (before, admitted, after) in transitions {
                prop_assert!(
                    !(before == BreakerState::Closed && after == BreakerState::HalfOpen),
                    "Closed jumped straight to Half-open"
                );
                if after == BreakerState::HalfOpen && before != BreakerState::HalfOpen {
                    prop_assert_eq!(before, BreakerState::Open);
                }
                if before == BreakerState::Open && !admitted {
                    prop_assert_eq!(after, BreakerState::Open);
                }
            }
        }
    }

    /// Trip and reset counters are monotone over any event sequence, and
    /// every reset is preceded by a trip.
    #[test]
    fn trip_and_reset_counters_are_monotone(
        events in proptest::collection::vec((any::<bool>(), 0u64..900), 1..300)
    ) {
        for policy in policies() {
            let mut b = CircuitBreaker::new(policy);
            let mut now = SimTime::from_secs(0);
            let (mut trips, mut resets) = (0u64, 0u64);
            for &(success, dt) in &events {
                now += SimDuration::from_secs(dt);
                if b.allows(now) {
                    if success {
                        b.record_success(now);
                    } else {
                        b.record_failure(now);
                    }
                }
                prop_assert!(b.trips() >= trips, "trip counter went backwards");
                prop_assert!(b.resets() >= resets, "reset counter went backwards");
                prop_assert!(
                    b.resets() <= b.trips(),
                    "a reset without a preceding trip"
                );
                trips = b.trips();
                resets = b.resets();
            }
        }
    }

    /// The breaker is a pure function of its event sequence: replaying
    /// the same events yields an identical machine, state by state.
    #[test]
    fn breaker_is_deterministic_under_replay(
        events in proptest::collection::vec((any::<bool>(), 0u64..900), 1..300)
    ) {
        for policy in policies() {
            let (a, ta) = drive(policy, &events);
            let (b, tb) = drive(policy, &events);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(ta, tb);
        }
    }
}

/// A `SiteBlackout` whose window spans a checkpoint restore: the site
/// crashes, recovers from its durable checkpoint, and — once the
/// blackout window expires — must be routable again, with its breaker
/// eventually re-admitting traffic.
#[test]
fn blackout_window_expires_across_a_checkpoint_restore() {
    let mut config = FleetConfig::new(17, 2);
    config.horizon = SimDuration::from_hours(24);
    let mut fleet = Fleet::new(config);
    // Warm to mid-morning so both sites serve and checkpoints exist.
    while fleet.now() < SimTime::from_hms(10, 0, 0) {
        fleet.step_tick();
    }
    let before = fleet.metrics();
    assert!(
        before.site_availability[0] > 0.0,
        "site 0 must have been routable before the blackout"
    );

    fleet.inject_fault(FaultKind::SiteBlackout {
        site: 0,
        duration: SimDuration::from_minutes(30),
    });
    // During the blackout the site is dark; run well past the window so
    // recovery (checkpoint restore + rack restart) completes.
    let mut recovered_at = None;
    while fleet.now() < SimTime::from_hms(14, 0, 0) {
        fleet.step_tick();
        let now = fleet.now();
        let s = &fleet.sites()[0];
        if now < SimTime::from_hms(10, 30, 0) {
            assert!(
                !s.reachable(now) || !s.serving(now),
                "site 0 must not be routable inside the blackout window"
            );
        } else if recovered_at.is_none() && s.reachable(now) && s.serving(now) {
            recovered_at = Some(now);
        }
    }
    let recovered_at = recovered_at.expect("site 0 never came back after the blackout");
    assert!(
        recovered_at >= SimTime::from_hms(10, 30, 0),
        "recovery cannot precede window expiry"
    );

    // The blackout crashed every server; recovery must have gone through
    // a checkpoint restore (checkpoints are on and one was written
    // during the warm morning).
    use ins_core::system::SystemEvent;
    let restores = fleet.sites()[0]
        .system()
        .events()
        .count(|e| matches!(e, SystemEvent::CheckpointRestored));
    assert!(
        restores > 0,
        "the blackout recovery must restore from a durable checkpoint"
    );

    // And the router noticed both the outage and the comeback: failures
    // accrued, the breaker tripped, and traffic later flowed again.
    let after = fleet.metrics();
    assert!(
        after.breaker_trips > before.breaker_trips,
        "breaker must trip"
    );
    assert!(
        after.stream.served > before.stream.served,
        "streams must flow again after recovery"
    );
    assert!(
        after.all_requests_resolved(),
        "zero silent drops throughout"
    );
}
