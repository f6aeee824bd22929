//! Property-based integration tests over the physical substrates.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use proptest::prelude::*;

use insure::battery::{BatteryId, BatteryParams, BatteryUnit};
use insure::powernet::charger::ChargeController;
use insure::powernet::matrix::{Attachment, SwitchMatrix};
use insure::sim::units::{Amps, Hours, Soc, Watts};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Charge is conserved through arbitrary discharge/rest schedules:
    /// delivered charge never exceeds what was stored.
    #[test]
    fn battery_never_delivers_more_than_stored(
        soc in 0.05f64..1.0,
        steps in proptest::collection::vec((0.0f64..40.0, 1u64..1800), 1..40)
    ) {
        let mut unit = BatteryUnit::with_soc(BatteryId(0), BatteryParams::cabinet_24v(), Soc::new(soc));
        let initially_stored = unit.stored_charge();
        let mut delivered = 0.0;
        for (amps, secs) in steps {
            let out = unit.discharge(Amps::new(amps), Hours::new(secs as f64 / 3600.0));
            delivered += out.delivered.value();
        }
        prop_assert!(delivered <= initially_stored.value() + 1e-6,
            "delivered {delivered} Ah from {} Ah stored", initially_stored.value());
        prop_assert!(unit.soc() >= -1e-9 && unit.soc() <= 1.0 + 1e-9);
    }

    /// State of charge stays in [0, 1] through arbitrary mixed schedules,
    /// and wear only grows.
    #[test]
    fn battery_soc_bounded_and_wear_monotone(
        soc in 0.0f64..=1.0,
        ops in proptest::collection::vec((0u8..3, 0.0f64..30.0, 1u64..3600), 1..60)
    ) {
        let mut unit = BatteryUnit::with_soc(BatteryId(0), BatteryParams::cabinet_24v(), Soc::new(soc));
        let mut last_wear = 0.0;
        for (kind, magnitude, secs) in ops {
            let dt = Hours::new(secs as f64 / 3600.0);
            match kind {
                0 => { unit.discharge(Amps::new(magnitude), dt); }
                1 => { unit.charge(Amps::new(magnitude), dt); }
                _ => unit.rest(dt),
            }
            prop_assert!((0.0..=1.0 + 1e-9).contains(&unit.soc().value()));
            prop_assert!((0.0..=1.0).contains(&unit.available_fraction()));
            let wear = unit.discharge_throughput().value();
            prop_assert!(wear >= last_wear - 1e-12, "wear must be monotone");
            last_wear = wear;
        }
    }

    /// The recovery effect: any rest period after a hard discharge never
    /// decreases the available fraction.
    #[test]
    fn rest_never_decreases_available_fraction(
        discharge_min in 1u64..120,
        rest_min in 1u64..180
    ) {
        let mut unit = BatteryUnit::new(BatteryId(0), BatteryParams::cabinet_24v());
        unit.discharge(Amps::new(30.0), Hours::new(discharge_min as f64 / 60.0));
        let before = unit.available_fraction().value();
        unit.rest(Hours::new(rest_min as f64 / 60.0));
        prop_assert!(unit.available_fraction().value() >= before - 1e-9);
    }

    /// The charger never draws more than its budget and never charges a
    /// battery past full.
    #[test]
    fn charger_respects_budget_and_capacity(
        socs in proptest::collection::vec(0.0f64..=1.0, 1..4),
        budget in 0.0f64..2000.0,
        minutes in 1u64..240
    ) {
        let ctrl = ChargeController::prototype();
        let mut units: Vec<BatteryUnit> = socs
            .iter()
            .enumerate()
            .map(|(i, &s)| BatteryUnit::with_soc(BatteryId(i), BatteryParams::cabinet_24v(), Soc::new(s)))
            .collect();
        let dt = Hours::new(minutes as f64 / 60.0);
        let step = {
            let mut refs: Vec<&mut BatteryUnit> = units.iter_mut().collect();
            ctrl.charge(&mut refs, Watts::new(budget), dt)
        };
        prop_assert!(step.drawn.value() <= budget + 1e-6);
        prop_assert!(step.stored.value() <= step.drawn.value() + 1e-6);
        for u in &units {
            prop_assert!(u.soc() <= 1.0 + 1e-9);
        }
    }

    /// The switch matrix invariant survives arbitrary attachment
    /// sequences: no unit is ever on both buses.
    #[test]
    fn matrix_invariant_under_random_sequences(
        ops in proptest::collection::vec((0usize..4, 0u8..3), 1..100)
    ) {
        let mut m = SwitchMatrix::new(4);
        for (unit, kind) in ops {
            let to = match kind {
                0 => Attachment::Isolated,
                1 => Attachment::ChargeBus,
                _ => Attachment::DischargeBus,
            };
            m.attach(BatteryId(unit), to).expect("unit in range");
            let charging = m.charging_units();
            let discharging = m.discharging_units();
            for id in &charging {
                prop_assert!(!discharging.contains(id));
            }
        }
    }

    /// Cost-model monotonicity: more data always costs the cloud more,
    /// and longer deployments never get cheaper.
    #[test]
    fn cloud_cost_monotone_in_rate_and_days(
        rate_a in 0.5f64..400.0,
        extra in 0.1f64..100.0,
        days in 1.0f64..1000.0
    ) {
        use insure::cost::params::CommsCosts;
        use insure::cost::scenario::{cloud_cost, scenarios};

        let comms = CommsCosts::paper();
        let mut s = scenarios().remove(0);
        s.deployment_days = days;
        s.rate_gb_per_day = rate_a;
        let base = cloud_cost(&s, &comms);
        s.rate_gb_per_day = rate_a + extra;
        let more = cloud_cost(&s, &comms);
        prop_assert!(more > base);
    }
}
