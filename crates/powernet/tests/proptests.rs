//! Property tests for the power delivery network.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use proptest::prelude::*;

use ins_battery::{BatteryId, BatteryParams, BatteryUnit};
use ins_powernet::bus::{LoadBus, OnBus};
use ins_powernet::charger::ChargeController;
use ins_powernet::converter::Converter;
use ins_powernet::matrix::{Attachment, SwitchMatrix};
use ins_powernet::relay::Relay;
use ins_sim::units::{Hours, Soc, Watts};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Converters never create power and input_for/output round-trip.
    #[test]
    fn converter_second_law(
        overhead in 0.0f64..50.0,
        eff in 0.5f64..=1.0,
        input in 0.0f64..3000.0
    ) {
        let c = Converter::new(Watts::new(overhead), eff);
        let out = c.output(Watts::new(input));
        prop_assert!(out.value() <= input + 1e-9, "output exceeded input");
        prop_assert!(out.value() >= 0.0);
        if out.value() > 0.0 {
            let back = c.input_for(out);
            prop_assert!((back.value() - input).abs() < 1e-6 * input.max(1.0));
        }
        // Efficiency is monotone in load.
        prop_assert!(
            c.overall_efficiency(Watts::new(input + 100.0))
                >= c.overall_efficiency(Watts::new(input)) - 1e-9
        );
    }

    /// The settlement never serves more than demanded, never uses more
    /// solar than offered, and shortfall closes the balance.
    #[test]
    fn settlement_balances(
        demand in 0.0f64..2000.0,
        solar in 0.0f64..2000.0,
        socs in proptest::collection::vec(0.05f64..=1.0, 0..4)
    ) {
        let bus = LoadBus::prototype();
        let mut units: Vec<BatteryUnit> = socs
            .iter()
            .enumerate()
            .map(|(i, &s)| BatteryUnit::with_soc(BatteryId(i), BatteryParams::cabinet_24v(), Soc::new(s)))
            .collect();
        let mut refs: Vec<&mut BatteryUnit> = units.iter_mut().collect();
        let s = bus.settle(Watts::new(demand), Watts::new(solar), &mut refs, Hours::new(0.02));
        prop_assert!(s.served <= s.demand + Watts::new(1e-9));
        prop_assert!(s.solar_used <= Watts::new(solar) + Watts::new(1e-9));
        prop_assert!(s.shortfall.value() >= -1e-9);
        prop_assert!((s.served.value() + s.shortfall.value() - s.demand.value()).abs() < 1e-6);
        prop_assert!(s.battery_used.value() >= 0.0);
    }

    /// The charger never draws beyond its budget under any unit mix.
    #[test]
    fn charger_budget_respected(
        socs in proptest::collection::vec(0.0f64..=1.0, 1..4),
        budget in 0.0f64..1500.0
    ) {
        let ctrl = ChargeController::prototype();
        let mut units: Vec<BatteryUnit> = socs
            .iter()
            .enumerate()
            .map(|(i, &s)| BatteryUnit::with_soc(BatteryId(i), BatteryParams::cabinet_24v(), Soc::new(s)))
            .collect();
        let mut refs: Vec<&mut BatteryUnit> = units.iter_mut().collect();
        let step = ctrl.charge(&mut refs, Watts::new(budget), Hours::new(0.25));
        prop_assert!(step.drawn.value() <= budget + 1e-6);
        prop_assert!(step.stored <= step.drawn);
        prop_assert!(step.efficiency() <= 1.0);
    }

    /// Relay wear equals the number of actual transitions.
    #[test]
    fn relay_wear_counts_transitions(ops in proptest::collection::vec(any::<bool>(), 0..100)) {
        let mut r = Relay::idec_rr2p();
        let mut expected = 0u64;
        let mut state = false;
        for want in ops {
            if want != state {
                expected += 1;
                state = want;
            }
            r.set(want);
        }
        prop_assert_eq!(r.switch_count(), expected);
        prop_assert_eq!(r.is_closed(), state);
    }

    /// Matrix group queries partition the unit set.
    #[test]
    fn matrix_groups_partition(
        ops in proptest::collection::vec((0usize..5, 0u8..3), 0..80)
    ) {
        let mut m = SwitchMatrix::new(5);
        for (unit, kind) in ops {
            let to = match kind {
                0 => Attachment::Isolated,
                1 => Attachment::ChargeBus,
                _ => Attachment::DischargeBus,
            };
            m.attach(BatteryId(unit), to).expect("in range");
        }
        let charging = m.charging_units();
        let discharging = m.discharging_units();
        let isolated = m.isolated_units();
        prop_assert_eq!(charging.len() + discharging.len() + isolated.len(), 5);
        for id in (0..5).map(BatteryId) {
            let count = usize::from(charging.contains(&id))
                + usize::from(discharging.contains(&id))
                + usize::from(isolated.contains(&id));
            prop_assert_eq!(count, 1, "{} in {} groups", id, count);
        }
    }

    /// Settling and charging the units an `OnBus` role array selects
    /// gives exactly what passing those units as a list gives.
    #[test]
    fn role_array_matches_unit_list(
        draws in proptest::collection::vec((0.05f64..=1.0, 0u8..3), 0..5),
        demand in 0.0f64..2000.0,
        solar in 0.0f64..2000.0,
    ) {
        let roles: Vec<Attachment> = draws
            .iter()
            .map(|&(_, r)| match r {
                0 => Attachment::Isolated,
                1 => Attachment::ChargeBus,
                _ => Attachment::DischargeBus,
            })
            .collect();
        let fresh = || -> Vec<BatteryUnit> {
            draws
                .iter()
                .enumerate()
                .map(|(i, &(s, _))| BatteryUnit::with_soc(BatteryId(i), BatteryParams::cabinet_24v(), Soc::new(s)))
                .collect()
        };
        let (bus, ctrl, dt) = (LoadBus::prototype(), ChargeController::prototype(), Hours::new(0.02));
        let (mut by_role, mut by_list) = (fresh(), fresh());
        let settled = bus.settle(
            Watts::new(demand),
            Watts::new(solar),
            &mut OnBus::new(&mut by_role, &roles, Attachment::DischargeBus),
            dt,
        );
        let charged = ctrl.charge(&mut OnBus::new(&mut by_role, &roles, Attachment::ChargeBus), Watts::new(solar), dt);
        let mut discharging = on_bus(&mut by_list, &roles, Attachment::DischargeBus);
        let listed = bus.settle(Watts::new(demand), Watts::new(solar), &mut discharging, dt);
        prop_assert_eq!(settled, listed);
        let mut charging = on_bus(&mut by_list, &roles, Attachment::ChargeBus);
        prop_assert_eq!(charged, ctrl.charge(&mut charging, Watts::new(solar), dt));
        prop_assert_eq!(by_role, by_list);
    }
}

/// The units of `units` whose role is `bus`, as a list.
fn on_bus<'a>(
    units: &'a mut [BatteryUnit],
    roles: &[Attachment],
    bus: Attachment,
) -> Vec<&'a mut BatteryUnit> {
    units
        .iter_mut()
        .zip(roles)
        .filter(|(_, r)| **r == bus)
        .map(|(u, _)| u)
        .collect()
}
