//! Multi-unit e-Buffer aggregation.
//!
//! Utilities for working with a set of [`BatteryUnit`]s as the paper's
//! "energy buffer": weighting each unit's share of a common discharge
//! current the way parallel strings share load (stronger units carry more),
//! and computing pack-level statistics (total stored energy, voltage σ —
//! the balance indicator of Table 6).

use ins_sim::stats::RunningStats;
use ins_sim::units::{Volts, WattHours};

use crate::unit::BatteryUnit;

/// A unit's weight when parallel strings share a discharge current
/// (each carries `total · weight / Σ weights`): its open-circuit voltage
/// headroom over the cutoff divided by its internal resistance (the
/// linear-circuit solution up to a common offset, negative shares
/// clamped), and zero once exhausted.
#[must_use]
pub fn discharge_weight(unit: &BatteryUnit) -> f64 {
    let headroom = (unit.open_circuit_voltage() - unit.params().cutoff_voltage)
        .value()
        .max(0.0);
    if unit.is_exhausted() {
        0.0
    } else {
        headroom / unit.params().r_discharge.value()
    }
}

/// Summary of the e-Buffer's aggregate state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackSummary {
    /// Sum of stored energy across units.
    pub stored_energy: WattHours,
    /// Mean open-circuit voltage.
    pub mean_voltage: Volts,
    /// Population standard deviation of open-circuit voltages — the
    /// imbalance indicator the paper reports as "Battery Volt. σ".
    pub voltage_std_dev: f64,
    /// Mean state of charge.
    pub mean_soc: f64,
    /// Lowest state of charge of any unit.
    pub min_soc: f64,
}

/// Computes the aggregate state of a set of units.
///
/// Returns a zeroed summary for an empty slice.
#[must_use]
pub fn summarize(units: &[BatteryUnit]) -> PackSummary {
    if units.is_empty() {
        return PackSummary {
            stored_energy: WattHours::ZERO,
            mean_voltage: Volts::ZERO,
            voltage_std_dev: 0.0,
            mean_soc: 0.0,
            min_soc: 0.0,
        };
    }
    let stored_energy = units.iter().map(BatteryUnit::stored_energy).sum();
    let volt_stats: RunningStats = units
        .iter()
        .map(|u| u.open_circuit_voltage().value())
        .collect();
    let soc_stats: RunningStats = units.iter().map(|u| u.soc().value()).collect();
    PackSummary {
        stored_energy,
        mean_voltage: Volts::new(volt_stats.mean()),
        voltage_std_dev: volt_stats.population_std_dev(),
        mean_soc: soc_stats.mean(),
        min_soc: soc_stats.min(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BatteryParams;
    use crate::unit::BatteryId;
    use ins_sim::units::{Amps, Hours, Soc};

    fn unit_at(id: usize, soc: f64) -> BatteryUnit {
        BatteryUnit::with_soc(BatteryId(id), BatteryParams::cabinet_24v(), Soc::new(soc))
    }

    #[test]
    fn stronger_unit_weighs_more() {
        let strong = unit_at(0, 0.95);
        let weak = unit_at(1, 0.30);
        assert!(discharge_weight(&strong) > discharge_weight(&weak));
        assert!(discharge_weight(&weak) > 0.0);
    }

    #[test]
    fn exhausted_unit_weighs_nothing() {
        let mut dead = unit_at(0, 1.0);
        while !dead.is_exhausted() {
            dead.discharge(Amps::new(40.0), Hours::new(1.0 / 60.0));
        }
        assert_eq!(discharge_weight(&dead), 0.0);
    }

    #[test]
    fn summary_of_identical_units_has_zero_sigma() {
        let units = vec![unit_at(0, 0.8), unit_at(1, 0.8), unit_at(2, 0.8)];
        let s = summarize(&units);
        assert!(s.voltage_std_dev < 1e-12);
        assert!((s.mean_soc - 0.8).abs() < 1e-12);
        assert!((s.min_soc - 0.8).abs() < 1e-12);
        assert!(s.stored_energy.value() > 0.0);
    }

    #[test]
    fn summary_detects_imbalance() {
        let balanced = summarize(&[unit_at(0, 0.8), unit_at(1, 0.8)]);
        let skewed = summarize(&[unit_at(0, 0.99), unit_at(1, 0.3)]);
        assert!(skewed.voltage_std_dev > balanced.voltage_std_dev);
        assert!((skewed.min_soc - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = summarize(&[]);
        assert_eq!(s.stored_energy, WattHours::ZERO);
        assert_eq!(s.mean_voltage, Volts::ZERO);
    }
}
