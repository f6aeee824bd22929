//! Property tests for the cost models.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use proptest::prelude::*;

use ins_cost::energy::{cumulative_cost, GenTech};
use ins_cost::params::{CommsCosts, GenerationCosts, ItCosts, SystemSizing};
use ins_cost::scale::{cloud_tco_5yr, insitu_tco_5yr, scale_out_annual_cost};
use ins_cost::tco::{cumulative_cost as it_tco, Strategy};
use ins_cost::transfer::{aws_avg_cost_per_tb, aws_transfer_out_cost, transfer_hours};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transfer time scales exactly linearly with volume and inversely
    /// with bandwidth.
    #[test]
    fn transfer_time_scaling(gb in 1.0f64..10_000.0, mbps in 0.5f64..10_000.0) {
        let t = transfer_hours(gb, mbps);
        prop_assert!(t > 0.0);
        prop_assert!((transfer_hours(2.0 * gb, mbps) - 2.0 * t).abs() < 1e-6 * t);
        prop_assert!((transfer_hours(gb, 2.0 * mbps) - t / 2.0).abs() < 1e-6 * t);
    }

    /// AWS tiered pricing: total is monotone, average is non-increasing.
    #[test]
    fn aws_pricing_tiers(a in 0.1f64..400.0, extra in 0.1f64..200.0) {
        prop_assert!(aws_transfer_out_cost(a + extra) > aws_transfer_out_cost(a));
        prop_assert!(aws_avg_cost_per_tb(a + extra) <= aws_avg_cost_per_tb(a) + 1e-9);
    }

    /// Every strategy's cumulative IT TCO is monotone in years and in-situ
    /// variants are bounded by their transfer-everything counterparts at
    /// any horizon beyond year one.
    #[test]
    fn it_tco_monotone(years in 1.0f64..10.0, delta in 0.1f64..5.0) {
        let (c, it, s) = (CommsCosts::paper(), ItCosts::paper(), SystemSizing::prototype());
        for st in Strategy::ALL {
            let now = it_tco(st, years, &c, &it, &s);
            let later = it_tco(st, years + delta, &c, &it, &s);
            prop_assert!(later > now, "{st} must grow with time");
        }
        let sat = it_tco(Strategy::Satellite, years, &c, &it, &s);
        let insat = it_tco(Strategy::InSituSatellite, years, &c, &it, &s);
        prop_assert!(insat < sat, "pre-processing must beat raw satellite");
    }

    /// Energy TCO is monotone in years for every technology.
    #[test]
    fn energy_tco_monotone(years in 0.5f64..12.0, delta in 0.5f64..5.0) {
        let (g, s) = (GenerationCosts::paper(), SystemSizing::prototype());
        for tech in [GenTech::SolarBattery, GenTech::FuelCell, GenTech::Diesel] {
            prop_assert!(
                cumulative_cost(tech, years + delta, &g, &s)
                    >= cumulative_cost(tech, years, &g, &s)
            );
        }
    }

    /// Scale-out cost grows as sunshine shrinks and as demand grows.
    #[test]
    fn scale_out_monotone(
        demand in 1.0f64..500.0,
        sf in 0.2f64..1.0,
        sf_drop in 0.01f64..0.15
    ) {
        let (it, s) = (ItCosts::paper(), SystemSizing::prototype());
        let base = scale_out_annual_cost(demand, sf, &it, &s);
        prop_assert!(base > 0.0);
        let darker = scale_out_annual_cost(demand, (sf - sf_drop).max(0.05), &it, &s);
        prop_assert!(darker >= base);
        let more = scale_out_annual_cost(demand * 2.0, sf, &it, &s);
        prop_assert!(more >= base);
    }

    /// Above some rate, in-situ always beats the cloud; below some rate,
    /// the cloud always wins — and in-situ TCO is monotone in rate.
    #[test]
    fn fig24_dichotomy(sf in 0.4f64..=1.0, rate in 0.01f64..1000.0) {
        let (c, it, s) = (CommsCosts::paper(), ItCosts::paper(), SystemSizing::prototype());
        let insitu = insitu_tco_5yr(rate, sf, &c, &it, &s);
        let cloud = cloud_tco_5yr(rate, &c);
        prop_assert!(insitu > 0.0 && cloud > 0.0);
        if rate > 20.0 {
            prop_assert!(insitu < cloud, "at {rate} GB/day in-situ must win");
        }
        if rate < 0.2 {
            prop_assert!(cloud < insitu, "at {rate} GB/day the cloud must win");
        }
        let more = insitu_tco_5yr(rate * 1.5, sf, &c, &it, &s);
        prop_assert!(more >= insitu - 1e-9);
    }
}
