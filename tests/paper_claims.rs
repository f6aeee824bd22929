//! Integration tests pinning the paper's headline quantitative claims.
//!
//! Each test names the paper statement it checks. Absolute values are not
//! expected to match the authors' testbed; the *shape* (who wins, rough
//! factor, crossover position) is.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use ins_bench::experiments::{buffer, costs, logs, micro, sizing};
use insure::sim::units::WattHours;
use insure::solar::weather::DayWeather;

#[test]
fn claim_sequential_charging_halves_charge_time() {
    // §2.2: "charging each battery unit one by one could reduce total
    // charge time by nearly 50 % compared to batch charging".
    let (seq, batch) = buffer::fig4a();
    let ratio = seq.hours_to_target / batch.hours_to_target;
    assert!(
        ratio < 0.65,
        "sequential/batch charge-time ratio {ratio:.2}, paper ≈ 0.5"
    );
}

#[test]
fn claim_recovery_effect_restores_capacity() {
    // §2.2: "this temporary capacity loss can be recovered to a great
    // extent during periods of very low power demand".
    let (high, _) = buffer::fig4b();
    assert!(high.voltage_after_rest - high.voltage_at_switchout > 0.5);
}

#[test]
fn claim_table2_conservative_config_wins_batch() {
    // Table 2: 4 VMs beat 8 VMs by ~18 % under the same 2 kWh budget.
    let rows = sizing::table2(WattHours::from_kilowatt_hours(2.0), 2.5);
    let gain = rows[1].throughput_gb_per_hour / rows[0].throughput_gb_per_hour;
    assert!(
        (1.05..1.6).contains(&gain),
        "4 VM / 8 VM throughput ratio {gain:.2}, paper ≈ 1.18"
    );
}

#[test]
fn claim_table3_aggressive_config_wins_stream() {
    // Table 3: cutting 8 → 2 VMs cuts stream throughput by ≈ 66 %.
    let rows = sizing::table3(4);
    let drop = 1.0 - rows[3].throughput_gb_per_min / rows[0].throughput_gb_per_min;
    assert!(
        (0.5..0.8).contains(&drop),
        "8→2 VM throughput drop {drop:.2}, paper ≈ 0.66"
    );
}

#[test]
fn claim_low_power_nodes_5x_to_15x_efficiency() {
    // Table 7 / §6.2: "InSURE can improve data throughput by 5X~15X"
    // with low-power nodes.
    for (name, ratio) in sizing::table7_efficiency_ratios() {
        assert!(
            (4.0..20.0).contains(&ratio),
            "{name}: i7/Xeon GB-per-kWh ratio {ratio:.1}"
        );
    }
}

#[test]
fn claim_crossover_near_0_9_gb_per_day() {
    // §6.5: in-situ beats cloud above ≈ 0.9 GB/day for the prototype.
    let (_, crossover) = costs::fig24();
    let crossover = crossover.expect("crossover exists at the reference sunshine fraction");
    assert!(
        (0.5..1.5).contains(&crossover),
        "crossover {crossover:.2} GB/day"
    );
}

#[test]
fn claim_scenario_savings_span_15_to_97_percent() {
    // Fig. 25: "an application-dependent cost saving rate ranging from
    // 15 % to 97 %".
    let rows = costs::fig25();
    let savings: Vec<f64> = rows.iter().map(|(_, _, _, s)| *s).collect();
    assert!(
        savings.iter().any(|&s| s < 0.5),
        "some scenario saves modestly"
    );
    assert!(
        savings.iter().any(|&s| s > 0.9),
        "some scenario saves ≈ 95 %"
    );
    assert!(
        savings.iter().all(|&s| s > 0.0),
        "every scenario saves something"
    );
}

#[test]
fn claim_insure_improves_micro_benchmarks() {
    // §6.3 / Figs. 17–18: InSURE shows double-digit availability and
    // energy-availability improvements over the baseline.
    let high = micro::compare("dedup", true, 3);
    assert!(
        high.service_availability > 0.05,
        "dedup availability improvement {:.2}",
        high.service_availability
    );
    assert!(
        high.energy_availability > 0.05,
        "dedup energy availability improvement {:.2}",
        high.energy_availability
    );
}

#[test]
fn claim_table6_opt_vs_noopt_relations() {
    // Table 6: Opt's effective energy ≈ 86 % of Non-Opt's; Opt's voltage
    // σ ≈ 12 % lower; Opt takes several times more control actions.
    let rows = logs::table6(2);
    let sunny_pair: Vec<_> = rows
        .iter()
        .filter(|r| r.weather == DayWeather::Sunny)
        .collect();
    let no_opt = sunny_pair.iter().find(|r| r.scheme == "Non-Opt.").unwrap();
    let opt = sunny_pair.iter().find(|r| r.scheme == "Opt.").unwrap();
    assert!(
        opt.metrics.power_ctrl_times as f64 > 1.5 * no_opt.metrics.power_ctrl_times as f64,
        "Opt power-control actions {} vs Non-Opt {}",
        opt.metrics.power_ctrl_times,
        no_opt.metrics.power_ctrl_times
    );
    assert!(
        opt.metrics.voltage_sigma < no_opt.metrics.voltage_sigma * 1.05,
        "Opt σ {:.3} vs Non-Opt σ {:.3}",
        opt.metrics.voltage_sigma,
        no_opt.metrics.voltage_sigma
    );
}

#[test]
fn claim_energy_tco_ordering() {
    // Fig. 3-b / Fig. 22: solar+battery cheapest long-run; diesel and
    // fuel cell carry 20–25 % premiums on annual depreciation.
    let (cmp, _) = costs::fig22();
    let insure = cmp[0].annual;
    for c in &cmp[1..] {
        assert!(c.annual > insure, "{} must cost more than InSURE", c.tech);
        assert!(
            c.vs_insure < 1.6,
            "{} premium {:.2}× should be tens of percent, not multiples",
            c.tech,
            c.vs_insure
        );
    }
}
