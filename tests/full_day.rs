//! Integration tests: full-day co-simulation across every crate.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use insure::battery::BatteryUnit;
use insure::core::controller::{
    BaselineController, InsureController, NoOptController, PowerController,
};
use insure::core::metrics::RunMetrics;
use insure::core::system::{InSituSystem, WorkloadModel};
use insure::sim::time::{SimDuration, SimTime};
use insure::sim::units::WattHours;
use insure::solar::trace::{high_generation_day, low_generation_day};

fn run_day(
    controller: Box<dyn PowerController>,
    workload: WorkloadModel,
    high_solar: bool,
    seed: u64,
) -> (InSituSystem, RunMetrics) {
    let solar = if high_solar {
        high_generation_day(seed)
    } else {
        low_generation_day(seed)
    };
    let mut sys = InSituSystem::builder(solar, controller)
        .workload(workload)
        .time_step(SimDuration::from_secs(30))
        .build();
    sys.run_until(SimTime::from_hms(23, 59, 30));
    let m = RunMetrics::collect(&sys);
    (sys, m)
}

#[test]
fn identical_seeds_are_bit_identical() {
    let (_, a) = run_day(
        Box::new(InsureController::default()),
        WorkloadModel::seismic(),
        true,
        11,
    );
    let (_, b) = run_day(
        Box::new(InsureController::default()),
        WorkloadModel::seismic(),
        true,
        11,
    );
    assert_eq!(a, b, "simulation must be deterministic under a fixed seed");
}

#[test]
fn different_seeds_differ() {
    let (_, a) = run_day(
        Box::new(InsureController::default()),
        WorkloadModel::seismic(),
        true,
        11,
    );
    let (_, b) = run_day(
        Box::new(InsureController::default()),
        WorkloadModel::seismic(),
        true,
        12,
    );
    assert_ne!(a.solar_kwh, b.solar_kwh);
}

#[test]
fn physical_invariants_hold_for_every_controller() {
    for make in [
        || Box::new(InsureController::default()) as Box<dyn PowerController>,
        || Box::new(BaselineController::new()) as Box<dyn PowerController>,
        || Box::new(NoOptController::new()) as Box<dyn PowerController>,
    ] {
        for high in [true, false] {
            let (sys, m) = run_day(make(), WorkloadModel::seismic(), high, 5);
            // State-of-charge bounds.
            for u in sys.units() {
                assert!((0.0..=1.0 + 1e-9).contains(&u.soc().value()));
                assert!(u.wear_fraction() >= 0.0 && u.wear_fraction() <= 1.0);
            }
            // Energy never created: the rack cannot consume more than
            // solar + battery delivered, beyond the 5 % PSU ride-through
            // band the bus tolerates on transient mismatches.
            let delivered = sys.solar_used().0 + sys.battery_delivered();
            assert!(
                sys.rack().total_energy() <= delivered * 1.06 + WattHours::new(1.0),
                "{}: rack {:.0} Wh > delivered {:.0} Wh",
                sys.controller_name(),
                sys.rack().total_energy().value(),
                delivered.value()
            );
            // Solar usage cannot exceed harvest.
            let (load, charge) = sys.solar_used();
            assert!(load + charge <= sys.solar_harvested() + WattHours::new(1.0));
            // Effective energy is a subset of total energy.
            assert!(m.effective_kwh <= m.load_kwh + 1e-9);
            // All fractions are fractions.
            assert!((0.0..=1.0).contains(&m.uptime));
            assert!((0.0..=1.0).contains(&m.service_availability));
        }
    }
}

#[test]
fn switch_matrix_invariant_never_violated() {
    let (sys, _) = run_day(
        Box::new(InsureController::default()),
        WorkloadModel::video(),
        true,
        3,
    );
    let charging = sys.matrix().charging_units();
    let discharging = sys.matrix().discharging_units();
    for id in &charging {
        assert!(
            !discharging.contains(id),
            "{id} on both buses at end of run"
        );
    }
}

#[test]
fn insure_outperforms_baseline_on_uptime_both_solar_levels() {
    for high in [true, false] {
        let (_, insure) = run_day(
            Box::new(InsureController::default()),
            WorkloadModel::seismic(),
            high,
            7,
        );
        let (_, baseline) = run_day(
            Box::new(BaselineController::new()),
            WorkloadModel::seismic(),
            high,
            7,
        );
        assert!(
            insure.uptime > baseline.uptime,
            "high={high}: InSURE uptime {:.3} must beat baseline {:.3}",
            insure.uptime,
            baseline.uptime
        );
    }
}

#[test]
fn insure_keeps_more_energy_in_the_buffer_while_serving_more() {
    // Fig. 18's claim is about energy availability *while sustaining the
    // service*: a policy that is down half the time trivially keeps its
    // buffer full. Require InSURE to match-or-beat the baseline's buffer
    // level while strictly beating its uptime.
    let (_, insure) = run_day(
        Box::new(InsureController::default()),
        WorkloadModel::seismic(),
        true,
        7,
    );
    let (_, baseline) = run_day(
        Box::new(BaselineController::new()),
        WorkloadModel::seismic(),
        true,
        7,
    );
    assert!(
        insure.uptime > baseline.uptime,
        "InSURE uptime {:.3} vs baseline {:.3}",
        insure.uptime,
        baseline.uptime
    );
    assert!(
        insure.mean_stored_energy_wh > 0.9 * baseline.mean_stored_energy_wh,
        "InSURE buffer {:.0} Wh vs baseline {:.0} Wh",
        insure.mean_stored_energy_wh,
        baseline.mean_stored_energy_wh
    );
}

#[test]
fn video_stream_gets_processed_on_a_sunny_day() {
    let (_, m) = run_day(
        Box::new(InsureController::default()),
        WorkloadModel::video(),
        true,
        3,
    );
    // 0.21 GB/min × 24 h = 302 GB generated; a standalone system can only
    // work through the daylight + buffer window, but that share must be
    // substantial.
    assert!(m.processed_gb > 60.0, "processed {:.1} GB", m.processed_gb);
}

#[test]
fn multi_day_run_survives_and_accumulates() {
    use insure::solar::trace::SolarTraceBuilder;
    use insure::solar::weather::DayWeather;

    let solar = SolarTraceBuilder::new().seed(21).build_days(&[
        DayWeather::Sunny,
        DayWeather::Rainy,
        DayWeather::Sunny,
    ]);
    let mut sys = InSituSystem::builder(solar, Box::new(InsureController::default()))
        .time_step(SimDuration::from_secs(60))
        .build();
    let mut processed_by_day = Vec::new();
    for day in 1..=3u64 {
        sys.run_until(SimTime::from_secs(day * 24 * 3600));
        processed_by_day.push(sys.workload().processed_gb());
    }
    assert!(processed_by_day[0] > 0.0);
    assert!(processed_by_day[2] > processed_by_day[1]);
    // The rainy middle day processes less than the first sunny day.
    let day2 = processed_by_day[1] - processed_by_day[0];
    let day1 = processed_by_day[0];
    assert!(
        day2 < day1,
        "rainy day ({day2:.1} GB) must process less than sunny day ({day1:.1} GB)"
    );
}

#[test]
fn wear_accumulates_monotonically() {
    let (sys, _) = run_day(
        Box::new(NoOptController::new()),
        WorkloadModel::seismic(),
        false,
        2,
    );
    let total: f64 = sys
        .units()
        .iter()
        .map(BatteryUnit::discharge_throughput)
        .map(|t| t.value())
        .sum();
    assert!(total > 0.0, "a low-solar day must draw on the buffer");
}
