//! Oil-exploration field deployment: the paper's seismic case study.
//!
//! Processes two 114 GB micro-seismic survey jobs a day (Table 2's
//! workload) under all three controllers, on the same recorded solar day,
//! and prints the comparison — the experiment behind Fig. 20.
//!
//! ```sh
//! cargo run --example seismic_field
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "example code")]

use insure::core::controller::{
    BaselineController, InsureController, NoOptController, PowerController,
};
use insure::core::metrics::RunMetrics;
use insure::core::system::{InSituSystem, WorkloadModel};
use insure::sim::time::{SimDuration, SimTime};
use insure::solar::trace::{high_generation_day, low_generation_day};

fn run(controller: Box<dyn PowerController>, high_solar: bool) -> RunMetrics {
    let solar = if high_solar {
        high_generation_day(7)
    } else {
        low_generation_day(7)
    };
    let mut system = InSituSystem::builder(solar, controller)
        .workload(WorkloadModel::seismic())
        .time_step(SimDuration::from_secs(10))
        .build();
    system.run_until(SimTime::from_hms(23, 59, 50));
    RunMetrics::collect(&system)
}

fn print_row(m: &RunMetrics) {
    println!(
        "{:<36} {:>7.1}% {:>9.2} {:>9.1} {:>10.0} {:>8.2} {:>6} {:>6}",
        m.controller,
        m.uptime * 100.0,
        m.throughput_gb_per_hour,
        m.mean_latency_minutes,
        m.mean_stored_energy_wh,
        m.gb_per_amp_hour,
        m.brownouts,
        m.emergency_shutdowns,
    );
}

fn main() {
    for (label, high) in [
        ("HIGH solar generation", true),
        ("LOW solar generation", false),
    ] {
        println!("=== Seismic field deployment — {label} ===");
        println!(
            "{:<36} {:>8} {:>9} {:>9} {:>10} {:>8} {:>6} {:>6}",
            "controller", "uptime", "GB/h", "lat(min)", "buf(Wh)", "GB/Ah", "brown", "emerg"
        );
        print_row(&run(Box::new(InsureController::default()), high));
        print_row(&run(Box::new(BaselineController::new()), high));
        print_row(&run(Box::new(NoOptController::new()), high));
        println!();
    }
    println!("InSURE should lead on uptime, buffer energy and GB/Ah — the");
    println!("20–60 % margins of the paper's Fig. 20.");
}
