//! Quickstart: build the prototype system, run one sunny day, print what
//! happened.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "example code")]

use insure::core::controller::InsureController;
use insure::core::metrics::RunMetrics;
use insure::core::system::InSituSystem;
use insure::sim::time::{SimDuration, SimTime};
use insure::solar::trace::high_generation_day;

fn main() {
    // A reproducible high-generation day on the 1.6 kW array (the paper's
    // Fig. 15-a conditions).
    let solar = high_generation_day(42);

    // The prototype: three 24 V battery cabinets, four ProLiant servers,
    // the seismic batch workload, under the InSURE controller.
    let mut system = InSituSystem::builder(solar, Box::new(InsureController::default()))
        .time_step(SimDuration::from_secs(10))
        .build();

    println!(
        "Running one simulated day under {} ...",
        system.controller_name()
    );
    system.run_until(SimTime::from_hms(23, 59, 50));

    let m = RunMetrics::collect(&system);
    println!();
    println!("=== InSURE quickstart: one sunny day ===");
    println!("solar harvested        : {:8.2} kWh", m.solar_kwh);
    println!(
        "load energy            : {:8.2} kWh ({:.2} kWh effective)",
        m.load_kwh, m.effective_kwh
    );
    println!(
        "data processed         : {:8.1} GB ({:.2} GB/h)",
        m.processed_gb, m.throughput_gb_per_hour
    );
    println!("cluster uptime         : {:8.1} %", m.uptime * 100.0);
    println!(
        "power availability     : {:8.1} %",
        m.service_availability * 100.0
    );
    println!(
        "mean job turnaround    : {:8.1} min",
        m.mean_latency_minutes
    );
    println!(
        "e-Buffer mean energy   : {:8.0} Wh",
        m.mean_stored_energy_wh
    );
    println!("e-Buffer voltage σ     : {:8.3} V", m.voltage_sigma);
    println!(
        "expected battery life  : {:8.0} days",
        m.expected_service_life_days
    );
    println!("perf per Ah            : {:8.2} GB/Ah", m.gb_per_amp_hour);
    println!(
        "control activity       : {} relay/duty ops, {} on/off cycles, {} VM ops",
        m.power_ctrl_times, m.on_off_cycles, m.vm_ctrl_times
    );
    println!(
        "incidents              : {} brown-outs, {} emergency shutdowns",
        m.brownouts, m.emergency_shutdowns
    );
}
