//! Low-power station: swap the ProLiant rack for Core i7 nodes.
//!
//! §6.2 / Table 7: on InSURE, low-power servers deliver 5–15× more data
//! per unit of energy and ride through solar dips with fewer on/off
//! cycles. This example runs the same solar day on both rack types and
//! writes the power traces to CSV for plotting.
//!
//! ```sh
//! cargo run --example low_power_station
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "example code")]

use insure::cluster::profiles::ServerProfile;
use insure::cluster::rack::Rack;
use insure::core::controller::InsureController;
use insure::core::metrics::RunMetrics;
use insure::core::system::{InSituSystem, WorkloadModel};
use insure::sim::time::{SimDuration, SimTime};
use insure::solar::trace::high_generation_day;
use insure::workload::benchmark::by_name;
use insure::workload::scaling::ScalingModel;
use insure::workload::stream::{StreamSpec, StreamWorkload};

fn run_rack(profile: ServerProfile) -> (String, RunMetrics, String) {
    let bench = by_name("dedup").expect("dedup is in the catalog");
    let point = bench.point_for(&profile);
    let per_vm = bench.input_gb / (point.exec_time_s / 3600.0) / f64::from(profile.vm_slots);
    let workload = WorkloadModel::Stream {
        workload: StreamWorkload::new(StreamSpec {
            rate_gb_per_min: per_vm * 8f64.powf(0.9) * 1.5 / 60.0,
        }),
        scaling: ScalingModel::new(per_vm, 0.9),
        utilization: bench.utilization(&profile),
    };
    let name = profile.name.clone();
    let mut sys = InSituSystem::builder(
        high_generation_day(3),
        Box::new(InsureController::default()),
    )
    .rack(Rack::new(profile, 4))
    .workload(workload)
    .time_step(SimDuration::from_secs(30))
    .build();
    sys.run_until(SimTime::from_hms(23, 59, 30));
    let csv_head: String = {
        // First few rows of the aligned trace CSV, to show the format.
        let mut out = String::from("seconds,solar_w,load_w\n");
        for (s, l) in sys
            .trace_solar()
            .downsample(5)
            .iter()
            .zip(sys.trace_load().downsample(5))
        {
            out.push_str(&format!(
                "{},{:.0},{:.0}\n",
                s.time.as_secs(),
                s.value,
                l.value
            ));
        }
        out
    };
    (name, RunMetrics::collect(&sys), csv_head)
}

fn main() {
    println!("=== dedup, one sunny day, four machines of each class ===\n");
    let (xeon_name, xeon, _) = run_rack(ServerProfile::xeon_proliant());
    let (i7_name, i7, csv) = run_rack(ServerProfile::core_i7());

    for (name, m) in [(&xeon_name, &xeon), (&i7_name, &i7)] {
        println!("--- {name} ---");
        println!("{m}");
        println!(
            "  system-level efficiency: {:.0} GB per kWh of load energy\n",
            m.processed_gb / m.load_kwh.max(1e-9)
        );
    }
    println!(
        "low-power rack advantage: {:.1}× GB/kWh, {:+.0} GB total",
        (i7.processed_gb / i7.load_kwh.max(1e-9)) / (xeon.processed_gb / xeon.load_kwh.max(1e-9)),
        i7.processed_gb - xeon.processed_gb
    );
    println!("\nsample of the exported trace CSV (see ins_bench::export):");
    print!("{csv}");
}
