//! Remote video-surveillance station: the paper's continuous-stream case
//! study.
//!
//! Twenty-four cameras feed 0.21 GB/min (Table 3's workload) into the
//! standalone cluster. The example sweeps the VM cap like Table 3, then
//! runs the full InSURE day like Fig. 21.
//!
//! ```sh
//! cargo run --example video_surveillance
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "example code")]

use insure::cluster::rack::Rack;
use insure::core::controller::InsureController;
use insure::core::metrics::RunMetrics;
use insure::core::system::{InSituSystem, WorkloadModel};
use insure::sim::time::{SimDuration, SimTime};
use insure::solar::trace::high_generation_day;
use insure::workload::scaling::ScalingModel;
use insure::workload::stream::{StreamSpec, StreamWorkload};

fn main() {
    // --- Part 1: Table 3's VM sweep at fixed capacity. -----------------
    println!("=== Table 3-style sweep: VM instances vs stream health ===");
    println!(
        "{:>4} {:>12} {:>12} {:>12}",
        "VMs", "GB/min", "delay(min)", "backlog(GB)"
    );
    let model = ScalingModel::video_surveillance();
    for vms in [8u32, 6, 4, 2] {
        let capacity = model.gb_per_hour(vms, 1.0);
        let mut stream = StreamWorkload::new(StreamSpec::video_surveillance());
        for _ in 0..(4 * 60) {
            stream.step(SimDuration::from_minutes(1), capacity);
        }
        println!(
            "{:>4} {:>12.3} {:>12.2} {:>12.1}",
            vms,
            capacity / 60.0,
            stream.mean_delay_minutes(),
            stream.backlog_gb()
        );
    }
    println!();

    // --- Part 2: a full standalone day under InSURE (Fig. 21). ---------
    println!("=== Full day: 24-camera station under InSURE ===");
    let mut system = InSituSystem::builder(
        high_generation_day(3),
        Box::new(InsureController::default()),
    )
    .workload(WorkloadModel::video())
    .rack(Rack::prototype())
    .time_step(SimDuration::from_secs(10))
    .build();
    system.run_until(SimTime::from_hms(23, 59, 50));
    let m = RunMetrics::collect(&system);
    println!(
        "video data processed : {:8.1} GB of {:.1} GB generated",
        m.processed_gb,
        0.21 * 60.0 * 24.0
    );
    println!("mean service delay   : {:8.1} min", m.mean_latency_minutes);
    println!("cluster uptime       : {:8.1} %", m.uptime * 100.0);
    println!("e-Buffer mean energy : {:8.0} Wh", m.mean_stored_energy_wh);
    println!("VM control actions   : {:8}", m.vm_ctrl_times);
}
