//! Service quickstart: drive the supervised daemon's deterministic core
//! in-process — replay feed in, telemetry out — through a fault storm
//! and a graceful drain.
//!
//! ```sh
//! cargo run --example service_quickstart
//! ```
//!
//! The same engine/seed/feed triple fed to the real daemon reproduces
//! these lines byte-for-byte:
//!
//! ```sh
//! cargo run -p ins-service --bin insure_service -- \
//!     --engine insure --seed 42 --replay feed.csv
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "example code")]

use insure::service::admission::WorkClass;
use insure::service::harness::{ServiceCore, ServiceSpec};
use insure::service::supervisor::EngineFault;
use insure::sim::replay::ReplayFeed;

fn main() {
    // A synthetic late morning: one row per control period (60 s),
    // irradiance ramping up, a couple of GB of stream work per period.
    let mut csv = String::from("# time_s, solar_w, work_gb\n");
    for i in 0..20u64 {
        csv.push_str(&format!(
            "{}, {:.1}, {:.1}\n",
            i * 60,
            250.0 + 45.0 * i as f64,
            2.0
        ));
    }
    let feed = ReplayFeed::parse(&csv).expect("synthetic feed parses");

    let mut spec = ServiceSpec::prototype("insure", 42);
    spec.replay = Some(feed);
    let mut core = ServiceCore::try_new(spec).expect("service core builds");

    println!("=== supervised service: 18 periods, 2 injected faults ===");
    for tick in 0..18u64 {
        // A wedged decision at tick 5 and a crash at tick 10: safe mode
        // takes over within the same control period, the supervisor
        // restarts the engine under backoff, and the plant never stalls.
        if tick == 5 {
            core.inject(EngineFault::Stalled);
        }
        if tick == 10 {
            core.inject(EngineFault::Panicked);
        }
        // Foreground offers on top of the feed: batch is shed before
        // stream whenever the queue or the engine degrades.
        if tick % 4 == 0 {
            core.offer(WorkClass::Batch, 1.5);
            core.offer(WorkClass::Stream, 0.5);
        }
        let line = core.tick().expect("core not drained yet");
        println!("{line}");
    }

    // Graceful drain: close intake, flush the queue into the plant,
    // flush checkpoints, settle the ledger.
    let report = core.drain();
    println!("{}", report.line);

    let counters = core.supervisor_counters();
    println!();
    println!(
        "panics={} stalls={} restarts={} safe_periods={}",
        counters.panics, counters.stalls, counters.restarts, counters.safe_periods
    );
    println!(
        "every offer resolved: {}",
        core.admission().fully_accounted()
    );
}
