//! A mixed-weather week in the field.
//!
//! Runs the prototype through seven consecutive days of varying weather
//! (the §6.2 sunny/cloudy/rainy regimes back-to-back) and reports how the
//! e-Buffer and workload ride through multi-day energy droughts.
//!
//! ```sh
//! cargo run --example weather_week
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "example code")]

use insure::core::controller::InsureController;
use insure::core::log::daily_logs;
use insure::core::metrics::RunMetrics;
use insure::core::system::InSituSystem;
use insure::sim::time::{SimDuration, SimTime};
use insure::solar::trace::SolarTraceBuilder;
use insure::solar::weather::DayWeather;

fn main() {
    use DayWeather::{Cloudy, Rainy, Sunny};
    let week = [Sunny, Sunny, Cloudy, Rainy, Rainy, Cloudy, Sunny];
    let solar = SolarTraceBuilder::new().seed(11).build_days(&week);

    let mut system = InSituSystem::builder(solar, Box::new(InsureController::default()))
        .time_step(SimDuration::from_secs(30))
        .build();
    system.run_until(SimTime::from_secs(week.len() as u64 * 24 * 3600));

    println!("=== One week in the field (InSURE controller) ===");
    println!(
        "{:>4} {:>8} {:>10} {:>10} {:>7} {:>7} {:>8} {:>7}",
        "day", "weather", "solar kWh", "load kWh", "min V", "end V", "volt σ", "events"
    );
    for (log, weather) in daily_logs(&system).iter().zip(&week) {
        println!(
            "{:>4} {:>8} {:>10.2} {:>10.2} {:>7.1} {:>7.1} {:>8.3} {:>7}",
            log.day + 1,
            weather.to_string(),
            log.solar_kwh,
            log.load_kwh,
            log.min_voltage,
            log.end_voltage,
            log.voltage_sigma,
            log.brownouts + log.emergency_shutdowns,
        );
    }

    let m = RunMetrics::collect(&system);
    println!();
    println!("{m}");
}
