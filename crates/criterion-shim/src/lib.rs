//! Minimal benchmarking shim with the `criterion` API surface this
//! workspace uses.
//!
//! The build environment has no registry access, so the real `criterion`
//! crate cannot be fetched. This shim keeps the bench sources unchanged:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`], [`criterion_group!`] and [`criterion_main!`] all
//! exist with compatible signatures. Timing is a straightforward
//! wall-clock measurement: one warm-up call sizes a single batch of up to
//! 10 000 iterations (about 100 ms), and the batch mean is printed as
//! `name  ...  <time>/iter` — no statistics engine, plots, or baselines.

use std::time::{Duration, Instant};

/// Re-export for `use criterion::black_box` compatibility.
pub use std::hint::black_box;

/// Per-iteration timing driver handed to benchmark closures.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Mean nanoseconds per iteration of the last [`Bencher::iter`] run.
    last_ns_per_iter: f64,
}

impl Bencher {
    /// Mean nanoseconds per iteration of the last [`Bencher::iter`] run.
    ///
    /// `0.0` before the first `iter` call. Exposed so callers that record
    /// benchmark artifacts (e.g. `BENCH_step.json`) can read the
    /// measurement instead of scraping stdout.
    #[must_use]
    pub fn ns_per_iter(&self) -> f64 {
        self.last_ns_per_iter
    }

    /// Times `routine`, auto-scaling the iteration count so the
    /// measurement lasts long enough to be meaningful but stays fast.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warm up and estimate a single-iteration cost. Wall-clock time
        // is the whole point of a benchmark harness.
        #[expect(clippy::disallowed_methods, reason = "benchmarks measure wall time")]
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));

        // Aim for ~100 ms of measurement, capped to keep heavy
        // experiment benches from dragging.
        let target = Duration::from_millis(100);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
        #[expect(clippy::disallowed_methods, reason = "benchmarks measure wall time")]
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let total = start.elapsed();
        self.last_ns_per_iter = total.as_nanos() as f64 / iters as f64;
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Benchmark registry/driver. Created by [`criterion_group!`]'s runner.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<(String, f64)>,
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        println!(
            "bench: {name:<44} {:>12}/iter",
            format_ns(b.last_ns_per_iter)
        );
        self.results.push((name.to_string(), b.last_ns_per_iter));
        self
    }

    /// All `(name, mean ns/iter)` measurements recorded so far, in run
    /// order. Lets a driver export benchmark artifacts as JSON.
    #[must_use]
    pub fn results(&self) -> &[(String, f64)] {
        &self.results
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }
}

/// A named group of benchmarks (settings are accepted and ignored).
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample count (accepted for API compatibility; ignored).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the measurement time (accepted for API compatibility; ignored).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        self.criterion.bench_function(&full, f);
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench entry point running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_times_and_chains() {
        let mut c = Criterion::default();
        c.bench_function("shim_smoke", |b| b.iter(|| 1 + 1))
            .bench_function("shim_smoke_2", |b| b.iter(|| black_box(2) * 2));
    }

    #[test]
    fn groups_accept_settings() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(10).bench_function("inner", |b| b.iter(|| ()));
        g.finish();
    }

    #[test]
    fn results_record_every_bench_in_order() {
        let mut c = Criterion::default();
        c.bench_function("first", |b| b.iter(|| black_box(1) + 1));
        let mut g = c.benchmark_group("grp");
        g.bench_function("second", |b| b.iter(|| black_box(2) + 2));
        g.finish();
        let names: Vec<&str> = c.results().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["first", "grp/second"]);
        assert!(c.results().iter().all(|(_, ns)| *ns > 0.0));
    }

    #[test]
    fn format_ns_scales() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("µs"));
        assert!(format_ns(12_000_000.0).contains("ms"));
        assert!(format_ns(12_000_000_000.0).contains('s'));
    }
}
