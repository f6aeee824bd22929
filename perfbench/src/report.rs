//! Metric registry, per-run report and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::check::Mismatch;
use crate::host::{HostGauge, REFERENCE_MS};
use crate::stats::{median, percentile};

/// One per-layer metric: its unit, direction, crate layer and the
/// end-to-end metric (on which workload) it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const SY: &str = "sim_days_per_s on site_year";
const FG: &str = "sim_days_per_s on fault_grid";
const FD: &str = "sim_days_per_s on fleet_day";
const SP: &str = "period_ms_p50, period_ms_p99 on service_period";

/// Every per-layer metric a traced run reports, in output order. A
/// workload reports 0 for a layer it never calls.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("core.step_ns", "ns", "lower", "core", SY),
    m("core.step_ns_p99", "ns", "lower", "core", SY),
    m("core.steps", "count", "lower", "core", SY),
    m("core.control_ns", "ns", "lower", "core", SY),
    m("core.control_calls", "count", "lower", "core", SY),
    m("core.step_uncovered_share", "share", "lower", "core", SY),
    m(
        "core.build_ms",
        "ms",
        "lower",
        "core",
        "sim_days_per_s on fault_grid; setup_s on fleet_day",
    ),
    m("core.snapshot_us", "us", "lower", "core", FG),
    m("core.fork_us", "us", "lower", "core", FG),
    m("battery.discharge_ns", "ns", "lower", "battery", SY),
    m("battery.charge_ns", "ns", "lower", "battery", SY),
    m("battery.rest_ns", "ns", "lower", "battery", SY),
    m("battery.calls_per_step", "count", "lower", "battery", SY),
    m("powernet.settle_ns", "ns", "lower", "powernet", SY),
    m("powernet.charger_ns", "ns", "lower", "powernet", SY),
    m(
        "powernet.switch_ops",
        "count",
        "lower",
        "powernet",
        "simulated: must not move for a simulator-only change",
    ),
    m("cluster.rack_step_ns", "ns", "lower", "cluster", SY),
    m("cluster.power_demand_ns", "ns", "lower", "cluster", SY),
    m(
        "workload.step_ns",
        "ns",
        "lower",
        "workload",
        "sim_days_per_s on site_year and fault_grid",
    ),
    m(
        "workload.checkpoint_writes",
        "count",
        "lower",
        "workload",
        "simulated: must not move for a simulator-only change",
    ),
    m(
        "solar.build_ms",
        "ms",
        "lower",
        "solar",
        "setup_s on site_year and fleet_day",
    ),
    m("solar.power_at_ns", "ns", "lower", "solar", SY),
    m(
        "sim.trace_samples",
        "count",
        "lower",
        "sim",
        "peak_rss_mb on site_year and fleet_day",
    ),
    m(
        "sim.trace_bytes",
        "bytes",
        "lower",
        "sim",
        "peak_rss_mb on site_year and fleet_day; sim_days_per_s on site_year",
    ),
    m(
        "sim.fault_events",
        "count",
        "lower",
        "sim",
        "simulated: must not move for a simulator-only change",
    ),
    m("sim.plan_us", "us", "lower", "sim", FG),
    m("runner.cells", "count", "higher", "runner", FG),
    m("runner.forked_cells", "count", "higher", "runner", FG),
    m("runner.fork_ratio", "share", "higher", "runner", FG),
    m("runner.prefix_share", "share", "lower", "runner", FG),
    m("runner.cell_ms_p50", "ms", "lower", "runner", FG),
    m("runner.cell_ms_max", "ms", "lower", "runner", FG),
    m(
        "runner.parallel_efficiency",
        "share",
        "higher",
        "runner",
        FG,
    ),
    m("fleet.tick_us_p50", "us", "lower", "fleet", FD),
    m("fleet.tick_us_p99", "us", "lower", "fleet", FD),
    m("fleet.site_steps", "count", "lower", "fleet", FD),
    m("fleet.retries", "count", "lower", "fleet", FD),
    m("fleet.hedges", "count", "lower", "fleet", FD),
    m("fleet.duplicate_serves", "count", "lower", "fleet", FD),
    m("fleet.duplicates_per_hedge", "share", "lower", "fleet", FD),
    m("service.tick_ms", "ms", "lower", "service", SP),
    m("service.decide_us", "us", "lower", "service", SP),
    m("service.telemetry_write_us", "us", "lower", "service", SP),
    m("service.token_save_ms", "ms", "lower", "service", SP),
    m("service.safe_periods", "count", "lower", "service", SP),
    m("service.restarts", "count", "lower", "service", SP),
    m("service.offered", "count", "higher", "service", SP),
    m("service.served", "count", "higher", "service", SP),
    m("service.degraded", "count", "lower", "service", SP),
    m("service.shed", "count", "lower", "service", SP),
    m("service.failed", "count", "lower", "service", SP),
    m("service.queued_max", "count", "lower", "service", SP),
    m(
        "trace.overhead_share",
        "share",
        "lower",
        "bench",
        "every end-to-end metric of this workload (traced vs untraced)",
    ),
    m(
        "host.calibration_ms",
        "ms",
        "lower",
        "host",
        "none: normalises numbers across hosts",
    ),
];

/// Stages no outside replay can reach, and why.
pub const NOT_MEASURED: &[(&str, &str)] = &[
    (
        "fleet: router vs site split inside Fleet::step_tick",
        "Site and the fleet's site vector cannot be copied from outside; waits for in-program tracing",
    ),
    (
        "core: observation building, fault drain, accounting and trace recording inside InSituSystem::step",
        "private to step; reported together as core.step_uncovered_share",
    ),
];

/// The end-to-end metrics, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub sim_days_per_s: f64,
    pub period_ms_p50: f64,
    pub period_ms_p99: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    fn entries(&self) -> [(&'static str, f64, &'static str); 5] {
        [
            ("setup_s", self.setup_s, "s"),
            ("sim_days_per_s", self.sim_days_per_s, "days/s"),
            ("period_ms_p50", self.period_ms_p50, "ms"),
            ("period_ms_p99", self.period_ms_p99, "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Periods per block: each block yields one p50 and one p99 (ten
/// samples beyond it).
const BLOCK: usize = 1000;

/// Episodes and blocks a run is expected to stay within.
const RESERVED: usize = 4096;

/// The untraced measurements of each episode of a run, in host time
/// scaled to reference speed (see `HostGauge`). Period samples are
/// folded into per-block percentiles as they arrive, so memory does not
/// grow with how many periods a run manages, and peak RSS does not
/// depend on host speed.
#[derive(Debug)]
pub struct EpisodeLog {
    gauge: HostGauge,
    /// The kernel time, ms, just before the current episode.
    start_ms: f64,
    /// Kernel times, ms, taken inside the current episode, each after
    /// the given number of its periods.
    marks: Vec<(usize, f64)>,
    /// Host slowdown against reference speed, per episode.
    slowdown: Vec<f64>,
    /// Unscaled set-up times and rates, printed for comparison.
    raw_setup_s: Vec<f64>,
    raw_rate: Vec<f64>,
    setup_s: Vec<f64>,
    /// Simulated site-days per host second.
    rate: Vec<f64>,
    block: Vec<f64>,
    block_p50: Vec<f64>,
    block_p99: Vec<f64>,
}

impl EpisodeLog {
    /// Reserves room for a long run up front: a vector that grows while
    /// episodes allocate and free their own state would pin the top of
    /// the heap and make peak RSS climb with the number of episodes.
    pub fn new() -> Self {
        let mut gauge = HostGauge::new();
        Self {
            start_ms: gauge.sample(),
            gauge,
            marks: Vec::with_capacity(64),
            slowdown: Vec::with_capacity(RESERVED),
            raw_setup_s: Vec::with_capacity(RESERVED),
            raw_rate: Vec::with_capacity(RESERVED),
            setup_s: Vec::with_capacity(RESERVED),
            rate: Vec::with_capacity(RESERVED),
            block: Vec::with_capacity(4 * RESERVED),
            block_p50: Vec::with_capacity(RESERVED),
            block_p99: Vec::with_capacity(RESERVED),
        }
    }

    /// Times the reference kernel inside an episode, after its first
    /// `periods` periods, outside the caller's timers. For episodes long
    /// enough for the host's state to change within them.
    pub fn mark(&mut self, periods: usize) {
        let ms = self.gauge.sample();
        self.marks.push((periods, ms));
    }

    /// Records one episode, measured in host time just before this call.
    /// Each period is scaled by the mean of the kernel times on either
    /// side of it (before the episode, at each mark, after the episode),
    /// the set-up by the time before the episode, and the rate by the
    /// slowdown over all periods.
    pub fn push(&mut self, setup_s: f64, rate: f64, period_ms: &[f64]) {
        let after_ms = self.gauge.sample();
        let mut points = vec![(0, self.start_ms)];
        points.append(&mut self.marks);
        points.push((period_ms.len(), after_ms));
        let (mut raw, mut scaled) = (0.0, 0.0);
        for pair in points.windows(2) {
            let slowdown = (pair[0].1 + pair[1].1) / 2.0 / REFERENCE_MS;
            for ms in &period_ms[pair[0].0..pair[1].0] {
                raw += ms;
                scaled += ms / slowdown;
                self.block.push(ms / slowdown);
                if self.block.len() == BLOCK {
                    self.close_block();
                }
            }
        }
        let slowdown = if scaled > 0.0 {
            raw / scaled
        } else {
            (self.start_ms + after_ms) / 2.0 / REFERENCE_MS
        };
        self.slowdown.push(slowdown);
        self.raw_setup_s.push(setup_s);
        self.raw_rate.push(rate);
        self.setup_s.push(setup_s * REFERENCE_MS / self.start_ms);
        self.rate.push(rate * slowdown);
        self.start_ms = after_ms;
    }

    fn close_block(&mut self) {
        self.block_p50.push(percentile(&self.block, 0.5));
        self.block_p99.push(percentile(&self.block, 0.99));
        self.block.clear();
    }

    /// Medians over episodes (set-up, rate) and over blocks (period
    /// percentiles), so one burst of contention from another tenant
    /// moves one block, not the run.
    pub fn end_to_end(mut self) -> EndToEnd {
        if self.block_p50.is_empty() {
            // Fewer periods than one block: one block of all of them.
            self.close_block();
        }
        println!(
            "# host slowdown {:.4} (median over {} episodes; kernel {:.3} ms at reference speed); unscaled medians: setup_s {:.6} s, sim_days_per_s {:.3} days/s",
            median(&self.slowdown),
            self.slowdown.len(),
            REFERENCE_MS,
            median(&self.raw_setup_s),
            median(&self.raw_rate)
        );
        EndToEnd {
            setup_s: median(&self.setup_s),
            sim_days_per_s: median(&self.rate),
            period_ms_p50: median(&self.block_p50),
            period_ms_p99: median(&self.block_p99),
            peak_rss_mb: 0.0,
        }
    }
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells, site-days or control periods).
    pub attempted: u64,
    /// Operations whose simulated output mismatched or that failed.
    pub failed: u64,
    /// Mismatch and failure messages.
    pub problems: Vec<String>,
    pub end_to_end: EndToEnd,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|m| m.name == name),
            "unregistered layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Records the outcome of one output check: when anything differs,
    /// the `ops` operations it covers count as failed.
    pub fn check(&mut self, ops: u64, mismatch: Mismatch) {
        if mismatch.fields > 0 {
            self.failed += ops;
            self.problems.extend(mismatch.messages);
        }
    }

    /// The human-readable lines printed before the JSON.
    pub fn summary(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "# {workload}: attempted={} failed={} failed_share={share}",
            self.attempted, self.failed
        );
        if trace {
            let _ = writeln!(
                out,
                "# {:<28} {:>16} {:<6} {:<7} {:<9} should move",
                "layer metric", "value", "unit", "better", "layer"
            );
            for m in LAYER_METRICS {
                let v = self.layers.get(m.name).copied().unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "# {:<28} {:>16.3} {:<6} {:<7} {:<9} {}",
                    m.name, v, m.unit, m.better, m.layer, m.moves
                );
            }
            for (what, why) in NOT_MEASURED {
                let _ = writeln!(out, "# not measured: {what} ({why})");
            }
        } else {
            for (name, v, unit) in self.end_to_end.entries() {
                let _ = writeln!(out, "# {name:<16} {v:>14.6} {unit}");
            }
        }
        out
    }

    /// The final line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = if trace {
            LAYER_METRICS
                .iter()
                .map(|m| {
                    let v = self.layers.get(m.name).copied().unwrap_or(0.0);
                    entry(m.name, v, m.unit)
                })
                .collect()
        } else {
            self.end_to_end
                .entries()
                .iter()
                .map(|(name, v, unit)| entry(name, *v, unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn entry(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

/// One traced span: a named interval and the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span log, written once when the run ends. Spans past the
/// cap are counted, not kept, so the log cannot distort memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

const SPAN_CAP: usize = 200_000;

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a span that started at `start` and ends now; returns its
    /// id (0 when dropped), usable as a parent for later spans.
    pub fn span(&mut self, name: &'static str, parent: u32, start: Instant) -> u32 {
        let end = Instant::now();
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(Span {
            name,
            parent,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        self.spans.len() as u32
    }

    /// Writes the spans as JSON lines (`id`, `parent`, `name`, start and
    /// duration in ns) and returns per-name total and self time, where
    /// self time excludes the part covered by child spans.
    pub fn finish(
        &self,
        path: &std::path::Path,
    ) -> std::io::Result<Vec<(&'static str, u64, f64, f64)>> {
        use std::io::Write;
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                file,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.dur_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(file, "{{\"dropped\":{}}}", self.dropped)?;
        }
        file.flush()?;
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize] += s.dur_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += s.dur_ns.saturating_sub(child_ns[i + 1]);
        }
        Ok(by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 / 1e6, own as f64 / 1e6))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_layer_metric() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        for m in LAYER_METRICS {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}"}}"#,
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let end_to_end = EndToEnd::default().entries().len();
        assert_eq!(
            text.matches(r#""better""#).count(),
            LAYER_METRICS.len() + end_to_end
        );
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 3,
            ..Report::default()
        };
        let line = report.json(false);
        assert!(line.starts_with(
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s""#
        ));
        let traced = report.json(true);
        assert_eq!(traced.matches(r#""unit""#).count(), LAYER_METRICS.len());
    }
}
