//! Host fingerprint, calibration loop and process memory.
//!
//! These values are printed with every result so numbers from another
//! machine can be normalised; none of them feeds a bound.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the results were measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub online_cpus: usize,
    pub available_parallelism: usize,
    pub rustc: &'static str,
    pub commit: String,
    pub calibration_ms: f64,
}

impl Fingerprint {
    pub fn collect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
        let online_cpus = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        Self {
            cpu_model,
            online_cpus,
            available_parallelism: available_threads(),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit(Path::new(".")),
            calibration_ms: calibrate(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "# host cpu=\"{}\" nproc={} available_parallelism={} rustc=\"{}\" commit={} calibration_ms={:.3}",
            self.cpu_model,
            self.online_cpus,
            self.available_parallelism,
            self.rustc,
            self.commit,
            self.calibration_ms
        )
    }
}

/// Threads the OS lets this process run at once.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit checked out at `root`, read straight from `.git` (no
/// subprocess); `none` when `root` is not a git checkout.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

/// Median of five timings of a fixed integer and floating-point loop
/// (a xorshift feeding a multiply-add chain), in milliseconds. The
/// ratio of two hosts' calibration times is a first-order conversion
/// factor for single-thread numbers.
pub fn calibrate() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
            let mut acc = 0.0f64;
            for _ in 0..black_box(4_000_000u32) {
                acc = acc.mul_add(0.999_999, (xorshift(&mut x) >> 11) as f64 * 1e-16);
            }
            black_box((x, acc));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median cost of an empty `Instant` span, ns — subtracted from the
/// single-call stage replays so the timer's own cost is not charged to
/// the stage.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..10_001)
        .map(|_| {
            let start = Instant::now();
            black_box(());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Host-speed gauge: a fixed reference kernel timed between episodes.
///
/// The shared host drifts between speed states, from one second to the
/// next and for minutes at a time, with thread CPU time equal to wall
/// time: the core itself runs slower, and the simulator with it, by up
/// to 1.9×. That is far more than a code change of interest moves it.
/// The kernel is the benchmark's own code and never changes with the
/// program, so scaling an episode's host time by the kernel's time
/// around it cancels the host's state and keeps a change to the program
/// in full.
///
/// The kernel must slow as the simulator does. Logged next to every
/// episode of all four workloads over 25 minutes of changing host state,
/// register-bound loops (an xorshift/multiply-add chain, a branchy
/// random walk) slowed less than the simulator, and loads chased
/// through a table the size of one core's L2 slowed far more. What
/// tracked it is code like its own: filling a `HashMap<String, f64>`
/// from `format!`-built keys, stepping 64 records of 4 KiB with
/// data-dependent branches and floating-point updates (as a fleet's
/// sites are stepped), and allocating and freeing vectors of varying
/// length. The kernel runs those three, the same work every time: about
/// 1.5 ms on a fast host, 3.3 ms on a slow one.
#[derive(Debug)]
pub struct HostGauge {
    /// 64 records of 512 words.
    records: Vec<u64>,
}

const RECORDS: usize = 64;
const RECORD_WORDS: usize = 512;
/// The kernel time, ms, that defines reference speed: about its time on
/// the 2-vCPU Xeon (Sapphire Rapids) VM the baseline was measured on, in
/// that host's fast state. Scaled times read roughly as host times there.
pub const REFERENCE_MS: f64 = 1.5;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl HostGauge {
    pub fn new() -> Self {
        let mut gauge = Self {
            records: vec![0; RECORDS * RECORD_WORDS],
        };
        // Warm-up: the allocator's arenas and the records.
        for _ in 0..4 {
            gauge.sample();
        }
        gauge
    }

    /// Runs the kernel once; returns its time, ms.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);

        let mut map = HashMap::new();
        for i in 0..black_box(5_000u64) {
            let key = format!("site{}.k{}", i % 97, xorshift(&mut x) % 50);
            *map.entry(key).or_insert(0.0) += i as f64;
        }
        let keys = map.len();
        drop(map);

        let mut acc = 0.0f64;
        for step in 0..black_box(800u32) {
            for record in self.records.chunks_exact_mut(RECORD_WORDS) {
                let r = xorshift(&mut x);
                let i = (r % RECORD_WORDS as u64) as usize;
                let v = record[i] as f64 * 1e-9 + f64::from(step);
                if r & 1 == 0 {
                    record[i] = record[i].wrapping_add(r >> 40);
                    acc += v.sqrt();
                } else if r & 2 == 0 {
                    acc -= v * 0.5;
                    record[(i + 7) % RECORD_WORDS] ^= r;
                } else {
                    acc = acc.mul_add(0.999, v);
                }
            }
        }

        let mut total = 0usize;
        for i in 0..black_box(8_000usize) {
            let v = vec![i as f64; 64 + i % 200];
            total += black_box(&v).len();
        }

        black_box((keys, acc, total));
        start.elapsed().as_secs_f64() * 1e3
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every thread it starts afterwards,
/// to the CPU it runs on now; returns that CPU, or `None` when the OS
/// refused. Used where a workload hands work to a thread of its own: on
/// a shared VM, waking a thread on another vCPU waits for the hypervisor
/// to run that vCPU. In the host's slow states that put the service
/// period's p99 at 3.6–6.2× its median and spread it by 0.67 across ten
/// runs; on one CPU, p99 was under 2.3× the median.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, correctly sized `cpu_set_t` for the
    // whole call, and pid 0 names the calling thread.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0;
    ok.then_some(cpu)
}
