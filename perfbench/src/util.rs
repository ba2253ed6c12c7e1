//! Seeded input generation, order statistics and `/proc` readers shared by
//! every workload.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so the same `--seed` always yields
/// the same inputs without any external crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `count` distinct values of `range`, sorted.
    pub fn sample_sorted(
        &mut self,
        range: std::ops::RangeInclusive<u64>,
        count: usize,
    ) -> Vec<u64> {
        let mut pool: Vec<u64> = range.collect();
        for i in 0..count.min(pool.len()) {
            let j = i + self.below((pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(count);
        pool.sort_unstable();
        pool
    }
}

/// Zipf(s) over ranks `0..n`, sampled by inverting a precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(exponent);
                total
            })
            .collect();
        for value in &mut cdf {
            *value /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation, as numpy's
/// default; `values` need not be sorted.  `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linux `USER_HZ`: `/proc` CPU times are in these ticks (fixed at 100 by
/// the kernel ABI on every mainstream architecture).
const TICKS_PER_SECOND: u64 = 100;

/// utime + stime, in µs, from a `/proc/.../stat` file; `None` when the
/// task has gone.
pub fn stat_cpu_us(path: impl AsRef<Path>) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name: state is field 3, utime
    // field 14 and stime field 15 of proc(5).
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks * 1_000_000 / TICKS_PER_SECOND)
}

/// CPU time (user + system) of the whole process so far, in µs.
pub fn process_cpu_us() -> u64 {
    stat_cpu_us("/proc/self/stat").expect("procfs stat of this process")
}

/// CPU time (user + system) of the calling thread so far, in µs.
pub fn thread_cpu_us() -> u64 {
    stat_cpu_us("/proc/thread-self/stat").expect("procfs stat of this thread")
}

/// A field of `/proc/self/status` in kB (e.g. `VmHWM`).
pub fn status_kb(field: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("procfs status is readable");
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") as f64 / 1024.0
}

/// Worker threads and connections per workload: the machine's CPU count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A scratch directory under the benchmark's work root, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(root: &Path, name: &str) -> Self {
        let path = root.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("work directory is creatable");
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Width of the windows a timed phase is cut into.  Each end-to-end
/// statistic is computed per window and the median over windows reported,
/// so one stall of the shared machine moves one window, not the run.
pub const WINDOW: Duration = Duration::from_secs(5);

/// A timed phase cut into equal windows of about [`WINDOW`].
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    start: Instant,
    width: Duration,
    count: usize,
}

impl Windows {
    pub fn new(start: Instant, phase: Duration) -> Self {
        let count = ((phase.as_secs_f64() / WINDOW.as_secs_f64()).floor() as usize).max(1);
        Self {
            start,
            width: phase / count as u32,
            count,
        }
    }

    pub fn count(&self) -> usize {
        self.count
    }

    /// The window `at` falls in; completions after the phase count in the
    /// last window.
    pub fn index(&self, at: Instant) -> usize {
        let index = at.saturating_duration_since(self.start).as_nanos() / self.width.as_nanos();
        (index as usize).min(self.count - 1)
    }

    /// Samples the process CPU time at every window boundary, blocking until
    /// the phase ends; `count + 1` marks.
    pub fn cpu_marks(&self) -> Vec<u64> {
        let mut marks = vec![process_cpu_us()];
        for boundary in 1..=self.count {
            let at = self.start + self.width * boundary as u32;
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            marks.push(process_cpu_us());
        }
        marks
    }
}

/// Per-window operation counts and latency samples of one timed phase.
#[derive(Debug, Clone)]
pub struct Tally {
    pub ops: Vec<u64>,
    pub latency_us: Vec<Vec<f64>>,
}

impl Tally {
    pub fn new(windows: &Windows) -> Self {
        Self {
            ops: vec![0; windows.count],
            latency_us: vec![Vec::new(); windows.count],
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for (window, (ops, latencies)) in other.ops.into_iter().zip(other.latency_us).enumerate() {
            self.ops[window] += ops;
            self.latency_us[window].extend(latencies);
        }
    }

    pub fn samples(&self) -> u64 {
        self.latency_us.iter().map(|w| w.len() as u64).sum()
    }

    /// Median over windows of `stat(window)`.
    fn per_window(&self, stat: impl Fn(usize) -> f64) -> f64 {
        let values: Vec<f64> = (0..self.ops.len()).map(stat).collect();
        median(&values)
    }

    pub fn latency(&self, q: f64) -> f64 {
        self.per_window(|w| quantile(&self.latency_us[w], q))
    }

    pub fn ops_per_s(&self, windows: &Windows) -> f64 {
        self.per_window(|w| self.ops[w] as f64 / windows.width.as_secs_f64())
    }

    /// Median over windows of CPU µs per operation, from [`Windows::cpu_marks`].
    pub fn cpu_us_per_op(&self, marks: &[u64]) -> f64 {
        self.per_window(|w| (marks[w + 1] - marks[w]) as f64 / self.ops[w] as f64)
    }
}
