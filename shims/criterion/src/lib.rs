//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API subset the workspace's benches use — groups,
//! throughput annotation, `bench_function` / `bench_with_input`, and the
//! `criterion_group!` / `criterion_main!` macros — with a simple but
//! honest measurement loop: calibrate the iteration count to a target
//! sample duration, collect `sample_size` samples, report the median.
//!
//! No statistical regression analysis, plots or baselines; output is one
//! line per benchmark on stdout, plus an upstream-compatible
//! `target/criterion/<label…>/new/estimates.json` median per benchmark.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group; scales the report.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier composed of a function name and a parameter.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter`, as upstream formats it.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }

    /// A bare parameter id.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// The display label.
    fn label(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn label(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn label(self) -> String {
        self
    }
}

/// The per-benchmark timing driver passed to bench closures.
pub struct Bencher {
    iters_hint: u64,
    samples: Vec<f64>, // ns per iteration, one per sample
    sample_count: usize,
}

impl Bencher {
    /// Times `routine`, running it enough times per sample for a stable
    /// reading.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: find an iteration count taking ≈ the target sample
        // time (or use the hint from a previous sample batch).
        let mut iters = self.iters_hint.max(1);
        if self.iters_hint == 0 {
            let target = Duration::from_millis(20);
            loop {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(routine());
                }
                let elapsed = start.elapsed();
                if elapsed >= target || iters >= 1 << 30 {
                    // Scale so one sample lands near the target.
                    if elapsed > Duration::ZERO && elapsed < target {
                        let scale = target.as_secs_f64() / elapsed.as_secs_f64();
                        iters = ((iters as f64 * scale).ceil() as u64).max(1);
                    }
                    break;
                }
                iters = iters.saturating_mul(2);
            }
            self.iters_hint = iters;
        }
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
            self.samples.push(ns);
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the group throughput annotation.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Times `f` under `id`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.label());
        let (median_ns, samples) = run_bench(self.sample_size, &mut f);
        report(&label, median_ns, samples, self.throughput);
        self
    }

    /// Times `f` under `id` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label());
        let (median_ns, samples) = run_bench(self.sample_size, &mut |b: &mut Bencher| f(b, input));
        report(&label, median_ns, samples, self.throughput);
        self
    }

    /// Ends the group (kept for API parity; groups report as they run).
    pub fn finish(&mut self) {
        let _ = &self.criterion;
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(sample_count: usize, f: &mut F) -> (f64, usize) {
    let mut bencher = Bencher {
        iters_hint: 0,
        samples: Vec::new(),
        sample_count,
    };
    f(&mut bencher);
    let mut samples = bencher.samples;
    if samples.is_empty() {
        return (f64::NAN, 0);
    }
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], samples.len())
}

/// Locates `target/criterion` like upstream: `CARGO_TARGET_DIR` if set,
/// otherwise the nearest `target` directory at or above the working
/// directory (cargo runs bench binaries from the package root, so the
/// workspace `target` is found by walking up).
#[cfg_attr(test, allow(dead_code))] // only reached from the cfg(not(test)) persistence path
fn target_criterion_dir() -> Option<PathBuf> {
    if let Some(t) = std::env::var_os("CARGO_TARGET_DIR") {
        return Some(PathBuf::from(t).join("criterion"));
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let cand = dir.join("target");
        if cand.is_dir() {
            return Some(cand.join("criterion"));
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// `<root>/<label part>/…/new/estimates.json`, with path-hostile
/// characters in each slash-separated label part replaced by `_`.
fn estimates_path(root: &Path, label: &str) -> PathBuf {
    let mut dir = root.to_path_buf();
    for part in label.split('/').filter(|p| !p.is_empty()) {
        let safe: String = part
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        dir.push(safe);
    }
    dir.join("new").join("estimates.json")
}

/// Persists the median under the upstream directory scheme. Best-effort:
/// a read-only filesystem must not fail the bench run. Skipped when the
/// shim itself is under test so unit tests never pollute `target/`.
fn save_estimates(label: &str, median_ns: f64) {
    #[cfg(test)]
    let _ = (label, median_ns);
    #[cfg(not(test))]
    {
        if !median_ns.is_finite() {
            return;
        }
        let Some(root) = target_criterion_dir() else {
            return;
        };
        let path = estimates_path(&root, label);
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let body = format!("{{\"median\":{{\"point_estimate\":{median_ns}}}}}\n");
        let _ = std::fs::write(&path, body);
    }
}

fn report(label: &str, median_ns: f64, samples: usize, throughput: Option<Throughput>) {
    save_estimates(label, median_ns);
    let time = format_ns(median_ns);
    let rate = match throughput {
        Some(Throughput::Elements(n)) if median_ns > 0.0 => {
            format!("  {} elem/s", format_count(n as f64 * 1e9 / median_ns))
        }
        Some(Throughput::Bytes(n)) if median_ns > 0.0 => {
            format!("  {}B/s", format_count(n as f64 * 1e9 / median_ns))
        }
        _ => String::new(),
    };
    println!("{label:<52} time: {time:>12}{rate}   ({samples} samples)");
}

fn format_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "n/a".to_string()
    } else if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn format_count(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} K", v / 1e3)
    } else {
        format!("{v:.0} ")
    }
}

/// The top-level benchmark driver.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.default_sample_size;
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size,
        }
    }

    /// Times `f` outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = id.label();
        let (median_ns, samples) = run_bench(self.default_sample_size, &mut f);
        report(&label, median_ns, samples, None);
        self
    }
}

/// Bundles bench functions into a group runner, mirroring upstream.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` running the given groups, mirroring upstream.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // cargo bench passes `--bench`; `cargo test --benches` passes
            // `--test`, under which benches are skipped (they only time).
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_produces_samples() {
        let (median, samples) = run_bench(5, &mut |b: &mut Bencher| {
            b.iter(|| std::hint::black_box(3u64).wrapping_mul(7))
        });
        assert_eq!(samples, 5);
        assert!(median.is_finite() && median > 0.0);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim_smoke");
        g.throughput(Throughput::Elements(100));
        g.sample_size(3);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("with_input", 4), &4u32, |b, &x| {
            b.iter(|| x * 2)
        });
        g.finish();
    }

    #[test]
    fn estimates_path_mirrors_label_structure() {
        let p = estimates_path(Path::new("/t/criterion"), "group/bench name/4");
        assert_eq!(
            p,
            Path::new("/t/criterion/group/bench_name/4/new/estimates.json")
        );
    }

    #[test]
    fn formatting_scales() {
        assert!(format_ns(12.3).contains("ns"));
        assert!(format_ns(12_300.0).contains("µs"));
        assert!(format_ns(12_300_000.0).contains("ms"));
        assert!(format_ns(2e9).contains(" s"));
    }
}
