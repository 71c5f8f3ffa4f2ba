//! A minimal, dependency-free stand-in for the slice of the `criterion`
//! API the kernel benchmarks use (`benchmark_group`, `bench_function`,
//! `iter`, `iter_batched`). The workspace builds offline, so the real
//! criterion crate is unavailable; this harness runs each routine a
//! configurable number of samples and prints min / median / mean wall
//! times in a table.
//!
//! Benchmarks are ordinary `[[bench]]` targets with `harness = false`
//! and a plain `main` that drives a [`Criterion`] value.

use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup (kept for API compatibility; this
/// harness always runs one setup per measured sample).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// Fresh state every iteration.
    PerIteration,
}

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    default_samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep runs fast: kernels here are all ≥ microseconds, and
        // `paperfigs` (not these microbenches) produces the paper's
        // figures.
        Criterion {
            default_samples: 15,
        }
    }
}

impl Criterion {
    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group {
        let name = name.into();
        println!("\n== {name}");
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            "benchmark", "min", "median", "mean"
        );
        Group {
            _name: name,
            samples: self.default_samples,
        }
    }
}

/// A benchmark group (named section of the report).
#[derive(Debug)]
pub struct Group {
    _name: String,
    samples: usize,
}

impl Group {
    /// Set the number of measured samples per benchmark.
    pub fn sample_size(&mut self, n: usize) {
        self.samples = n.max(3);
    }

    /// Measure one routine. `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] or [`Bencher::iter_batched`] exactly once.
    pub fn bench_function(&mut self, id: impl ToString, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            samples: self.samples,
            times: Vec::new(),
        };
        f(&mut b);
        let mut times = b.times;
        times.sort_unstable();
        let min = times.first().copied().unwrap_or_default();
        let median = times.get(times.len() / 2).copied().unwrap_or_default();
        let mean = if times.is_empty() {
            Duration::ZERO
        } else {
            times.iter().sum::<Duration>() / times.len() as u32
        };
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            id.to_string(),
            fmt(min),
            fmt(median),
            fmt(mean)
        );
    }

    /// End the group (printing is incremental; kept for API parity).
    pub fn finish(self) {}
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Per-benchmark measurement driver.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Measure `f` directly, one timing sample per call (plus one
    /// unmeasured warm-up call).
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        std::hint::black_box(f());
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.times.push(t0.elapsed());
        }
    }

    /// Measure `routine` on fresh state from `setup`; setup time is not
    /// measured.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
        _size: BatchSize,
    ) {
        std::hint::black_box(routine(setup()));
        for _ in 0..self.samples {
            let state = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(state));
            self.times.push(t0.elapsed());
        }
    }
}
