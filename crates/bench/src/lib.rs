#![warn(missing_docs)]
//! # crackdb-bench
//!
//! The paper-figure runner and the kernel micro-benchmarks. The
//! `paperfigs` binary regenerates the paper's experiments — exp1–exp6
//! (§3.6), Figures 9–13 (§4.2), Figure 14 and the mixed TPC-H workload
//! (§5) — and prints the series each figure plots; `benches/` times the
//! underlying kernels on the [`harness`] stand-in for criterion.
//!
//! Scales default to laptop-friendly sizes; pass `--n=`, `--queries=`,
//! `--sf=` to approach paper scale (10^7 rows, 10^3 queries, SF 1).

pub mod harness;
pub mod qi;

use std::str::FromStr;
use std::time::Instant;

/// Simple `--key=value` argument parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Table cardinality (0 = not given: the figure's default).
    pub n: usize,
    /// Number of queries per sequence (0 = not given: the figure's
    /// default).
    pub queries: usize,
    /// TPC-H scale factor.
    pub sf: f64,
    /// RNG seed.
    pub seed: u64,
    /// Engine-set selector for figures that support it (exp6:
    /// "default" = the paper's update-capable trio, "all" = all five
    /// engines including presorted and budgeted partial maps).
    pub engines: String,
}

impl Args {
    /// Parse `--key=value` arguments. Unknown arguments are reported on
    /// stderr and ignored; `n` and `queries` stay 0 unless given (see
    /// [`Args::or_defaults`]).
    ///
    /// # Errors
    /// A value that does not parse as its key's type, or an `--engines=`
    /// other than `default` / `all`.
    pub fn parse_from(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut a = Args {
            n: 0,
            queries: 0,
            sf: 0.01,
            seed: 42,
            engines: "default".to_string(),
        };
        for arg in args {
            let (key, value) = arg.split_once('=').unwrap_or((&arg, ""));
            match key {
                "--n" => a.n = parse_value(key, value)?,
                "--queries" => a.queries = parse_value(key, value)?,
                "--sf" => a.sf = parse_value(key, value)?,
                "--seed" => a.seed = parse_value(key, value)?,
                "--engines" if matches!(value, "default" | "all") => a.engines = value.to_string(),
                "--engines" => {
                    return Err(format!("--engines takes 'default' or 'all', got {value:?}"))
                }
                _ => eprintln!("ignoring unknown argument {arg}"),
            }
        }
        Ok(a)
    }

    /// These arguments with `n` and `queries` set to the given defaults
    /// where they were not given.
    pub fn or_defaults(&self, n: usize, queries: usize) -> Args {
        let pick = |given: usize, default: usize| if given == 0 { default } else { given };
        Args {
            n: pick(self.n, n),
            queries: pick(self.queries, queries),
            ..self.clone()
        }
    }
}

fn parse_value<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{key} takes a number, got {value:?}"))
}

/// Milliseconds elapsed while running `f`; returns `(ms, result)`.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// Should this query index be printed in a log-style sampled series?
/// (Mirrors the paper's log-scale query-sequence plots.)
pub fn log_sample(i: usize, total: usize) -> bool {
    if i + 1 == total || i == 0 {
        return true;
    }
    let i = i + 1;
    let mag = 10usize.pow((i as f64).log10().floor() as u32);
    i.is_multiple_of(mag)
}

/// Print a header line for a series table.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sampling_hits_decades() {
        let picks: Vec<usize> = (0..1000)
            .filter(|&i| log_sample(i, 1000))
            .map(|i| i + 1)
            .collect();
        assert!(picks.contains(&1));
        assert!(picks.contains(&10));
        assert!(picks.contains(&100));
        assert!(picks.contains(&1000));
        assert!(picks.len() < 300);
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_reads_flags_and_keeps_unset_sizes_open() {
        let a = parse(&["--n=500", "--sf=0.5", "--seed=7", "--engines=all"]).unwrap();
        assert_eq!((a.n, a.queries, a.sf, a.seed), (500, 0, 0.5, 7));
        assert_eq!(a.engines, "all");
        let d = a.or_defaults(1_000, 30);
        assert_eq!((d.n, d.queries), (500, 30));
        assert_eq!(parse(&["--bogus=1"]).unwrap(), parse(&[]).unwrap());
    }

    #[test]
    fn bad_values_are_errors_not_panics() {
        assert!(parse(&["--n=x"]).unwrap_err().contains("--n"));
        assert!(parse(&["--queries=-3"]).is_err());
        assert!(parse(&["--sf=big"]).is_err());
        assert!(parse(&["--engines=bogus"])
            .unwrap_err()
            .contains("--engines"));
    }

    #[test]
    fn timing_measures_something() {
        let (ms, x) = time_ms(|| (0..100_000).sum::<u64>());
        assert!(ms >= 0.0);
        assert_eq!(x, 4999950000);
    }
}
