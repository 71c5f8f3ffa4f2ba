//! Runtime selection of the physical partitioning kernel.
//!
//! The crack-in-two / crack-in-three reorganization kernels come in two
//! implementations with identical *logical* results (same split
//! positions, permutation-equivalent piece contents):
//!
//! * [`CrackKernel::Scalar`] — the paper's element-at-a-time Hoare /
//!   Dutch-national-flag loops. One unpredictable branch per tuple, so
//!   on random data the loop is bounded by branch mispredicts rather
//!   than memory bandwidth.
//! * [`CrackKernel::Block`] — BlockQuicksort-style buffered
//!   partitioning: membership of each 64-tuple block is computed as a
//!   branch-free bit mask (comparisons as arithmetic — autovectorizable
//!   on stable Rust without `std::simd`), offsets-to-swap are taken
//!   from the masks with `trailing_zeros`, and head/tail swaps are
//!   paired between a left and a right block. The default.
//!
//! The kernel is selected once per process from the `CRACKDB_KERNEL`
//! environment variable (`scalar` | `block`; unset/empty means `block`)
//! and then never changes: sideways alignment replays tape-logged
//! predicates on sibling structures and requires bit-identical physical
//! outcomes, so all structures in a process must partition with the
//! same kernel. Within one kernel, replay is fully deterministic.
//!
//! The *strict* validation of the environment value lives in
//! `crackdb-engine`'s `exec` module (`env_kernel`), where a typo in a
//! CI matrix fails loudly at service startup. The read here is
//! lenient — an invalid value warns once and falls back to the block
//! kernel — because the dispatch happens deep inside the partitioning
//! hot path where a library user must not be panicked by an unrelated
//! environment variable.

use std::sync::OnceLock;

/// Which physical partitioning kernel the crack operations use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrackKernel {
    /// Element-at-a-time branching loops (the paper's kernels,
    /// bit-for-bit).
    Scalar,
    /// Branch-free block-predicated kernels with mask-buffered paired
    /// swaps, plus the radix-prepartition fast path for huge uncracked
    /// pieces (the default).
    #[default]
    Block,
}

impl CrackKernel {
    /// Short machine-readable name (benchmark output, CI matrices).
    pub fn label(&self) -> &'static str {
        match self {
            CrackKernel::Scalar => "scalar",
            CrackKernel::Block => "block",
        }
    }

    /// Parse a kernel name: `scalar` or `block`; empty means the
    /// default (`block`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "" | "block" => Some(CrackKernel::Block),
            "scalar" => Some(CrackKernel::Scalar),
            _ => None,
        }
    }

    /// Both kernels, for sweeps and differential comparisons.
    pub fn all() -> [CrackKernel; 2] {
        [CrackKernel::Scalar, CrackKernel::Block]
    }
}

/// The process-wide active kernel: the `CRACKDB_KERNEL` environment
/// selection, read once on first use. Invalid values warn once and fall
/// back to [`CrackKernel::Block`] (see the module docs for why this
/// read is lenient while `crackdb-engine::exec::env_kernel` is strict).
pub fn active_kernel() -> CrackKernel {
    static KERNEL: OnceLock<CrackKernel> = OnceLock::new();
    // This file is one of the two sanctioned env-registry files (L004).
    #[allow(clippy::disallowed_methods)]
    *KERNEL.get_or_init(|| match std::env::var("CRACKDB_KERNEL") {
        Err(_) => CrackKernel::Block,
        Ok(v) => CrackKernel::parse(&v).unwrap_or_else(|| {
            eprintln!(
                "warning: CRACKDB_KERNEL={v:?} is not a crack kernel \
                 (expected scalar | block); falling back to block"
            );
            CrackKernel::Block
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for k in CrackKernel::all() {
            assert_eq!(CrackKernel::parse(k.label()), Some(k));
        }
        assert_eq!(CrackKernel::parse(""), Some(CrackKernel::Block));
        assert_eq!(CrackKernel::parse(" block "), Some(CrackKernel::Block));
        assert_eq!(CrackKernel::parse("simd"), None);
        assert_eq!(CrackKernel::default(), CrackKernel::Block);
    }

    #[test]
    fn active_kernel_is_stable() {
        // Whatever the environment selects, repeated reads agree (the
        // determinism contract: one kernel per process, forever).
        assert_eq!(active_kernel(), active_kernel());
    }
}
