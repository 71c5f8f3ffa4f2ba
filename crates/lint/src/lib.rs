#![warn(missing_docs)]
//! # crackdb-lint
//!
//! A zero-dependency, repo-specific static-analysis pass over the
//! crackdb workspace: a hand-rolled token-aware Rust [`lexer`] feeding
//! six [`lints`] that enforce invariants grep cannot (SAFETY-comment
//! coverage for `unsafe`, a justification file for atomic memory
//! orderings, a per-crate panic ratchet, env-registry containment plus
//! README/CI doc-drift, the poison-recovering lock idiom, and a
//! per-crate ratchet on non-test code lines).
//!
//! The binary (`cargo run -p crackdb-lint -- --check`) lints the real
//! workspace; the library surface exists so the test suite can lint
//! inline fixtures without touching the filesystem.

pub mod config;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod workspace;

pub use config::{
    parse_atomics_allow, parse_baseline, render_baseline, AllowEntry, Baseline, LOC_HEADER,
    PANICS_HEADER,
};
pub use lints::{run, Finding, Report, Role, Severity, VFile, Workspace};
