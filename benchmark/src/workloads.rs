//! The four workloads and their frozen sizes.
//!
//! Every workload is closed-loop (the caller sends its next op only after
//! the previous one is answered) and is made of *rounds*: one round
//! generates a table and an op stream from the round's sub-seed, builds
//! fresh engines and serves a fixed number of ops. A run repeats rounds
//! until `--seconds` are used up, so two commits do the same work per
//! round and the slower one simply finishes fewer rounds.
//!
//! Sizes are frozen here. What fixed them is the reference box's memory
//! system (2 vCPUs of a shared host, 2 MB of L2 per core and a share of
//! the L3 that moves with the neighbours): arrays of 8-32 MB are
//! sometimes cached and sometimes not, and an op that streams over them
//! took anything between 1x and 2x from one engine to the next. So a
//! table is large enough that its columns and maps never stay cached:
//! 3M rows and up per engine or shard, 24 MB per column, several columns
//! or maps per op.

use crate::sut::{attrs_for_qi, EngineKind, Shape, Spec};

pub struct Workload {
    pub spec: Spec,
    /// Why the workload was chosen (also in `BENCHMARK.json`).
    pub why: &'static str,
}

pub fn all() -> Vec<Workload> {
    let qi = Spec {
        name: "qi_cold",
        shape: Shape::Qi,
        engine: EngineKind::Sideways,
        rows: 3_000_000,
        attrs: attrs_for_qi(),
        ops: 1_000,
        warmup: 0,
        shards: 0,
        checks: 160,
        budget_us: 3_000,
    };
    vec![
        Workload {
            spec: qi,
            why: "the paper's experiment: cold start to converged, maps seeded and re-aligned at every Qi type switch; working set fits",
        },
        Workload {
            spec: Spec {
                name: "qi_spill",
                engine: EngineKind::PartialSpill,
                ..qi
            },
            why: "the same op stream with a budget of 2 maps against a working set of 10: chunk fetch, eviction, spill and reload",
        },
        Workload {
            spec: Spec {
                name: "ide_sessions",
                shape: Shape::Ide,
                engine: EngineKind::SelCrack,
                rows: 6_000_000,
                attrs: 1,
                ops: 4,
                warmup: 0,
                shards: 0,
                // A check is one to twelve scans of 6M rows.
                checks: 32,
                budget_us: 30_000,
            },
            why: "sweeps, drill-downs and binned bursts on a bare cracker column, fresh engine per session: kernel and crack policy only",
        },
        Workload {
            spec: Spec {
                name: "svc_mixed",
                shape: Shape::SvcMixed,
                engine: EngineKind::Sideways,
                rows: 6_000_000,
                attrs: 4,
                ops: 5_000,
                warmup: 2_000,
                shards: 2,
                // A check is two scans of 6M rows and a gather.
                checks: 48,
                budget_us: 1_000,
            },
            why: "steady state with writes beside reads: index lookup, combine, shard merge, service hop and tape-logged update merges",
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.spec.name == name)
}
