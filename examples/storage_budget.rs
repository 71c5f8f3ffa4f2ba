//! Partial sideways cracking under a tight storage budget (§4): an
//! embedded / edge deployment where auxiliary index memory is capped at a
//! fraction of the data size, yet the workload keeps shifting.
//!
//! Run with `cargo run --release --example storage_budget`.

use crackdb::columnstore::{RangePred, Val};
use crackdb::engine::{Engine, PartialEngine, SelectQuery, SidewaysEngine};
use crackdb::workloads::random_table;
use crackdb_rng::rngs::StdRng;
use crackdb_rng::{Rng, SeedableRng};
use std::time::Instant;

const N: usize = 400_000;
const ATTRS: usize = 9;

fn main() {
    let domain = N as Val;
    let table = random_table(ATTRS, N, domain, 11);
    // Budget: 1.5 columns' worth of tuples — far less than the 8 maps the
    // workload would like to materialize in full.
    let budget = N * 3 / 2;

    let mut rng = StdRng::seed_from_u64(12);
    let mut make_query = |proj: usize| {
        let lo = rng.gen_range(0..domain - domain / 50);
        SelectQuery::project(vec![(0, RangePred::open(lo, lo + domain / 50))], vec![proj])
    };

    // The workload cycles through projection attributes in phases.
    let schedule: Vec<SelectQuery> = (0..400)
        .map(|i| make_query(1 + (i / 50) % (ATTRS - 1)))
        .collect();

    println!(
        "Workload: 400 selective queries cycling over {} projection attributes",
        ATTRS - 1
    );
    println!(
        "Budget:   {budget} tuples (full maps would need {})\n",
        N * (ATTRS - 1)
    );

    let mut partial = PartialEngine::new(table.clone(), (0, domain), Some(budget));
    let mut full = SidewaysEngine::new(table.clone(), (0, domain));
    full.set_budget(Some(budget));

    let mut t_partial = 0.0;
    let mut t_full = 0.0;
    for (i, q) in schedule.iter().enumerate() {
        let t0 = Instant::now();
        let a = partial.select(q);
        t_partial += t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let b = full.select(q);
        t_full += t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(a.rows, b.rows, "engines disagree");
        if (i + 1) % 100 == 0 {
            println!(
                "after {:>3} queries: partial {:>8} tuples ({} chunk groups, {} dropped) | full maps {:>8} tuples",
                i + 1,
                partial.aux_tuples(),
                partial.store().set(0).map_or(0, |s| s.chunk_count()),
                partial.store().set(0).map_or(0, |s| s.stats.chunks_dropped),
                full.aux_tuples(),
            );
        }
    }
    println!("\ntotal time: partial {t_partial:.1} ms, full maps {t_full:.1} ms");
    println!("Partial maps keep only the hot chunks, never exceed the budget, and");
    println!("avoid the full-map recreation spikes at every workload phase change.");
}
