//! Quickstart: the paper's Figure 1 example, step by step.
//!
//! Run with `cargo run --release --example quickstart`.

use crackdb::columnstore::{AggFunc, Column, RangePred, Table};
use crackdb::engine::{Engine, SelectQuery, ShardedEngine, SidewaysEngine};

fn main() {
    // The example relation R(A, B) of the paper's Figure 1.
    let a = vec![12, 3, 5, 9, 15, 22, 7, 26, 4, 2, 24, 11, 16];
    let b: Vec<i64> = (1..=13).collect();
    let mut table = Table::new();
    table.add_column("A", Column::new(a));
    table.add_column("B", Column::new(b));

    let mut engine = SidewaysEngine::new(table.clone(), (0, 30));

    // Query 1: select B from R where 10 < A < 15.
    // The first query creates the cracker map M_AB and cracks it into
    // three pieces; the qualifying B values come out of the middle piece
    // without any join-like tuple reconstruction.
    let q1 = SelectQuery {
        preds: vec![(0, RangePred::open(10, 15))],
        disjunctive: false,
        aggs: vec![],
        projs: vec![1],
    };
    let out = engine.select(&q1);
    println!(
        "Q1  select B where 10 < A < 15  -> B = {:?}",
        out.proj_values[0]
    );

    // Query 2: select B from R where 5 <= A < 17. The middle piece from
    // Q1 is already known to qualify; only the outer pieces are cracked.
    let q2 = SelectQuery {
        preds: vec![(0, RangePred::half_open(5, 17))],
        disjunctive: false,
        aggs: vec![],
        projs: vec![1],
    };
    let out = engine.select(&q2);
    let mut vals = out.proj_values[0].clone();
    vals.sort_unstable();
    println!("Q2  select B where 5 <= A < 17  -> B = {vals:?}");

    // Aggregations ride on the same maps.
    let q3 = SelectQuery::aggregate(
        vec![(0, RangePred::open(2, 12))],
        vec![(1, AggFunc::Max), (1, AggFunc::Count)],
    );
    let out = engine.select(&q3);
    println!(
        "Q3  select max(B), count(B) where 2 < A < 12 -> max = {:?}, count = {:?}",
        out.aggs[0], out.aggs[1]
    );
    println!("\nEach query physically reorganized the cracker map a little more;");
    println!("future queries over A reuse that knowledge (self-organization).");

    // The same engine scales out behind the sharding router: the table
    // is split row-wise, every shard cracks its own fraction, one shard
    // after another, and answers merge deterministically (sums of counts,
    // min/max of min/max, averages from merged sums and counts).
    let mut sharded = ShardedEngine::build(table, 3, |_, part| SidewaysEngine::new(part, (0, 30)));
    let out = sharded.select(&q3);
    println!(
        "\nSharded x3 ({}): max = {:?}, count = {:?}  (identical answers)",
        sharded.name(),
        out.aggs[0],
        out.aggs[1]
    );
}
