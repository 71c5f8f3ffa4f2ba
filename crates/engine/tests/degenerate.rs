//! Degenerate-input hardening: 0-row tables and single-value (or
//! inverted) attribute domains must never produce a NaN estimate — a
//! NaN used to panic the executor's predicate ordering
//! (`order_preds`) — and every engine must answer such queries exactly
//! like the plain baseline.

use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::types::{AggFunc, RangePred, Val};
use crackdb_engine::{
    Engine, JoinQuery, JoinSide, Joined, PartialEngine, PlainEngine, PresortedEngine,
    SelCrackEngine, SelectQuery, ShardedEngine, SidewaysEngine,
};

fn empty_table(cols: usize) -> Table {
    let mut t = Table::new();
    for c in 0..cols {
        t.add_column(format!("a{c}"), Column::new(Vec::new()));
    }
    t
}

fn single_value_table(cols: usize, n: usize, v: Val) -> Table {
    let mut t = Table::new();
    for c in 0..cols {
        t.add_column(format!("a{c}"), Column::new(vec![v; n]));
    }
    t
}

fn queries() -> Vec<SelectQuery> {
    vec![
        SelectQuery::aggregate(
            vec![(0, RangePred::open(1, 9)), (1, RangePred::open(2, 8))],
            vec![
                (2, AggFunc::Count),
                (2, AggFunc::Sum),
                (2, AggFunc::Min),
                (2, AggFunc::Max),
                (2, AggFunc::Avg),
            ],
        ),
        SelectQuery::project(vec![(0, RangePred::closed(5, 5))], vec![1, 2]),
        SelectQuery::aggregate(vec![(1, RangePred::all())], vec![(0, AggFunc::Count)]),
    ]
}

fn check_engines(t: &Table, domain: (Val, Val), ctx: &str) {
    let queries = queries();
    let mut plain = PlainEngine::new(t.clone());
    let mut engines: Vec<(&str, Box<dyn Engine>)> = vec![
        (
            "presorted",
            Box::new(PresortedEngine::new(t.clone(), &[0, 1, 2])),
        ),
        ("selcrack", Box::new(SelCrackEngine::new(t.clone(), domain))),
        ("sideways", Box::new(SidewaysEngine::new(t.clone(), domain))),
        (
            "partial",
            Box::new(PartialEngine::new(t.clone(), domain, None)),
        ),
        (
            "partial+budget",
            Box::new(PartialEngine::new(t.clone(), domain, Some(10))),
        ),
        (
            "sharded sideways",
            Box::new(ShardedEngine::build(t.clone(), 3, |_, p| {
                SidewaysEngine::new(p, domain)
            })),
        ),
    ];
    for (i, q) in queries.iter().enumerate() {
        let expected = plain.select(q);
        for (name, e) in engines.iter_mut() {
            let out = e.select(q);
            assert_eq!(out.rows, expected.rows, "{ctx}: query {i} {name} rows");
            assert_eq!(out.aggs, expected.aggs, "{ctx}: query {i} {name} aggs");
            for (j, (got, want)) in out
                .proj_values
                .iter()
                .zip(&expected.proj_values)
                .enumerate()
            {
                let mut got = got.clone();
                let mut want = want.clone();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{ctx}: query {i} {name} projection {j}");
            }
        }
    }
}

#[test]
fn zero_row_tables_answer_empty_everywhere() {
    check_engines(&empty_table(3), (0, 10), "empty table");
    // The degenerate (0, 0) domain on an empty table, too.
    check_engines(&empty_table(3), (0, 0), "empty table, empty domain");
}

#[test]
fn single_value_domains_never_panic_the_planner() {
    let t = single_value_table(3, 50, 5);
    check_engines(&t, (5, 5), "single-value domain");
    // Inverted domain registration must be tolerated as well.
    check_engines(&t, (9, 3), "inverted domain");
}

/// A join side's predicates are ordered by uniform selectivity
/// estimates; the selection-cracking join once ordered them itself with
/// `partial_cmp(..).expect` — the exact NaN panic the shared planner
/// fixed with `total_cmp`. Drive multi-predicate conjunctions through
/// the selection-cracking join on every degenerate domain and require
/// plain-identical answers.
#[test]
fn selcrack_join_ordering_survives_degenerate_domains() {
    let tables: Vec<(Table, (Val, Val), &str)> = vec![
        (empty_table(3), (0, 0), "empty table, empty domain"),
        (single_value_table(3, 40, 5), (5, 5), "single-value domain"),
        (single_value_table(3, 40, 5), (9, 3), "inverted domain"),
    ];
    // Two predicates per side so the planner actually compares the
    // (possibly degenerate) selectivity estimates.
    let q = JoinQuery {
        left: JoinSide {
            preds: vec![(0, RangePred::closed(5, 5)), (1, RangePred::open(0, 10))],
            join_attr: 2,
            aggs: vec![(0, AggFunc::Count), (1, AggFunc::Max)],
        },
        right: JoinSide {
            preds: vec![(1, RangePred::closed(5, 5)), (0, RangePred::open(4, 6))],
            join_attr: 2,
            aggs: vec![(0, AggFunc::Sum)],
        },
    };
    for (t, domain, ctx) in &tables {
        let mut plain = Joined::new(PlainEngine::new(t.clone()), PlainEngine::new(t.clone()));
        let expected = plain.join(&q);
        let mut e = Joined::new(
            SelCrackEngine::new(t.clone(), *domain),
            SelCrackEngine::new(t.clone(), *domain),
        );
        let out = e.join(&q);
        assert_eq!(out.rows, expected.rows, "{ctx}: rows");
        assert_eq!(out.aggs, expected.aggs, "{ctx}: aggs");
    }
}

/// Multi-predicate conjunctive *selects* through SelCrack on degenerate
/// domains.
#[test]
fn selcrack_conjunctions_on_degenerate_domains() {
    let t = single_value_table(3, 50, 5);
    let q = SelectQuery::aggregate(
        vec![
            (0, RangePred::closed(5, 5)),
            (1, RangePred::open(0, 9)),
            (2, RangePred::closed(5, 5)),
        ],
        vec![(1, AggFunc::Count), (1, AggFunc::Sum), (2, AggFunc::Min)],
    );
    let mut plain = PlainEngine::new(t.clone());
    let expected = plain.select(&q);
    for domain in [(5, 5), (9, 3), (0, 0)] {
        let mut e = SelCrackEngine::new(t.clone(), domain);
        let out = e.select(&q);
        assert_eq!(out.aggs, expected.aggs, "domain {domain:?}");
    }
}

#[test]
fn single_value_domain_under_updates() {
    let t = single_value_table(3, 30, 5);
    let mut plain = PlainEngine::new(t.clone());
    let mut partial = PartialEngine::new(t.clone(), (5, 5), None);
    let mut sideways = SidewaysEngine::new(t.clone(), (5, 5));
    let q = SelectQuery::aggregate(
        vec![(0, RangePred::closed(5, 5))],
        vec![(1, AggFunc::Count), (1, AggFunc::Sum)],
    );
    for step in 0..6 {
        plain.insert(&[5, 5, 5]);
        partial.insert(&[5, 5, 5]);
        sideways.insert(&[5, 5, 5]);
        if step % 2 == 0 {
            plain.delete(step);
            partial.delete(step);
            sideways.delete(step);
        }
        let e = plain.select(&q);
        let p = partial.select(&q);
        let s = sideways.select(&q);
        assert_eq!(p.rows, e.rows, "step {step} partial");
        assert_eq!(p.aggs, e.aggs, "step {step} partial");
        assert_eq!(s.rows, e.rows, "step {step} sideways");
        assert_eq!(s.aggs, e.aggs, "step {step} sideways");
    }
}
