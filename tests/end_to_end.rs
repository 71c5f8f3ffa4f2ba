//! Workspace-level end-to-end tests: full pipelines across all crates,
//! from workload generation through every engine to result equality.

use crackdb::columnstore::{AggFunc, Val};
use crackdb::engine::tpch::queries::{run, QUERIES};
use crackdb::engine::tpch::{Mode, TpchExecutor};
use crackdb::engine::{
    Engine, PartialEngine, PlainEngine, PresortedEngine, SelCrackEngine, SelectQuery,
    SidewaysEngine,
};
use crackdb::workloads::tpch::{TpchData, TpchParams};
use crackdb::workloads::{random_table, QiGen, RangeGen};

#[test]
fn exp1_pipeline_all_systems_agree() {
    let n = 20_000;
    let domain = n as Val;
    let table = random_table(9, n, domain, 1);
    let mut systems: Vec<Box<dyn Engine>> = vec![
        Box::new(PlainEngine::new(table.clone())),
        Box::new(PresortedEngine::new(table.clone(), &[0])),
        Box::new(SelCrackEngine::new(table.clone(), (0, domain))),
        Box::new(SidewaysEngine::new(table.clone(), (0, domain))),
        Box::new(PartialEngine::new(table.clone(), (0, domain), None)),
    ];
    let mut gen = RangeGen::with_selectivity(domain, 0.2, 2);
    for _ in 0..25 {
        let pred = gen.next();
        let q = SelectQuery::aggregate(
            vec![(0, pred)],
            (1..=8).map(|a| (a, AggFunc::Max)).collect(),
        );
        let reference = systems[0].select(&q);
        for sys in &mut systems[1..] {
            let out = sys.select(&q);
            assert_eq!(out.rows, reference.rows, "{} rows", sys.name());
            assert_eq!(out.aggs, reference.aggs, "{} aggs", sys.name());
        }
    }
}

#[test]
fn qi_workload_full_vs_partial_vs_plain() {
    let n = 30_000;
    let domain = n as Val;
    let table = random_table(QiGen::attrs_needed(3), n, domain, 3);
    let mut gen = QiGen::new(domain, n, n / 100, 3, 4);
    let mut plain = PlainEngine::new(table.clone());
    let mut full = SidewaysEngine::new(table.clone(), (0, domain));
    let mut partial = PartialEngine::new(table.clone(), (0, domain), Some(n * 2));
    for i in 0..60 {
        let qi = gen.query(i % 3);
        let q = SelectQuery::project(vec![(0, qi.a_pred), qi.b], vec![qi.c]);
        let a = plain.select(&q);
        let b = full.select(&q);
        let c = partial.select(&q);
        assert_eq!(a.rows, b.rows, "query {i} full");
        assert_eq!(a.rows, c.rows, "query {i} partial");
        let mut va = a.proj_values[0].clone();
        let mut vb = b.proj_values[0].clone();
        let mut vc = c.proj_values[0].clone();
        va.sort_unstable();
        vb.sort_unstable();
        vc.sort_unstable();
        assert_eq!(va, vb);
        assert_eq!(va, vc);
    }
    assert!(
        partial.aux_tuples() <= n * 2 + n,
        "partial budget respected"
    );
}

#[test]
fn tpch_tiny_all_modes_agree_over_sequences() {
    let data = TpchData::generate(0.001, 5);
    let mut pgen = TpchParams::new(6);
    let plan: Vec<(u32, crackdb::workloads::tpch::Params)> = QUERIES
        .iter()
        .flat_map(|&q| {
            (0..3)
                .map(|_| {
                    let prm = match q {
                        1 => pgen.q1(),
                        3 => pgen.q3(),
                        4 => pgen.q4(),
                        6 => pgen.q6(),
                        7 => pgen.q7(),
                        8 => pgen.q8(),
                        10 => pgen.q10(),
                        12 => pgen.q12(),
                        14 => pgen.q14(),
                        15 => pgen.q15(),
                        19 => pgen.q19(),
                        20 => pgen.q20(),
                        _ => unreachable!(),
                    };
                    (q, prm)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let mut reference: Option<Vec<Val>> = None;
    for mode in [
        Mode::Plain,
        Mode::Presorted,
        Mode::SelCrack,
        Mode::Sideways,
        Mode::Partial,
        Mode::RowStore,
    ] {
        let mut exec = TpchExecutor::new(data.clone(), mode);
        let digests: Vec<Val> = plan
            .iter()
            .map(|&(q, prm)| run(&mut exec, q, prm))
            .collect();
        match &reference {
            None => reference = Some(digests),
            Some(r) => assert_eq!(&digests, r, "mode {mode:?}"),
        }
    }
}

#[test]
fn update_heavy_session_stays_consistent() {
    let n = 10_000;
    let domain = n as Val;
    let table = random_table(3, n, domain, 7);
    let mut plain = PlainEngine::new(table.clone());
    let mut sideways = SidewaysEngine::new(table.clone(), (0, domain));
    let mut gen = RangeGen::with_selectivity(domain, 0.1, 8);
    let mut live: Vec<u32> = (0..n as u32).collect();
    let mut next = n as u32;
    for i in 0..200 {
        if i % 5 == 0 {
            let row = [gen.value(), gen.value(), gen.value()];
            plain.insert(&row);
            sideways.insert(&row);
            live.push(next);
            next += 1;
            let victim = live.swap_remove(gen.index(live.len()));
            plain.delete(victim);
            sideways.delete(victim);
        }
        let q = SelectQuery::aggregate(
            vec![(0, gen.next())],
            vec![(1, AggFunc::Count), (1, AggFunc::Max), (2, AggFunc::Sum)],
        );
        assert_eq!(plain.select(&q).aggs, sideways.select(&q).aggs, "query {i}");
    }
}

#[test]
fn skewed_workload_converges() {
    // Not a performance assertion (CI noise), but the cracking knowledge
    // must accumulate: later queries crack strictly less.
    let n = 50_000;
    let domain = n as Val;
    let table = random_table(3, n, domain, 9);
    let mut sideways = SidewaysEngine::new(table, (0, domain));
    let mut gen = RangeGen::with_selectivity(domain, 0.2, 10);
    let mut early_cracks = 0;
    let mut late_cracks = 0;
    for i in 0..100 {
        let pred = gen.next_skewed(0.9, 0.5);
        let q = SelectQuery::aggregate(vec![(0, pred)], vec![(1, AggFunc::Max)]);
        let before = sideways
            .store()
            .set(0)
            .map(|s| s.stats.query_cracks)
            .unwrap_or(0);
        sideways.select(&q);
        let after = sideways
            .store()
            .set(0)
            .expect("set exists")
            .stats
            .query_cracks;
        if i < 10 {
            early_cracks += after - before;
        }
        if i >= 90 {
            late_cracks += after - before;
        }
    }
    assert!(
        late_cracks <= early_cracks,
        "cracking must subside: early {early_cracks}, late {late_cracks}"
    );
}
