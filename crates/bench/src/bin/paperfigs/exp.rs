//! §3.6: the sideways-cracking experiments, exp1–exp6 (Figures 4–7).

use crackdb_bench::{header, log_sample, time_ms, Args};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::radix::{bits_for_cache, clustered_reconstruct, radix_cluster};
use crackdb_columnstore::types::{AggFunc, RowId, Val};
use crackdb_engine::{
    AccessPath, Engine, JoinQuery, JoinSide, Joined, PartialEngine, PlainEngine, PresortedEngine,
    SelCrackEngine, SelectQuery, SidewaysEngine,
};
use crackdb_rng::rngs::StdRng;
use crackdb_rng::seq::SliceRandom;
use crackdb_rng::SeedableRng;
use crackdb_workloads::{random_table, RangeGen};

fn q1(gen: &mut RangeGen, k: usize) -> SelectQuery {
    let pred = gen.next();
    SelectQuery::aggregate(
        vec![(0, pred)],
        (1..=k).map(|a| (a, AggFunc::Max)).collect(),
    )
}

/// Exp1 (§3.6, Figure 4(a) + cost-breakdown table): q1 with one
/// selection and 2/4/8 tuple reconstructions, 100 random 20% ranges;
/// report the 100th query's response time per system and the Sel/TR
/// breakdown for the 8-reconstruction case.
pub fn exp1_tuple_reconstruction(args: &Args) {
    let n = args.n;
    let domain = n as Val;
    let table = random_table(9, n, domain, args.seed);
    println!(
        "# Exp1: varying tuple reconstructions (N={n}, {} queries, 20% selectivity)",
        args.queries
    );
    println!("# Paper: Figure 4(a) — response time of the 100th query");
    header(&[
        "k_reconstructions",
        "system",
        "ms_last_query",
        "ms_sel",
        "ms_tr",
    ]);

    let mut breakdown: Vec<(String, f64, f64, f64)> = Vec::new();
    for &k in &[2usize, 4, 8] {
        let systems: Vec<Box<dyn Engine>> = vec![
            Box::new(PresortedEngine::new(table.clone(), &[0])),
            Box::new(SidewaysEngine::new(table.clone(), (0, domain))),
            Box::new(SelCrackEngine::new(table.clone(), (0, domain))),
            Box::new(PlainEngine::new(table.clone())),
        ];
        for mut sys in systems {
            let mut gen = RangeGen::with_selectivity(domain, 0.2, args.seed + k as u64);
            let mut last = (0.0, 0.0, 0.0);
            for _ in 0..args.queries {
                let q = q1(&mut gen, k);
                let (ms, out) = time_ms(|| sys.select(&q));
                last = (
                    ms,
                    out.timings.select.as_secs_f64() * 1e3,
                    out.timings.reconstruct.as_secs_f64() * 1e3,
                );
            }
            println!(
                "{k}\t{}\t{:.3}\t{:.3}\t{:.3}",
                sys.name(),
                last.0,
                last.1,
                last.2
            );
            if k == 8 {
                breakdown.push((sys.name().to_string(), last.0, last.1, last.2));
            }
        }
    }

    println!("\n# Cost breakdown at 8 tuple reconstructions (paper's inline table):");
    header(&["system", "Tot_ms", "TR_ms", "Sel_ms"]);
    for (name, tot, sel, tr) in &breakdown {
        println!("{name}\t{tot:.3}\t{tr:.3}\t{sel:.3}");
    }
    println!("\n# Expected shape: Presorted ≈ Sideways ≪ Selection Cracking, MonetDB;");
    println!("# Selection Cracking dominated by TR, MonetDB split between Sel and TR.");
}

/// Exp2 (§3.6, Figure 4(b)): q1 with 2 tuple reconstructions under
/// varying selectivity (point queries up to 90%); response time of
/// sideways cracking relative to plain MonetDB along the query sequence.
pub fn exp2_selectivity(args: &Args) {
    let n = args.n;
    let domain = n as Val;
    let table = random_table(3, n, domain, args.seed);
    println!(
        "# Exp2: varying selectivity (N={n}, {} queries, 2 tuple reconstructions)",
        args.queries
    );
    println!("# Paper: Figure 4(b) — response time relative to plain MonetDB (<1 = faster)");
    header(&[
        "selectivity",
        "query_seq",
        "sideways_ms",
        "monetdb_ms",
        "relative",
    ]);

    let selectivities: [(&str, f64); 6] = [
        ("point", 0.0),
        ("10%", 0.1),
        ("30%", 0.3),
        ("50%", 0.5),
        ("70%", 0.7),
        ("90%", 0.9),
    ];
    for (label, sel) in selectivities {
        let mut plain = PlainEngine::new(table.clone());
        let mut sideways = SidewaysEngine::new(table.clone(), (0, domain));
        let mut gen = if sel == 0.0 {
            RangeGen::with_width(domain, 0, args.seed)
        } else {
            RangeGen::with_selectivity(domain, sel, args.seed)
        };
        for i in 0..args.queries {
            let pred = gen.next();
            let q =
                SelectQuery::aggregate(vec![(0, pred)], vec![(1, AggFunc::Max), (2, AggFunc::Max)]);
            let (ms_p, out_p) = time_ms(|| plain.select(&q));
            let (ms_s, out_s) = time_ms(|| sideways.select(&q));
            assert_eq!(out_p.aggs, out_s.aggs, "engines disagree");
            if log_sample(i, args.queries) {
                let rel = if ms_p > 0.0 { ms_s / ms_p } else { 1.0 };
                println!("{label}\t{}\t{:.3}\t{:.3}\t{:.3}", i + 1, ms_s, ms_p, rel);
            }
        }
    }
    println!("\n# Expected shape: first query slightly above 1.0 (map creation), then");
    println!("# dropping well below 1.0; less selective queries cross below 1.0 sooner.");
}

/// Exp3 (§3.6, inline reordering figure): tuple-reconstruction cost for
/// 1/2/4/8 projections when the intermediate result is (a) ordered
/// (plain MonetDB), (b) unordered (selection cracking), (c) sorted
/// before reconstructing, (d) radix-clustered before reconstructing.
pub fn exp3_reordering(args: &Args) {
    let n = args.n;
    let table = random_table(9, n, n as Val, args.seed);
    // A 20%-selectivity intermediate result, unordered (as selection
    // cracking produces after a few cracks).
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut keys: Vec<RowId> = (0..n as RowId).collect();
    keys.shuffle(&mut rng);
    keys.truncate(n / 5);
    let ordered = {
        let mut k = keys.clone();
        k.sort_unstable();
        k
    };
    // L2-sized clusters (values of 8 bytes; ~512 KiB → 64Ki values).
    let bits = bits_for_cache(n, 1 << 16);

    println!(
        "# Exp3: reordering unordered intermediates (N={n}, |result|={} keys)",
        keys.len()
    );
    println!("# Paper: §3.6 inline figure — TR cost vs number of reconstructions");
    header(&["k_reconstructions", "strategy", "ms"]);
    for &k in &[1usize, 2, 4, 8] {
        let reconstruct = |keys: &[RowId]| -> Val {
            let mut acc = 0;
            for attr in 1..=k {
                let col = table.column(attr);
                for &key in keys {
                    acc ^= col.get(key);
                }
            }
            acc
        };
        let (ms_ord, a) = time_ms(|| reconstruct(&ordered));
        println!("{k}\tordered TR (plain MonetDB)\t{ms_ord:.3}");

        let (ms_unord, b) = time_ms(|| reconstruct(&keys));
        println!("{k}\tunordered TR (sel. cracking)\t{ms_unord:.3}");

        let (ms_sort, c) = time_ms(|| {
            let mut s = keys.clone();
            s.sort_unstable();
            reconstruct(&s)
        });
        println!("{k}\tsort + ordered TR\t{ms_sort:.3}");

        let (ms_radix, d) = time_ms(|| {
            let clustered = radix_cluster(&keys, n, bits);
            reconstruct(&clustered)
        });
        println!("{k}\tradix-cluster + clustered TR\t{ms_radix:.3}");

        // The library's fused cluster-and-reconstruct path (what the
        // engines use): clusters once per attribute internally.
        let (ms_lib, e) = time_ms(|| {
            let mut acc = 0;
            for attr in 1..=k {
                for v in clustered_reconstruct(table.column(attr), &keys, bits) {
                    acc ^= v;
                }
            }
            acc
        });
        println!("{k}\tclustered_reconstruct (library)\t{ms_lib:.3}");
        assert!(
            a == b && b == c && c == d && d == e,
            "strategies must agree"
        );
    }
    println!("\n# Expected shape: unordered grows steepest with k; the sorting/clustering");
    println!("# investments amortize as k grows (clustering cheaper than sorting).");
}

/// Exp4 (§3.6, Figure 5(a,b,c)): q2 join queries with three selections
/// per table and four post-join aggregates; total cost, select+TR before
/// the join, and TR after the join, per system over 100 queries.
pub fn exp4_join(args: &Args) {
    let n = args.n;
    let domain = n as Val;
    // Two 7-attribute tables; attribute 6 is the join attribute.
    let r = random_table(7, n, domain, args.seed);
    let s = random_table(7, n, domain, args.seed + 1);

    println!(
        "# Exp4: join queries q2 (N={n} per table, {} queries)",
        args.queries
    );
    println!("# Paper: Figure 5 — (a) total, (b) select+TR before join, (c) TR after join");
    header(&[
        "query_seq",
        "system",
        "total_ms",
        "before_join_ms",
        "join_ms",
        "after_join_ms",
    ]);

    // Each system joins two engines of its design, one per table.
    type Build = Box<dyn Fn() -> Box<dyn Engine>>;
    fn joined<E: Engine + AccessPath + 'static>(
        (r, s): (&Table, &Table),
        make: impl Fn(Table) -> E + 'static,
    ) -> Build {
        let (r, s) = (r.clone(), s.clone());
        Box::new(move || Box::new(Joined::new(make(r.clone()), make(s.clone()))))
    }
    let tables = (&r, &s);
    let builders = [
        joined(tables, |t| {
            let e = PresortedEngine::new(t, &[4]);
            let ms = e.presort_cost.as_secs_f64() * 1e3;
            eprintln!("# presorting cost: {ms:.1} ms per table");
            e
        }),
        joined(tables, move |t| SidewaysEngine::new(t, (0, domain))),
        joined(tables, move |t| SelCrackEngine::new(t, (0, domain))),
        joined(tables, PlainEngine::new),
    ];

    // The first system's `(rows, aggregates)` per query: every other
    // system must answer the same.
    let mut reference: Vec<(usize, Vec<Option<Val>>)> = Vec::new();
    for build in builders {
        let mut sys = build();
        let name = sys.name();
        // Selectivity factors 50%, 30%, 20% per conjunct (the paper's);
        // all systems evaluate starting from the most selective predicate.
        let mut g50 = RangeGen::with_selectivity(domain, 0.5, args.seed + 2);
        let mut g30 = RangeGen::with_selectivity(domain, 0.3, args.seed + 3);
        let mut g20 = RangeGen::with_selectivity(domain, 0.2, args.seed + 4);
        for i in 0..args.queries {
            let q = JoinQuery {
                left: JoinSide {
                    preds: vec![(4, g20.next()), (3, g30.next()), (2, g50.next())],
                    join_attr: 6,
                    aggs: vec![(0, AggFunc::Max), (1, AggFunc::Max)],
                },
                right: JoinSide {
                    preds: vec![(4, g20.next()), (3, g30.next()), (2, g50.next())],
                    join_attr: 6,
                    aggs: vec![(0, AggFunc::Max), (1, AggFunc::Max)],
                },
            };
            let (ms, out) = time_ms(|| sys.join(&q));
            let answer = (out.rows, out.aggs.clone());
            match reference.get(i) {
                Some(want) => assert_eq!(&answer, want, "query {}: {name} disagrees", i + 1),
                None => reference.push(answer),
            }
            if log_sample(i, args.queries) {
                let t = out.timings;
                println!(
                    "{}\t{name}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
                    i + 1,
                    ms,
                    (t.select + t.reconstruct).as_secs_f64() * 1e3,
                    t.join.as_secs_f64() * 1e3,
                    t.post_join.as_secs_f64() * 1e3
                );
            }
        }
    }
    println!("\n# Expected shape: Sideways ≈ Presorted ≪ Selection Cracking / MonetDB in");
    println!("# both pre-join (b) and post-join (c) costs; presorted pays its build upfront.");
}

/// Exp5 (§3.6, Figure 6): skewed workload — 9/10 q3 queries hit the
/// first half of the value domain; sideways cracking reaches presorted
/// performance quickly on the hot set, with periodic peaks for cold
/// queries.
pub fn exp5_skew(args: &Args) {
    let n = args.n;
    let domain = n as Val;
    let table = random_table(3, n, domain, args.seed);

    println!(
        "# Exp5: skewed workload (N={n}, {} queries, 20% ranges, 90% in hot half)",
        args.queries
    );
    println!("# Paper: Figure 6 — response time (micro secs) along the query sequence");
    header(&["query_seq", "system", "us"]);

    let systems: Vec<Box<dyn Engine>> = vec![
        Box::new(PresortedEngine::new(table.clone(), &[0])),
        Box::new(SidewaysEngine::new(table.clone(), (0, domain))),
        Box::new(SelCrackEngine::new(table.clone(), (0, domain))),
        Box::new(PlainEngine::new(table.clone())),
    ];
    for mut sys in systems {
        let mut gen = RangeGen::with_selectivity(domain, 0.2, args.seed + 9);
        for i in 0..args.queries {
            let pred = gen.next_skewed(0.9, 0.5);
            let q =
                SelectQuery::aggregate(vec![(0, pred)], vec![(1, AggFunc::Max), (2, AggFunc::Max)]);
            let (ms, _) = time_ms(|| sys.select(&q));
            if log_sample(i, args.queries) {
                println!("{}\t{}\t{:.1}", i + 1, sys.name(), ms * 1e3);
            }
        }
    }
    println!("\n# Expected shape: sideways converges to presorted-level times on the hot");
    println!("# set within a few queries; ~every 10th query (cold zone) peaks, shrinking");
    println!("# over time as the cold zone gets cracked too.");
}

/// The engine roster as `(label, engine)` pairs — the label travels with
/// the engine it describes (the two partial variants share a
/// `Engine::name`, so position must never be what distinguishes them).
fn systems(
    table: &crackdb_columnstore::Table,
    domain: Val,
    all: bool,
) -> Vec<(String, Box<dyn Engine>)> {
    let named = |e: &dyn Engine| e.name().to_string();
    let mut systems: Vec<(String, Box<dyn Engine>)> = Vec::new();
    let e = SidewaysEngine::new(table.clone(), (0, domain));
    systems.push((named(&e), Box::new(e)));
    let e = SelCrackEngine::new(table.clone(), (0, domain));
    systems.push((named(&e), Box::new(e)));
    let e = PlainEngine::new(table.clone());
    systems.push((named(&e), Box::new(e)));
    if all {
        let e = PresortedEngine::new(table.clone(), &[0, 1, 2]);
        systems.push((named(&e), Box::new(e)));
        let e = PartialEngine::new(table.clone(), (0, domain), None);
        systems.push((named(&e), Box::new(e)));
        let e = PartialEngine::new(table.clone(), (0, domain), Some(table.num_rows()));
        systems.push((format!("{} (budget N)", named(&e)), Box::new(e)));
    }
    systems
}

fn run_scenario(
    name: &str,
    table: &crackdb_columnstore::Table,
    domain: Val,
    queries: usize,
    // `(update_every, update_volume)`: a batch of `volume` updates lands
    // every `every` queries.
    cadence: (usize, usize),
    seed: u64,
    all: bool,
) {
    let (update_every, update_volume) = cadence;
    println!("# Scenario {name}: {update_volume} updates every {update_every} queries");
    header(&["query_seq", "system", "us"]);
    for (label, mut sys) in systems(table, domain, all) {
        let mut gen = RangeGen::with_selectivity(domain, 0.2, seed);
        let mut live: Vec<u32> = (0..table.num_rows() as u32).collect();
        let mut next_key = table.num_rows() as u32;
        for i in 0..queries {
            if i > 0 && i % update_every == 0 {
                // A batch of random updates: each is one insert + one delete.
                for _ in 0..update_volume {
                    sys.insert(&[gen.value(), gen.value(), gen.value()]);
                    live.push(next_key);
                    next_key += 1;
                    let victim = live.swap_remove(gen.index(live.len()));
                    sys.delete(victim);
                }
            }
            let pred = gen.next();
            let q =
                SelectQuery::aggregate(vec![(0, pred)], vec![(1, AggFunc::Max), (2, AggFunc::Max)]);
            let (ms, _) = time_ms(|| sys.select(&q));
            if log_sample(i, queries) {
                println!("{}\t{}\t{:.1}", i + 1, label, ms * 1e3);
            }
        }
    }
}

/// Exp6 (§3.6, Figure 7(a,b)): updates under the LFHV (low frequency,
/// high volume) and HFLV (high frequency, low volume) scenarios; q3
/// queries with random ranges.
///
/// By default the update-capable trio of the paper's figure runs
/// (sideways, selection cracking, plain). `--engines=all` adds the
/// presorted baseline (paying the O(n)-per-insert sorted-copy
/// maintenance the paper dismisses it for) and partial sideways
/// cracking — unbudgeted and under a storage budget — whose §3.5
/// chunk-wise merge-on-access is the headline update path.
pub fn exp6_updates(args: &Args) {
    let n = args.n;
    let domain = n as Val;
    let all = args.engines == "all";
    let table = random_table(3, n, domain, args.seed);
    println!(
        "# Exp6: effect of updates (N={n}, {} queries, engines={})",
        args.queries, args.engines
    );
    println!("# Paper: Figure 7 — (a) LFHV and (b) HFLV scenarios");

    // LFHV: a large batch once per ~queries/2; HFLV: small frequent batches.
    let big = (args.queries / 2).max(1);
    run_scenario(
        "LFHV",
        &table,
        domain,
        args.queries,
        (big, big),
        args.seed + 1,
        all,
    );
    run_scenario(
        "HFLV",
        &table,
        domain,
        args.queries,
        (10, 10),
        args.seed + 2,
        all,
    );

    println!("\n# Expected shape: the cracking engines keep their self-organized");
    println!("# performance across update batches (short-lived spikes as pending updates");
    println!("# merge on demand), staying well below plain MonetDB; with --engines=all,");
    println!("# the presorted baseline pays O(n) sorted-copy maintenance per insert and");
    println!("# partial maps merge §3.5 updates chunk-wise, budgeted or not.");
}
