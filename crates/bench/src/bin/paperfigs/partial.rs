//! §4.2: partial sideways cracking on the batched `Qi` workloads,
//! Figures 9–13.

use crackdb_bench::qi::{compare, schedule, total_secs, Sample};
use crackdb_bench::{header, log_sample, Args};
use crackdb_columnstore::types::Val;
use crackdb_workloads::random_table;
use crackdb_workloads::synthetic::QiGen;

/// Figure 9 (§4.2): handling storage restrictions — per-query cost of
/// full vs partial maps under (a) unlimited storage, (b) T = 6.5 maps,
/// (c) T = 2 maps, plus (d) storage usage over the query sequence.
///
/// Workload: an 11-attribute table, five query types `Qi` in batches of
/// 100, result size S ≈ N/100 (the paper: N = 10^6, S = 10^4).
pub fn fig9_storage(args: &Args) {
    let n = args.n;
    let domain = n as Val;
    let table = random_table(QiGen::attrs_needed(5), n, domain, args.seed);
    let s_size = n / 100;
    let mut gen = QiGen::new(domain, n, s_size, 5, args.seed + 1);
    let sched = schedule(&mut gen, args.queries, 100, false);

    println!(
        "# Fig 9: storage restrictions (N={n}, S={s_size}, {} queries, 5 types x batches of 100)",
        args.queries
    );
    let budgets: [(&str, Option<usize>); 3] = [
        ("(a) unlimited", None),
        ("(b) T=6.5 maps", Some(n * 13 / 2)),
        ("(c) T=2 maps", Some(n * 2)),
    ];
    for (label, budget) in budgets {
        println!("\n## {label}");
        header(&[
            "query_seq",
            "full_us",
            "partial_us",
            "full_storage",
            "partial_storage",
        ]);
        let (full, partial) = compare(&table, domain, &sched, budget, false);
        for i in 0..sched.len() {
            if log_sample(i, sched.len()) || i % 100 == 0 {
                println!(
                    "{}\t{:.1}\t{:.1}\t{}\t{}",
                    i + 1,
                    full[i].us,
                    partial[i].us,
                    full[i].storage,
                    partial[i].storage
                );
            }
        }
        println!(
            "# totals: full {:.3}s, partial {:.3}s; peak storage full {} / partial {}",
            crackdb_bench::qi::total_secs(&full),
            crackdb_bench::qi::total_secs(&partial),
            full.iter().map(|s| s.storage).max().unwrap_or(0),
            partial.iter().map(|s| s.storage).max().unwrap_or(0),
        );
    }
    println!("\n# Expected shape: full maps show high peaks at every batch boundary (map");
    println!("# creation + alignment, worse once budgets force recreation); partial maps");
    println!("# spread the cost smoothly and use a fraction of the storage (Fig 9(d)).");
}

/// Figure 10 (§4.2): workload adaptation under a fixed budget
/// (T = 6.5 maps) — (a) highly selective uniform queries (S = N/1000),
/// (b) skewed queries (S = N/100, 9/10 in 20% of the domain), and (c)
/// the storage used by full vs partial maps.
pub fn fig10_adaptation(args: &Args) {
    let n = args.n;
    let domain = n as Val;
    let table = random_table(QiGen::attrs_needed(5), n, domain, args.seed);
    let budget = Some(n * 13 / 2);

    let variants: [(&str, usize, bool); 2] = [
        ("(a) random, S=N/1000", n / 1000, false),
        ("(b) skewed, S=N/100", n / 100, true),
    ];
    println!("# Fig 10: adaptation to the workload with partial maps (N={n}, T=6.5 maps)");
    for (label, s_size, skewed) in variants {
        println!("\n## {label}");
        header(&[
            "query_seq",
            "full_us",
            "partial_us",
            "full_storage",
            "partial_storage",
        ]);
        let mut gen = QiGen::new(domain, n, s_size.max(1), 5, args.seed + 1);
        let sched = schedule(&mut gen, args.queries, 100, skewed);
        let (full, partial) = compare(&table, domain, &sched, budget, false);
        for i in 0..sched.len() {
            if log_sample(i, sched.len()) || i % 100 == 0 {
                println!(
                    "{}\t{:.1}\t{:.1}\t{}\t{}",
                    i + 1,
                    full[i].us,
                    partial[i].us,
                    full[i].storage,
                    partial[i].storage
                );
            }
        }
        println!(
            "# totals: full {:.3}s, partial {:.3}s; peak storage full {} / partial {}",
            crackdb_bench::qi::total_secs(&full),
            crackdb_bench::qi::total_secs(&partial),
            full.iter().map(|s| s.storage).max().unwrap_or(0),
            partial.iter().map(|s| s.storage).max().unwrap_or(0),
        );
    }
    println!("\n# Expected shape: focused workloads let partial maps materialize only the");
    println!("# touched chunks — smooth per-query cost and storage well under the budget,");
    println!("# while full maps keep paying recreation peaks at every batch switch.");
}

/// Figure 11 (§4.2): "no overhead" — total cumulative cost of the
/// 1000-query workload while varying result size S and storage
/// threshold T; partial maps must match or beat full maps everywhere.
pub fn fig11_cumulative(args: &Args) {
    let n = args.n;
    let domain = n as Val;
    let table = random_table(QiGen::attrs_needed(5), n, domain, args.seed);

    println!(
        "# Fig 11: total cumulative cost of {} queries (N={n})",
        args.queries
    );
    header(&["S_result_size", "T_budget", "full_secs", "partial_secs"]);
    let s_values = [n / 1000, n / 100, n / 10, 3 * n / 10];
    let budgets: [(&str, Option<usize>); 3] = [
        ("none", None),
        ("6.5maps", Some(n * 13 / 2)),
        ("2maps", Some(n * 2)),
    ];
    for &s_size in &s_values {
        for (blabel, budget) in budgets {
            let mut gen = QiGen::new(domain, n, s_size.max(1), 5, args.seed + 1);
            let sched = schedule(&mut gen, args.queries, 100, false);
            let (full, partial) = compare(&table, domain, &sched, budget, false);
            println!(
                "{s_size}\t{blabel}\t{:.3}\t{:.3}",
                total_secs(&full),
                total_secs(&partial)
            );
        }
    }
    println!("\n# Expected shape: at low selectivity (large S) both approaches cost about");
    println!("# the same; at high selectivity (small S) partial maps win clearly, and the");
    println!("# advantage grows as the budget tightens.");
}

/// Figure 12 (§4.2): total cost versus workload change rate — full maps
/// degrade as batches shrink (more drops + recreations), partial maps
/// stay nearly flat.
pub fn fig12_change_rate(args: &Args) {
    let n = args.n;
    let domain = n as Val;
    let table = random_table(QiGen::attrs_needed(5), n, domain, args.seed);
    let budget = Some(n * 6); // the paper's T = 6M for N = 1M
    let s_size = n / 100;

    println!(
        "# Fig 12: varying workload change rate (N={n}, S={s_size}, T=6 maps, {} queries)",
        args.queries
    );
    header(&["changes_per_1000", "batch_len", "full_secs", "partial_secs"]);
    for batch in [200usize, 100, 20, 10, 2, 1] {
        let changes = args.queries / batch;
        let mut gen = QiGen::new(domain, n, s_size.max(1), 5, args.seed + 1);
        let sched = schedule(&mut gen, args.queries, batch, false);
        let (full, partial) = compare(&table, domain, &sched, budget, false);
        println!(
            "{changes}\t{batch}\t{:.3}\t{:.3}",
            total_secs(&full),
            total_secs(&partial)
        );
    }
    println!("\n# Expected shape: full maps degrade sharply with more frequent changes");
    println!("# (maps dropped and recreated more often); partial maps barely move.");
}

fn batch_stats(samples: &[Sample], batch: usize) -> Vec<(usize, f64, f64)> {
    samples
        .chunks(batch)
        .enumerate()
        .map(|(b, w)| {
            let first = w[0].us;
            let rest = if w.len() > 1 {
                w[1..].iter().map(|s| s.us).sum::<f64>() / (w.len() - 1) as f64
            } else {
                first
            };
            (b + 1, first, rest)
        })
        .collect()
}

/// Figure 13 (§4.2): alignment cost — two query types alternating every
/// 10/100/200 queries with no storage limit; full maps pay alignment
/// peaks at every switch (the new batch's maps replay the previous
/// batch's cracks), partial maps align chunks partially and only on
/// demand.
///
/// Output per batch: the first query's cost (the switch peak) and the
/// mean of the remaining queries, for full and partial maps.
pub fn fig13_alignment(args: &Args) {
    let n = args.n;
    let domain = n as Val;
    let table = random_table(QiGen::attrs_needed(2), n, domain, args.seed);
    let s_size = n / 100;

    println!("# Fig 13: improving alignment with partial maps (N={n}, S={s_size}, no limit)");
    for batch in [10usize, 100, 200] {
        println!("\n## workload changes every {batch} queries");
        header(&[
            "batch",
            "full_first_us",
            "full_rest_us",
            "partial_first_us",
            "partial_rest_us",
        ]);
        let mut gen = QiGen::new(domain, n, s_size.max(1), 2, args.seed + 1);
        let sched = schedule(&mut gen, args.queries, batch, false);
        let (full, partial) = compare(&table, domain, &sched, None, false);
        let fb = batch_stats(&full, batch);
        let pb = batch_stats(&partial, batch);
        let step = (fb.len() / 10).max(1);
        for i in (0..fb.len()).step_by(step) {
            println!(
                "{}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
                fb[i].0, fb[i].1, fb[i].2, pb[i].1, pb[i].2
            );
        }
        let peak_full: f64 = fb.iter().skip(1).map(|b| b.1).fold(0.0, f64::max);
        let peak_partial: f64 = pb.iter().skip(1).map(|b| b.1).fold(0.0, f64::max);
        println!(
            "# switch peaks (max first-query cost after batch 1): full {peak_full:.1} us, partial {peak_partial:.1} us"
        );
        println!(
            "# totals: full {:.3}s, partial {:.3}s",
            crackdb_bench::qi::total_secs(&full),
            crackdb_bench::qi::total_secs(&partial)
        );
    }
    println!("\n# Expected shape: longer batches → rarer but higher full-map alignment");
    println!("# peaks at the switches (more cracks to replay); partial maps smooth the");
    println!("# peaks via chunk-wise partial alignment.");
}
