//! §5: TPC-H, Figure 14 and the mixed workload.

use crackdb_bench::{header, time_ms, Args};
use crackdb_engine::tpch::queries::{run, QUERIES};
use crackdb_engine::tpch::{Mode, TpchExecutor};
use crackdb_workloads::tpch::{Params, TpchData, TpchParams};

/// The qgen-style parameters of TPC-H query `q`.
fn params_for(p: &mut TpchParams, q: u32) -> Params {
    match q {
        1 => p.q1(),
        3 => p.q3(),
        4 => p.q4(),
        6 => p.q6(),
        7 => p.q7(),
        8 => p.q8(),
        10 => p.q10(),
        12 => p.q12(),
        14 => p.q14(),
        15 => p.q15(),
        19 => p.q19(),
        20 => p.q20(),
        _ => unreachable!(),
    }
}

/// Figure 14 + the §5 benefits table: the twelve TPC-H queries, thirty
/// random parameter variations each, under all five systems; per-query
/// sequences plus the summary of sideways-cracking and presorted
/// improvements over plain MonetDB.
pub fn tpch_fig14(args: &Args) {
    let sf = args.sf;
    println!(
        "# Fig 14: TPC-H query sequences (SF={sf}, {} variations per query)",
        args.queries
    );
    let data = TpchData::generate(sf, args.seed);
    println!(
        "# lineitem rows: {}, orders rows: {}",
        data.lineitem.num_rows(),
        data.orders.num_rows()
    );

    let modes = [
        (Mode::Presorted, "MonetDB presorted"),
        (Mode::SelCrack, "Selection Cracking"),
        (Mode::Sideways, "Sideways Cracking"),
        (Mode::RowStore, "MySQL presorted"),
        (Mode::Plain, "MonetDB"),
    ];

    // Pre-generate identical parameter sequences per query.
    let mut pgen = TpchParams::new(args.seed + 7);
    let sequences: Vec<(u32, Vec<Params>)> = QUERIES
        .iter()
        .map(|&q| {
            (
                q,
                (0..args.queries)
                    .map(|_| params_for(&mut pgen, q))
                    .collect(),
            )
        })
        .collect();

    header(&["query", "run", "system", "ms"]);
    let mut totals: Vec<(u32, Vec<f64>)> = Vec::new();
    for (q, seq) in &sequences {
        let mut mode_totals = Vec::new();
        for (mode, label) in modes {
            let mut exec = TpchExecutor::new(data.clone(), mode);
            if mode == Mode::Presorted || mode == Mode::RowStore {
                eprintln!(
                    "# Q{q} {label}: preparation cost {:.1} ms",
                    exec.prep_cost.as_secs_f64() * 1e3
                );
            }
            let mut total = 0.0;
            for (i, &prm) in seq.iter().enumerate() {
                let (ms, _digest) = time_ms(|| run(&mut exec, *q, prm));
                total += ms;
                println!("Q{q}\t{}\t{label}\t{ms:.3}", i + 1);
            }
            mode_totals.push(total);
        }
        totals.push((*q, mode_totals));
    }

    // The paper's benefits table: improvement over plain MonetDB.
    println!("\n# Benefits over plain MonetDB (positive = faster), paper's §5 table:");
    header(&["query", "SiCr_%", "PrMo_%"]);
    for (q, t) in &totals {
        let plain = t[4];
        let sicr = 100.0 * (plain - t[2]) / plain.max(1e-9);
        let prmo = 100.0 * (plain - t[0]) / plain.max(1e-9);
        println!("Q{q}\t{sicr:.0}%\t{prmo:.0}%");
    }
    println!("\n# Expected shape: sideways cracking ≈ presorted (without its preparation");
    println!("# cost) and clearly faster than plain MonetDB for the TR-heavy queries");
    println!("# (1, 6, 7, 15, 19, 20); first run per sequence is the most expensive.");
}

/// The final §5 experiment: a mixed workload of 5 sequential batches of
/// the 12 TPC-H queries with varying parameters; sideways and partial
/// sideways cracking's response times relative to plain MonetDB. Map
/// reuse across different queries over the same attributes makes
/// sideways cracking win already within the first batch; partial maps
/// materialize only the touched chunks of those maps.
pub fn tpch_mixed(args: &Args) {
    let sf = args.sf;
    let batches = args.queries; // number of batches (paper: 5)
    println!("# Mixed TPC-H workload (SF={sf}, {batches} batches of 12 queries)");
    let data = TpchData::generate(sf, args.seed);

    let mut pgen = TpchParams::new(args.seed + 3);
    let workload: Vec<(u32, Params)> = (0..batches)
        .flat_map(|_| {
            QUERIES
                .iter()
                .map(|&q| (q, params_for(&mut pgen, q)))
                .collect::<Vec<_>>()
        })
        .collect();

    let mut plain = TpchExecutor::new(data.clone(), Mode::Plain);
    let mut sideways = TpchExecutor::new(data.clone(), Mode::Sideways);
    let mut partial = TpchExecutor::new(data, Mode::Partial);

    header(&[
        "seq",
        "query",
        "monetdb_ms",
        "sideways_ms",
        "partial_ms",
        "rel_sideways",
        "rel_partial",
    ]);
    for (i, &(q, prm)) in workload.iter().enumerate() {
        let (ms_p, dp) = time_ms(|| run(&mut plain, q, prm));
        let (ms_s, ds) = time_ms(|| run(&mut sideways, q, prm));
        let (ms_c, dc) = time_ms(|| run(&mut partial, q, prm));
        assert_eq!(dp, ds, "sideways digest mismatch on Q{q}");
        assert_eq!(dp, dc, "partial digest mismatch on Q{q}");
        println!(
            "{}\tQ{q}\t{ms_p:.3}\t{ms_s:.3}\t{ms_c:.3}\t{:.3}\t{:.3}",
            i + 1,
            ms_s / ms_p.max(1e-9),
            ms_c / ms_p.max(1e-9)
        );
    }
    println!("\n# Expected shape: relative time < 1 for most queries already in batch 1");
    println!("# (maps reused across queries sharing attributes), improving further after;");
    println!("# partial maps track sideways while touching only the queried chunks.");
}
