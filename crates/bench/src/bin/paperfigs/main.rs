//! `paperfigs`: regenerate the paper's experiments, one figure per name.
//!
//! ```text
//! cargo run --release --bin paperfigs -- <figure>|all [--n=…] [--queries=…] [--sf=…] [--seed=…] [--engines=default|all]
//! ```
//!
//! Each figure prints the series its plot shows and asserts that the
//! engines it compares agree wherever its experiment checks answers.
//! `all` runs every figure in table order. Every figure has its own
//! laptop-sized default `--n` / `--queries`; given flags override them
//! for every figure that runs.

mod exp;
mod partial;
mod tpch;

use crackdb_bench::Args;

/// One reproducible figure: its name on the command line, its default
/// table size and query count, and the function that runs it.
type Figure = (&'static str, usize, usize, fn(&Args));

const FIGURES: [Figure; 13] = [
    ("exp1", 1_000_000, 100, exp::exp1_tuple_reconstruction),
    ("exp2", 1_000_000, 200, exp::exp2_selectivity),
    ("exp3", 2_000_000, 0, exp::exp3_reordering),
    ("exp4", 2_000_000, 100, exp::exp4_join),
    ("exp5", 1_000_000, 1000, exp::exp5_skew),
    ("exp6", 500_000, 1000, exp::exp6_updates),
    ("fig9", 200_000, 1000, partial::fig9_storage),
    ("fig10", 200_000, 1000, partial::fig10_adaptation),
    ("fig11", 200_000, 1000, partial::fig11_cumulative),
    ("fig12", 200_000, 1000, partial::fig12_change_rate),
    ("fig13", 200_000, 1000, partial::fig13_alignment),
    ("tpch_fig14", 0, 30, tpch::tpch_fig14),
    ("tpch_mixed", 0, 5, tpch::tpch_mixed),
];

/// Split the command line into the figures to run and their flags:
/// exactly one figure name (or `all`), any number of `--key=value`.
fn parse(argv: impl Iterator<Item = String>) -> Result<(Vec<&'static Figure>, Args), String> {
    let (names, flags): (Vec<String>, Vec<String>) = argv.partition(|a| !a.starts_with("--"));
    let figures = match names.as_slice() {
        [name] if name == "all" => FIGURES.iter().collect(),
        [name] => match FIGURES.iter().find(|f| f.0 == name) {
            Some(f) => vec![f],
            None => return Err(format!("unknown figure {name:?}")),
        },
        [] => return Err("no figure named".to_string()),
        _ => return Err(format!("one figure at a time, got {names:?}")),
    };
    Ok((figures, Args::parse_from(flags.into_iter())?))
}

fn main() {
    let (figures, args) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
            eprintln!("paperfigs: {e}");
            eprintln!(
                "usage: paperfigs <{}|all> [--n=N] [--queries=Q] [--sf=SF] [--seed=S] \
                 [--engines=default|all]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    for (i, &&(_, n, queries, run)) in figures.iter().enumerate() {
        if i > 0 {
            println!();
        }
        run(&args.or_defaults(n, queries));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(argv: &[&str]) -> Result<(Vec<&'static Figure>, Args), String> {
        parse(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn figure_names_select_from_the_table() {
        let (figs, args) = parse_strs(&["--n=20000", "exp6", "--engines=all"]).unwrap();
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].0, "exp6");
        assert_eq!((args.n, args.engines.as_str()), (20_000, "all"));
        let (all, _) = parse_strs(&["all"]).unwrap();
        assert_eq!(all.len(), FIGURES.len());
    }

    #[test]
    fn unknown_or_missing_figures_are_rejected() {
        assert!(parse_strs(&["fig15"]).unwrap_err().contains("fig15"));
        assert!(parse_strs(&[]).is_err());
        assert!(parse_strs(&["exp1", "exp2"]).is_err());
        assert!(parse_strs(&["exp1", "--n=x"]).is_err());
    }
}
