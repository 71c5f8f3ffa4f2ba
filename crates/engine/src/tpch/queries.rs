//! The twelve TPC-H queries of §5, written once against
//! [`TpchExecutor::select_project`], which runs each selection block
//! through the mode's engine. Each returns a digest value (a checksum
//! over the aggregates) so that the modes can be differentially tested.
//!
//! The plans are structurally faithful simplifications: the selection and
//! tuple-reconstruction work — the paper's object of study — follows each
//! query's template; joins, group-bys and aggregations are written once
//! above the selections, identical for every mode. Q12's mode IN-list and
//! Q19's disjunction are executed as unioned conjunctive branches (the
//! standard column-store rewriting). Prices are cents and percentages
//! integers, so revenue aggregates use integer arithmetic:
//! `price * (100 - disc)`.

#![allow(clippy::needless_range_loop)] // positional access across parallel columns

use super::{Tbl, TpchExecutor};
use crackdb_columnstore::types::{Bound, RangePred, Val};
use crackdb_workloads::tpch::{c, l, n, o, p, ps, s, Params};
use std::collections::{HashMap, HashSet};

/// Query identifiers in paper order.
pub const QUERIES: [u32; 12] = [1, 3, 4, 6, 7, 8, 10, 12, 14, 15, 19, 20];

/// Run query `id` with `params`; returns the digest.
pub fn run(exec: &mut TpchExecutor, id: u32, params: Params) -> Val {
    match id {
        1 => q1(exec, params),
        3 => q3(exec, params),
        4 => q4(exec, params),
        6 => q6(exec, params),
        7 => q7(exec, params),
        8 => q8(exec, params),
        10 => q10(exec, params),
        12 => q12(exec, params),
        14 => q14(exec, params),
        15 => q15(exec, params),
        19 => q19(exec, params),
        20 => q20(exec, params),
        other => panic!("query {other} is not part of the paper's subset"),
    }
}

fn revenue(price: Val, disc: Val) -> Val {
    price * (100 - disc)
}

/// Q1: pricing summary report — 1 selection on `l_shipdate`, 6 tuple
/// reconstructions, group by (returnflag, linestatus).
pub fn q1(exec: &mut TpchExecutor, prm: Params) -> Val {
    let cols = exec.select_project(
        Tbl::Lineitem,
        (l::SHIPDATE, RangePred::less(Bound::inclusive(prm.date))),
        &[],
        &[
            l::RETURNFLAG,
            l::LINESTATUS,
            l::QUANTITY,
            l::EXTENDEDPRICE,
            l::DISCOUNT,
            l::TAX,
        ],
    );
    /// Accumulator per (returnflag, linestatus) group: sum_qty,
    /// sum_base_price, sum_disc_price, sum_charge, count.
    type Q1Group = (Val, Val, Val, Val, Val);
    let mut groups: HashMap<(Val, Val), Q1Group> = HashMap::new();
    for i in 0..cols[0].len() {
        let g = groups.entry((cols[0][i], cols[1][i])).or_default();
        let (qty, price, disc, tax) = (cols[2][i], cols[3][i], cols[4][i], cols[5][i]);
        g.0 += qty;
        g.1 += price;
        g.2 += revenue(price, disc);
        g.3 += revenue(price, disc) * (100 + tax);
        g.4 += 1;
    }
    let mut digest = 0;
    for ((rf, ls), (sq, sp, sd, sc, cnt)) in groups {
        digest ^= rf + 3 * ls + sq + sp + sd % 1_000_003 + sc % 1_000_003 + cnt;
    }
    digest
}

/// Q3: shipping priority — customer ⋈ orders ⋈ lineitem, group by order.
pub fn q3(exec: &mut TpchExecutor, prm: Params) -> Val {
    let cust = exec.select_project(
        Tbl::Customer,
        (c::MKTSEGMENT, RangePred::point(prm.k1)),
        &[],
        &[c::CUSTKEY],
    );
    let custs: HashSet<Val> = cust[0].iter().copied().collect();
    let ord = exec.select_project(
        Tbl::Orders,
        (o::ORDERDATE, RangePred::less(Bound::exclusive(prm.date))),
        &[],
        &[o::ORDERKEY, o::CUSTKEY],
    );
    let okeys: HashSet<Val> = ord[0]
        .iter()
        .zip(&ord[1])
        .filter(|(_, ck)| custs.contains(ck))
        .map(|(&ok, _)| ok)
        .collect();
    let li = exec.select_project(
        Tbl::Lineitem,
        (l::SHIPDATE, RangePred::greater(Bound::exclusive(prm.date))),
        &[],
        &[l::ORDERKEY, l::EXTENDEDPRICE, l::DISCOUNT],
    );
    let mut rev: HashMap<Val, Val> = HashMap::new();
    for i in 0..li[0].len() {
        if okeys.contains(&li[0][i]) {
            *rev.entry(li[0][i]).or_default() += revenue(li[1][i], li[2][i]);
        }
    }
    rev.values().copied().max().unwrap_or(0) + rev.len() as Val
}

/// Q4: order priority checking — orders with a late lineitem, per
/// priority.
pub fn q4(exec: &mut TpchExecutor, prm: Params) -> Val {
    let ord = exec.select_project(
        Tbl::Orders,
        (o::ORDERDATE, RangePred::half_open(prm.date, prm.date2)),
        &[],
        &[o::ORDERKEY, o::ORDERPRIORITY],
    );
    let wanted: HashSet<Val> = ord[0].iter().copied().collect();
    // EXISTS (lineitem with commitdate < receiptdate): scan lineitem's
    // two date columns (no selection attribute — same for all modes).
    let li = exec.table(Tbl::Lineitem);
    let okc = li.column(l::ORDERKEY);
    let cd = li.column(l::COMMITDATE);
    let rd = li.column(l::RECEIPTDATE);
    let mut late: HashSet<Val> = HashSet::new();
    for i in 0..li.num_rows() {
        let i = i as u32;
        let ok = okc.get(i);
        if cd.get(i) < rd.get(i) && wanted.contains(&ok) {
            late.insert(ok);
        }
    }
    let mut counts = [0 as Val; 8];
    for (ok, prio) in ord[0].iter().zip(&ord[1]) {
        if late.contains(ok) {
            counts[*prio as usize] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as Val + 1) * v)
        .sum()
}

/// Q6: forecasting revenue change — pure multi-selection on lineitem.
pub fn q6(exec: &mut TpchExecutor, prm: Params) -> Val {
    let cols = exec.select_project(
        Tbl::Lineitem,
        (l::SHIPDATE, RangePred::half_open(prm.date, prm.date2)),
        &[
            (l::DISCOUNT, RangePred::closed(prm.k1 - 1, prm.k1 + 1)),
            (l::QUANTITY, RangePred::less(Bound::exclusive(prm.q))),
        ],
        &[l::EXTENDEDPRICE, l::DISCOUNT],
    );
    cols[0].iter().zip(&cols[1]).map(|(&p, &d)| p * d).sum()
}

/// Q7: volume shipping — lineitem ⋈ supplier ⋈ orders ⋈ customer with a
/// nation pair filter, grouped by year.
pub fn q7(exec: &mut TpchExecutor, prm: Params) -> Val {
    let li = exec.select_project(
        Tbl::Lineitem,
        (l::SHIPDATE, RangePred::closed(prm.date, prm.date2)),
        &[],
        &[
            l::ORDERKEY,
            l::SUPPKEY,
            l::EXTENDEDPRICE,
            l::DISCOUNT,
            l::SHIPDATE,
        ],
    );
    // Dimension maps (small scans, identical across modes).
    let sup = exec.table(Tbl::Supplier);
    let supp_nation: Vec<Val> = sup.column(s::NATIONKEY).values().to_vec();
    let ord = exec.table(Tbl::Orders);
    let order_cust: Vec<Val> = ord.column(o::CUSTKEY).values().to_vec();
    let cust = exec.table(Tbl::Customer);
    let cust_nation: Vec<Val> = cust.column(c::NATIONKEY).values().to_vec();

    let mut volumes: HashMap<(Val, Val, Val), Val> = HashMap::new();
    for i in 0..li[0].len() {
        let sn = supp_nation[li[1][i] as usize];
        let cn = cust_nation[order_cust[li[0][i] as usize] as usize];
        let pair_ok = (sn == prm.k1 && cn == prm.k2) || (sn == prm.k2 && cn == prm.k1);
        if pair_ok {
            let year = li[4][i] / 365;
            *volumes.entry((sn, cn, year)).or_default() += revenue(li[2][i], li[3][i]);
        }
    }
    volumes
        .iter()
        .map(|((sn, cn, y), v)| (sn + cn + y) ^ (v % 1_000_003))
        .sum()
}

/// Q8: national market share — orders in 1995–96, part type filter,
/// share of one nation's suppliers per year.
pub fn q8(exec: &mut TpchExecutor, prm: Params) -> Val {
    let ord = exec.select_project(
        Tbl::Orders,
        (o::ORDERDATE, RangePred::closed(prm.date, prm.date2)),
        &[],
        &[o::ORDERKEY, o::ORDERDATE],
    );
    let order_year: HashMap<Val, Val> = ord[0]
        .iter()
        .zip(&ord[1])
        .map(|(&k, &d)| (k, d / 365))
        .collect();
    let part = exec.select_project(
        Tbl::Part,
        (p::PTYPE, RangePred::point(prm.k2)),
        &[],
        &[p::PARTKEY],
    );
    let parts: HashSet<Val> = part[0].iter().copied().collect();
    let sup = exec.table(Tbl::Supplier);
    let supp_nation: Vec<Val> = sup.column(s::NATIONKEY).values().to_vec();

    // Lineitem side: no selective attribute — full scan join.
    let li = exec.table(Tbl::Lineitem);
    let (okc, pkc, skc) = (
        li.column(l::ORDERKEY),
        li.column(l::PARTKEY),
        li.column(l::SUPPKEY),
    );
    let (epc, dcc) = (li.column(l::EXTENDEDPRICE), li.column(l::DISCOUNT));
    let mut num: HashMap<Val, Val> = HashMap::new();
    let mut den: HashMap<Val, Val> = HashMap::new();
    for i in 0..li.num_rows() {
        let i = i as u32;
        if !parts.contains(&pkc.get(i)) {
            continue;
        }
        let Some(&year) = order_year.get(&okc.get(i)) else {
            continue;
        };
        let vol = revenue(epc.get(i), dcc.get(i));
        *den.entry(year).or_default() += vol;
        if supp_nation[skc.get(i) as usize] == prm.k1 {
            *num.entry(year).or_default() += vol;
        }
    }
    den.iter()
        .map(|(y, d)| {
            let nv = num.get(y).copied().unwrap_or(0);
            y + if *d > 0 { nv * 1000 / d } else { 0 }
        })
        .sum()
}

/// Q10: returned item reporting — revenue per customer from returned
/// lines in a quarter's orders.
pub fn q10(exec: &mut TpchExecutor, prm: Params) -> Val {
    let ord = exec.select_project(
        Tbl::Orders,
        (o::ORDERDATE, RangePred::half_open(prm.date, prm.date2)),
        &[],
        &[o::ORDERKEY, o::CUSTKEY],
    );
    let order_cust: HashMap<Val, Val> = ord[0]
        .iter()
        .zip(&ord[1])
        .map(|(&k, &cu)| (k, cu))
        .collect();
    let li = exec.select_project(
        Tbl::Lineitem,
        (l::RETURNFLAG, RangePred::point(2)), // 'R'
        &[],
        &[l::ORDERKEY, l::EXTENDEDPRICE, l::DISCOUNT],
    );
    let mut rev: HashMap<Val, Val> = HashMap::new();
    for i in 0..li[0].len() {
        if let Some(&cust) = order_cust.get(&li[0][i]) {
            *rev.entry(cust).or_default() += revenue(li[1][i], li[2][i]);
        }
    }
    rev.values().copied().max().unwrap_or(0) + rev.len() as Val
}

/// Q12: shipping modes and order priority — lineitem receipt dates in a
/// year, two ship modes, late-commit filters, joined to order priority.
pub fn q12(exec: &mut TpchExecutor, prm: Params) -> Val {
    let ord = exec.table(Tbl::Orders);
    let prio: Vec<Val> = ord.column(o::ORDERPRIORITY).values().to_vec();
    let mut high = 0 as Val;
    let mut low = 0 as Val;
    for mode in [prm.k1, prm.k2] {
        let cols = exec.select_project(
            Tbl::Lineitem,
            (l::RECEIPTDATE, RangePred::half_open(prm.date, prm.date2)),
            &[(l::SHIPMODE, RangePred::point(mode))],
            &[l::ORDERKEY, l::SHIPDATE, l::COMMITDATE, l::RECEIPTDATE],
        );
        for i in 0..cols[0].len() {
            // Column-to-column comparisons applied above the selection.
            if cols[2][i] < cols[3][i] && cols[1][i] < cols[2][i] {
                let pr = prio[cols[0][i] as usize];
                if pr <= 1 {
                    high += 1;
                } else {
                    low += 1;
                }
            }
        }
    }
    high * 1000 + low
}

/// Q14: promotion effect — promo revenue share in one month.
pub fn q14(exec: &mut TpchExecutor, prm: Params) -> Val {
    let cols = exec.select_project(
        Tbl::Lineitem,
        (l::SHIPDATE, RangePred::half_open(prm.date, prm.date2)),
        &[],
        &[l::PARTKEY, l::EXTENDEDPRICE, l::DISCOUNT],
    );
    let part = exec.table(Tbl::Part);
    let ptype: Vec<Val> = part.column(p::PTYPE).values().to_vec();
    let mut promo = 0 as Val;
    let mut total = 0 as Val;
    for i in 0..cols[0].len() {
        let r = revenue(cols[1][i], cols[2][i]);
        total += r;
        if ptype[cols[0][i] as usize] < 30 {
            promo += r;
        }
    }
    if total > 0 {
        promo * 100_000 / total
    } else {
        0
    }
}

/// Q15: top supplier — revenue per supplier over one quarter.
pub fn q15(exec: &mut TpchExecutor, prm: Params) -> Val {
    let cols = exec.select_project(
        Tbl::Lineitem,
        (l::SHIPDATE, RangePred::half_open(prm.date, prm.date2)),
        &[],
        &[l::SUPPKEY, l::EXTENDEDPRICE, l::DISCOUNT],
    );
    let mut rev: HashMap<Val, Val> = HashMap::new();
    for i in 0..cols[0].len() {
        *rev.entry(cols[0][i]).or_default() += revenue(cols[1][i], cols[2][i]);
    }
    rev.values().copied().max().unwrap_or(0)
}

/// Q19: discounted revenue — a three-branch disjunction of brand /
/// container / quantity / size conjunctions (branches made disjoint on
/// quantity, see module docs).
pub fn q19(exec: &mut TpchExecutor, prm: Params) -> Val {
    let brands = [prm.k1, prm.k2, (prm.k1 + 7) % 25];
    let containers = [
        RangePred::closed(0, 9),
        RangePred::closed(10, 19),
        RangePred::closed(20, 29),
    ];
    let sizes = [
        RangePred::closed(1, 5),
        RangePred::closed(1, 10),
        RangePred::closed(1, 15),
    ];
    let mut total = 0 as Val;
    for b in 0..3 {
        let parts = exec.select_project(
            Tbl::Part,
            (p::BRAND, RangePred::point(brands[b])),
            &[(p::CONTAINER, containers[b]), (p::SIZE, sizes[b])],
            &[p::PARTKEY],
        );
        let pset: HashSet<Val> = parts[0].iter().copied().collect();
        let qlo = prm.q + 10 * b as Val;
        let li = exec.select_project(
            Tbl::Lineitem,
            (l::QUANTITY, RangePred::half_open(qlo, qlo + 10)),
            &[
                (l::SHIPMODE, RangePred::closed(0, 1)), // AIR, AIR REG
                (l::SHIPINSTRUCT, RangePred::point(0)), // DELIVER IN PERSON
            ],
            &[l::PARTKEY, l::EXTENDEDPRICE, l::DISCOUNT],
        );
        for i in 0..li[0].len() {
            if pset.contains(&li[0][i]) {
                total += revenue(li[1][i], li[2][i]);
            }
        }
    }
    total
}

/// Q20: potential part promotion — suppliers with excess stock of a
/// brand's parts relative to a year's shipments.
pub fn q20(exec: &mut TpchExecutor, prm: Params) -> Val {
    let parts = exec.select_project(
        Tbl::Part,
        (p::BRAND, RangePred::point(prm.k1)),
        &[],
        &[p::PARTKEY],
    );
    let pset: HashSet<Val> = parts[0].iter().copied().collect();
    let li = exec.select_project(
        Tbl::Lineitem,
        (l::SHIPDATE, RangePred::half_open(prm.date, prm.date2)),
        &[],
        &[l::PARTKEY, l::SUPPKEY, l::QUANTITY],
    );
    let mut shipped: HashMap<(Val, Val), Val> = HashMap::new();
    for i in 0..li[0].len() {
        if pset.contains(&li[0][i]) {
            *shipped.entry((li[0][i], li[1][i])).or_default() += li[2][i];
        }
    }
    let pstab = exec.table(Tbl::PartSupp);
    let (pkc, skc, aqc) = (
        pstab.column(ps::PARTKEY),
        pstab.column(ps::SUPPKEY),
        pstab.column(ps::AVAILQTY),
    );
    let mut suppliers: HashSet<Val> = HashSet::new();
    for i in 0..pstab.num_rows() {
        let i = i as u32;
        let key = (pkc.get(i), skc.get(i));
        if !pset.contains(&key.0) {
            continue;
        }
        let half_shipped = shipped.get(&key).copied().unwrap_or(0) / 2;
        if aqc.get(i) > half_shipped {
            suppliers.insert(key.1);
        }
    }
    // Nation filter: count suppliers from one nation (the template's
    // nation restriction).
    let sup = exec.table(Tbl::Supplier);
    let nat = sup.column(s::NATIONKEY);
    let _ = n::NATIONKEY;
    suppliers
        .iter()
        .filter(|&&sk| nat.get(sk as u32) == prm.k1 % 25)
        .count() as Val
        + suppliers.len() as Val
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::Mode;
    use crackdb_workloads::tpch::{TpchData, TpchParams};

    #[test]
    fn all_queries_agree_across_modes() {
        let data = TpchData::generate(0.002, 33);
        let mut params = TpchParams::new(44);
        let pset: Vec<(u32, Params)> = QUERIES
            .iter()
            .map(|&q| {
                let prm = match q {
                    1 => params.q1(),
                    3 => params.q3(),
                    4 => params.q4(),
                    6 => params.q6(),
                    7 => params.q7(),
                    8 => params.q8(),
                    10 => params.q10(),
                    12 => params.q12(),
                    14 => params.q14(),
                    15 => params.q15(),
                    19 => params.q19(),
                    20 => params.q20(),
                    _ => unreachable!(),
                };
                (q, prm)
            })
            .collect();
        let mut reference: Option<Vec<Val>> = None;
        for mode in [
            Mode::Plain,
            Mode::Presorted,
            Mode::SelCrack,
            Mode::Sideways,
            Mode::RowStore,
        ] {
            let mut e = TpchExecutor::new(data.clone(), mode);
            // Run twice: the second pass exercises cracked structures.
            let mut digests: Vec<Val> = Vec::new();
            for _ in 0..2 {
                for &(q, prm) in &pset {
                    digests.push(run(&mut e, q, prm));
                }
            }
            match &reference {
                None => reference = Some(digests),
                Some(r) => assert_eq!(&digests, r, "mode {mode:?} disagrees"),
            }
        }
    }
}
