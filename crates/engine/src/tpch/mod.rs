//! TPC-H execution (§5): the twelve paper queries runnable under every
//! physical design through a mode-parametric *access layer*.
//!
//! Joins, group-bys and aggregations above the access layer are shared
//! verbatim across modes — exactly the paper's setting, where the systems
//! differ in selection and tuple-reconstruction behaviour while the rest
//! of the plan uses the regular column-store operators.

pub mod queries;

use crate::exec::combine;
use crackdb_columnstore::column::Table;
use crackdb_columnstore::presorted::PresortedTable;
use crackdb_columnstore::rowstore::PresortedRowTable;
use crackdb_columnstore::types::{RangePred, Val};
use crackdb_core::{BitVec, PartialStore, SidewaysStore};
use crackdb_cracking::CrackerColumn;
use crackdb_workloads::tpch::{l, o, TpchData};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Physical design a TPC-H run executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Plain column-store scans.
    Plain,
    /// Presorted copies per selection attribute.
    Presorted,
    /// Selection cracking.
    SelCrack,
    /// Sideways cracking (full maps).
    Sideways,
    /// Partial sideways cracking (§4 chunk-wise maps).
    Partial,
    /// Presorted row-store ("MySQL presorted").
    RowStore,
}

/// Table identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tbl {
    /// LINEITEM
    Lineitem,
    /// ORDERS
    Orders,
    /// CUSTOMER
    Customer,
    /// PART
    Part,
    /// SUPPLIER
    Supplier,
    /// PARTSUPP
    PartSupp,
    /// NATION
    Nation,
}

/// The mode-parametric TPC-H executor.
pub struct TpchExecutor {
    /// Generated database.
    pub data: TpchData,
    mode: Mode,
    presorted: HashMap<(Tbl, usize), PresortedTable>,
    rowstores: HashMap<(Tbl, usize), PresortedRowTable>,
    crackers: HashMap<(Tbl, usize), CrackerColumn>,
    stores: HashMap<Tbl, SidewaysStore>,
    partial_stores: HashMap<Tbl, PartialStore>,
    /// Preparation cost (presorted copies / row tables); the paper
    /// reports it separately from per-query times.
    pub prep_cost: Duration,
}

/// The presorted copies the twelve queries need: each query's primary
/// (non-string) selection column.
const SORT_ATTRS: &[(Tbl, usize)] = &[
    (Tbl::Lineitem, l::SHIPDATE),
    (Tbl::Lineitem, l::RECEIPTDATE),
    (Tbl::Lineitem, l::QUANTITY),
    (Tbl::Orders, o::ORDERDATE),
];

impl TpchExecutor {
    /// Build an executor; for the presorted modes the copies are built
    /// here (measured in [`Self::prep_cost`]).
    pub fn new(data: TpchData, mode: Mode) -> Self {
        let mut e = TpchExecutor {
            data,
            mode,
            presorted: HashMap::new(),
            rowstores: HashMap::new(),
            crackers: HashMap::new(),
            stores: HashMap::new(),
            partial_stores: HashMap::new(),
            prep_cost: Duration::ZERO,
        };
        let t0 = Instant::now();
        match mode {
            Mode::Presorted => {
                for &(tbl, attr) in SORT_ATTRS {
                    let copy = PresortedTable::build(e.table(tbl), attr);
                    e.presorted.insert((tbl, attr), copy);
                }
            }
            Mode::RowStore => {
                for &(tbl, attr) in SORT_ATTRS {
                    let rt = PresortedRowTable::build(e.table(tbl), attr);
                    e.rowstores.insert((tbl, attr), rt);
                }
            }
            Mode::Sideways => {
                // Register per-attribute domains (column statistics) for
                // the histogram-based set choice.
                for tbl in [
                    Tbl::Lineitem,
                    Tbl::Orders,
                    Tbl::Customer,
                    Tbl::Part,
                    Tbl::Supplier,
                    Tbl::PartSupp,
                    Tbl::Nation,
                ] {
                    let mut store = SidewaysStore::new((0, 1));
                    let t = match tbl {
                        Tbl::Lineitem => &e.data.lineitem,
                        Tbl::Orders => &e.data.orders,
                        Tbl::Customer => &e.data.customer,
                        Tbl::Part => &e.data.part,
                        Tbl::Supplier => &e.data.supplier,
                        Tbl::PartSupp => &e.data.partsupp,
                        Tbl::Nation => &e.data.nation,
                    };
                    for c in 0..t.num_columns() {
                        let vals = t.column(c).values();
                        let lo = vals.iter().copied().min().unwrap_or(0);
                        let hi = vals.iter().copied().max().unwrap_or(1);
                        store.set_domain(c, (lo, hi));
                    }
                    e.stores.insert(tbl, store);
                }
            }
            Mode::Partial => {
                // Same per-attribute domain statistics: partial maps use
                // the uniform assumption for their §4 set choice.
                for tbl in [
                    Tbl::Lineitem,
                    Tbl::Orders,
                    Tbl::Customer,
                    Tbl::Part,
                    Tbl::Supplier,
                    Tbl::PartSupp,
                    Tbl::Nation,
                ] {
                    let mut store = PartialStore::new((0, 1));
                    let t = match tbl {
                        Tbl::Lineitem => &e.data.lineitem,
                        Tbl::Orders => &e.data.orders,
                        Tbl::Customer => &e.data.customer,
                        Tbl::Part => &e.data.part,
                        Tbl::Supplier => &e.data.supplier,
                        Tbl::PartSupp => &e.data.partsupp,
                        Tbl::Nation => &e.data.nation,
                    };
                    for c in 0..t.num_columns() {
                        let vals = t.column(c).values();
                        let lo = vals.iter().copied().min().unwrap_or(0);
                        let hi = vals.iter().copied().max().unwrap_or(1);
                        store.set_domain(c, (lo, hi));
                    }
                    e.partial_stores.insert(tbl, store);
                }
            }
            _ => {}
        }
        e.prep_cost = t0.elapsed();
        e
    }

    /// The mode this executor runs under.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Base table by id.
    pub fn table(&self, tbl: Tbl) -> &Table {
        match tbl {
            Tbl::Lineitem => &self.data.lineitem,
            Tbl::Orders => &self.data.orders,
            Tbl::Customer => &self.data.customer,
            Tbl::Part => &self.data.part,
            Tbl::Supplier => &self.data.supplier,
            Tbl::PartSupp => &self.data.partsupp,
            Tbl::Nation => &self.data.nation,
        }
    }

    /// The access layer: select rows of `tbl` satisfying `sel` and all
    /// `residual` predicates; return the values of `projs`, column-wise
    /// (one `Vec` per projection, positionally consistent across
    /// projections). Row order is mode-dependent and unspecified.
    pub fn select_project(
        &mut self,
        tbl: Tbl,
        sel: (usize, RangePred),
        residual: &[(usize, RangePred)],
        projs: &[usize],
    ) -> Vec<Vec<Val>> {
        match self.mode {
            Mode::Plain => self.sp_plain(tbl, sel, residual, projs),
            Mode::Presorted => self.sp_presorted(tbl, sel, residual, projs),
            Mode::SelCrack => self.sp_selcrack(tbl, sel, residual, projs),
            Mode::Sideways => self.sp_sideways(tbl, sel, residual, projs),
            Mode::Partial => self.sp_partial(tbl, sel, residual, projs),
            Mode::RowStore => self.sp_rowstore(tbl, sel, residual, projs),
        }
    }

    fn sp_plain(
        &mut self,
        tbl: Tbl,
        sel: (usize, RangePred),
        residual: &[(usize, RangePred)],
        projs: &[usize],
    ) -> Vec<Vec<Val>> {
        let t = self.table(tbl);
        // Shared intersection strategy over scan keys.
        let mut keys = crackdb_columnstore::ops::select::select(t.column(sel.0), &sel.1);
        for (attr, pred) in residual {
            let col = t.column(*attr);
            combine::refine_keys(&mut keys, pred, |k| col.get(k));
        }
        projs
            .iter()
            .map(|&a| {
                let col = t.column(a);
                combine::project_keys(&keys, |k| col.get(k))
            })
            .collect()
    }

    fn sp_presorted(
        &mut self,
        tbl: Tbl,
        sel: (usize, RangePred),
        residual: &[(usize, RangePred)],
        projs: &[usize],
    ) -> Vec<Vec<Val>> {
        let Some(copy) = self.presorted.get(&(tbl, sel.0)) else {
            // No copy for this selection attribute (string selections):
            // same plan as the plain column-store.
            return self.sp_plain(tbl, sel, residual, projs);
        };
        let range = copy.select_range(&sel.1);
        // Shared bit-vector strategy over the aligned copy slices.
        let mut bv: Option<BitVec> = None;
        for (attr, pred) in residual {
            combine::fold_bv(&mut bv, copy.project(*attr, range), pred);
        }
        projs
            .iter()
            .map(|&a| combine::project_area(copy.project(a, range), &bv))
            .collect()
    }

    fn sp_selcrack(
        &mut self,
        tbl: Tbl,
        sel: (usize, RangePred),
        residual: &[(usize, RangePred)],
        projs: &[usize],
    ) -> Vec<Vec<Val>> {
        let cracker = match self.crackers.entry((tbl, sel.0)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let col = match tbl {
                    Tbl::Lineitem => self.data.lineitem.column(sel.0),
                    Tbl::Orders => self.data.orders.column(sel.0),
                    Tbl::Customer => self.data.customer.column(sel.0),
                    Tbl::Part => self.data.part.column(sel.0),
                    Tbl::Supplier => self.data.supplier.column(sel.0),
                    Tbl::PartSupp => self.data.partsupp.column(sel.0),
                    Tbl::Nation => self.data.nation.column(sel.0),
                };
                v.insert(CrackerColumn::from_column(col))
            }
        };
        let mut keys = cracker.select_keys(&sel.1);
        let t = self.table(tbl);
        for (attr, pred) in residual {
            let col = t.column(*attr);
            combine::refine_keys(&mut keys, pred, |k| col.get(k));
        }
        projs
            .iter()
            .map(|&a| {
                let col = t.column(a);
                combine::project_keys(&keys, |k| col.get(k))
            })
            .collect()
    }

    fn sp_sideways(
        &mut self,
        tbl: Tbl,
        sel: (usize, RangePred),
        residual: &[(usize, RangePred)],
        projs: &[usize],
    ) -> Vec<Vec<Val>> {
        let table: &Table = match tbl {
            Tbl::Lineitem => &self.data.lineitem,
            Tbl::Orders => &self.data.orders,
            Tbl::Customer => &self.data.customer,
            Tbl::Part => &self.data.part,
            Tbl::Supplier => &self.data.supplier,
            Tbl::PartSupp => &self.data.partsupp,
            Tbl::Nation => &self.data.nation,
        };
        let store = self
            .stores
            .get_mut(&tbl)
            .expect("stores built for sideways mode");
        let none = HashSet::new();
        let mut preds = vec![sel];
        preds.extend_from_slice(residual);
        let handle = store.conjunctive_bv(table, &preds, projs, &none);
        projs
            .iter()
            .map(|&a| {
                let mut vals = Vec::new();
                store
                    .reconstruct_block(table, &handle, a)
                    .append_to(&mut vals);
                vals
            })
            .collect()
    }

    fn sp_partial(
        &mut self,
        tbl: Tbl,
        sel: (usize, RangePred),
        residual: &[(usize, RangePred)],
        projs: &[usize],
    ) -> Vec<Vec<Val>> {
        let table: &Table = match tbl {
            Tbl::Lineitem => &self.data.lineitem,
            Tbl::Orders => &self.data.orders,
            Tbl::Customer => &self.data.customer,
            Tbl::Part => &self.data.part,
            Tbl::Supplier => &self.data.supplier,
            Tbl::PartSupp => &self.data.partsupp,
            Tbl::Nation => &self.data.nation,
        };
        let store = self
            .partial_stores
            .get_mut(&tbl)
            .expect("stores built for partial mode");
        let mut preds = vec![sel];
        preds.extend_from_slice(residual);
        // The fused chunk-wise pass hands on each projection attribute's
        // qualifying values in a positionally consistent order.
        let mut cols: Vec<Vec<Val>> = projs.iter().map(|_| Vec::new()).collect();
        store
            .conjunctive_project_blocks(table, &preds, projs, |b| {
                for (col, &p) in cols.iter_mut().zip(projs) {
                    if p == b.attr {
                        b.append_to(col);
                    }
                }
            })
            .expect("tpch partial stores are resident and unspilled");
        cols
    }

    fn sp_rowstore(
        &mut self,
        tbl: Tbl,
        sel: (usize, RangePred),
        residual: &[(usize, RangePred)],
        projs: &[usize],
    ) -> Vec<Vec<Val>> {
        let Some(rt) = self.rowstores.get(&(tbl, sel.0)) else {
            // Unsorted selection column: tuple-at-a-time full scan.
            let t = self.table(tbl);
            let mut preds = vec![sel];
            preds.extend_from_slice(residual);
            let rt = crackdb_columnstore::rowstore::RowTable::from_table(t);
            let rows = rt.scan_project(&preds, projs);
            return transpose(rows, projs.len());
        };
        let range = rt.select_range(&sel.1);
        let rows = rt.project_range(range, residual, projs);
        transpose(rows, projs.len())
    }
}

/// Row-major → column-major.
fn transpose(rows: Vec<Vec<Val>>, width: usize) -> Vec<Vec<Val>> {
    let mut cols: Vec<Vec<Val>> = (0..width).map(|_| Vec::with_capacity(rows.len())).collect();
    for row in rows {
        for (c, v) in row.into_iter().enumerate() {
            cols[c].push(v);
        }
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_workloads::tpch::{c as cc, dict};

    fn exec(mode: Mode) -> TpchExecutor {
        TpchExecutor::new(TpchData::generate(0.002, 21), mode)
    }

    #[test]
    fn access_layer_agrees_across_modes() {
        let sel = (l::SHIPDATE, RangePred::open(400, 700));
        let residual = [(l::DISCOUNT, RangePred::closed(2, 6))];
        let projs = [l::ORDERKEY, l::EXTENDEDPRICE];
        let mut reference: Option<Vec<Vec<Val>>> = None;
        for mode in [
            Mode::Plain,
            Mode::Presorted,
            Mode::SelCrack,
            Mode::Sideways,
            Mode::Partial,
            Mode::RowStore,
        ] {
            let mut e = exec(mode);
            let mut cols = e.select_project(Tbl::Lineitem, sel, &residual, &projs);
            // Sort rows for comparison (row order is mode-dependent).
            let mut rows: Vec<(Val, Val)> = cols[0]
                .iter()
                .zip(&cols[1])
                .map(|(&a, &b)| (a, b))
                .collect();
            rows.sort_unstable();
            cols[0] = rows.iter().map(|r| r.0).collect();
            cols[1] = rows.iter().map(|r| r.1).collect();
            match &reference {
                None => reference = Some(cols),
                Some(r) => assert_eq!(&cols, r, "mode {mode:?} disagrees"),
            }
        }
    }

    #[test]
    fn dict_selection_fallbacks() {
        for mode in [Mode::Presorted, Mode::RowStore, Mode::Sideways] {
            let mut e = exec(mode);
            let cols = e.select_project(
                Tbl::Customer,
                (cc::MKTSEGMENT, RangePred::point(1)),
                &[],
                &[cc::CUSTKEY],
            );
            assert!(!cols[0].is_empty());
            assert!(cols[0].len() < e.table(Tbl::Customer).num_rows());
            let _ = dict::MKTSEGMENT;
        }
    }
}
