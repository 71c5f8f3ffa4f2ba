//! TPC-H substrate (§5): a dbgen-like generator producing the schema
//! subset used by the paper's twelve queries (1, 3, 4, 6, 7, 8, 10, 12,
//! 14, 15, 19, 20), plus the random parameter generator mirroring qgen.
//!
//! Substitution note: everything is integer-encoded —
//! dates as days since 1992-01-01, strings (brands, containers, ship
//! modes, segments…) as dictionary codes, prices in cents. The paper's
//! queries select on non-string attributes, so the access patterns under
//! study are preserved exactly.

use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::types::Val;
use crackdb_rng::rngs::StdRng;
use crackdb_rng::{Rng, SeedableRng};

/// Days per month prefix sums (no leap years — consistent between data
/// and parameters, which is all that matters for range shapes).
const MONTH_PREFIX: [i64; 12] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334];

/// Encode a date as days since 1992-01-01.
pub fn date(y: i64, m: i64, d: i64) -> Val {
    (y - 1992) * 365 + MONTH_PREFIX[(m - 1) as usize] + (d - 1)
}

/// Dictionary sizes for the string-typed attributes.
pub mod dict {
    /// `l_returnflag` ∈ {A, N, R}.
    pub const RETURNFLAG: i64 = 3;
    /// `l_linestatus` ∈ {O, F}.
    pub const LINESTATUS: i64 = 2;
    /// `l_shipmode`: 7 modes.
    pub const SHIPMODE: i64 = 7;
    /// `l_shipinstruct`: 4 instructions ("DELIVER IN PERSON" = 0).
    pub const SHIPINSTRUCT: i64 = 4;
    /// `c_mktsegment`: 5 segments.
    pub const MKTSEGMENT: i64 = 5;
    /// `o_orderpriority`: 5 priorities ("1-URGENT" = 0, "2-HIGH" = 1).
    pub const ORDERPRIORITY: i64 = 5;
    /// `p_brand`: 25 brands.
    pub const BRAND: i64 = 25;
    /// `p_type`: 150 types; promo types are `< 30`.
    pub const PTYPE: i64 = 150;
    /// `p_container`: 40 containers.
    pub const CONTAINER: i64 = 40;
    /// 25 nations.
    pub const NATION: i64 = 25;
    /// 5 regions.
    pub const REGION: i64 = 5;
}

/// The generated TPC-H database (column-store layout).
#[derive(Debug, Clone)]
pub struct TpchData {
    /// Scale factor the data was generated with.
    pub sf: f64,
    /// LINEITEM: orderkey, partkey, suppkey, quantity, extendedprice,
    /// discount, tax, returnflag, linestatus, shipdate, commitdate,
    /// receiptdate, shipinstruct, shipmode.
    pub lineitem: Table,
    /// ORDERS: orderkey, custkey, orderdate, orderpriority, totalprice.
    pub orders: Table,
    /// CUSTOMER: custkey, nationkey, mktsegment, acctbal.
    pub customer: Table,
    /// PART: partkey, brand, ptype, size, container, retailprice.
    pub part: Table,
    /// SUPPLIER: suppkey, nationkey.
    pub supplier: Table,
    /// PARTSUPP: partkey, suppkey, availqty.
    pub partsupp: Table,
    /// NATION: nationkey, regionkey.
    pub nation: Table,
}

/// Column indexes of LINEITEM.
pub mod l {
    #![allow(missing_docs)] // column indexes named after TPC-H attributes
    pub const ORDERKEY: usize = 0;
    pub const PARTKEY: usize = 1;
    pub const SUPPKEY: usize = 2;
    pub const QUANTITY: usize = 3;
    pub const EXTENDEDPRICE: usize = 4;
    pub const DISCOUNT: usize = 5;
    pub const TAX: usize = 6;
    pub const RETURNFLAG: usize = 7;
    pub const LINESTATUS: usize = 8;
    pub const SHIPDATE: usize = 9;
    pub const COMMITDATE: usize = 10;
    pub const RECEIPTDATE: usize = 11;
    pub const SHIPINSTRUCT: usize = 12;
    pub const SHIPMODE: usize = 13;
}

/// Column indexes of ORDERS.
pub mod o {
    #![allow(missing_docs)] // column indexes named after TPC-H attributes
    pub const ORDERKEY: usize = 0;
    pub const CUSTKEY: usize = 1;
    pub const ORDERDATE: usize = 2;
    pub const ORDERPRIORITY: usize = 3;
    pub const TOTALPRICE: usize = 4;
}

/// Column indexes of CUSTOMER.
pub mod c {
    #![allow(missing_docs)] // column indexes named after TPC-H attributes
    pub const CUSTKEY: usize = 0;
    pub const NATIONKEY: usize = 1;
    pub const MKTSEGMENT: usize = 2;
    pub const ACCTBAL: usize = 3;
}

/// Column indexes of PART.
pub mod p {
    #![allow(missing_docs)] // column indexes named after TPC-H attributes
    pub const PARTKEY: usize = 0;
    pub const BRAND: usize = 1;
    pub const PTYPE: usize = 2;
    pub const SIZE: usize = 3;
    pub const CONTAINER: usize = 4;
    pub const RETAILPRICE: usize = 5;
}

/// Column indexes of SUPPLIER.
pub mod s {
    #![allow(missing_docs)] // column indexes named after TPC-H attributes
    pub const SUPPKEY: usize = 0;
    pub const NATIONKEY: usize = 1;
}

/// Column indexes of PARTSUPP.
pub mod ps {
    #![allow(missing_docs)] // column indexes named after TPC-H attributes
    pub const PARTKEY: usize = 0;
    pub const SUPPKEY: usize = 1;
    pub const AVAILQTY: usize = 2;
}

/// Column indexes of NATION.
pub mod n {
    #![allow(missing_docs)] // column indexes named after TPC-H attributes
    pub const NATIONKEY: usize = 0;
    pub const REGIONKEY: usize = 1;
}

impl TpchData {
    /// Generate the database at scale factor `sf` (SF 1 ≈ 6M lineitems).
    pub fn generate(sf: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_orders = ((1_500_000.0 * sf) as usize).max(10);
        let n_cust = ((150_000.0 * sf) as usize).max(5);
        let n_part = ((200_000.0 * sf) as usize).max(5);
        let n_supp = ((10_000.0 * sf) as usize).max(3);

        // NATION / SUPPLIER / CUSTOMER / PART / PARTSUPP.
        let mut nation = Table::new();
        nation.add_column("nationkey", Column::new((0..dict::NATION).collect()));
        nation.add_column(
            "regionkey",
            Column::new((0..dict::NATION).map(|k| k % dict::REGION).collect()),
        );

        let mut supplier = Table::new();
        supplier.add_column("suppkey", Column::new((0..n_supp as i64).collect()));
        supplier.add_column(
            "nationkey",
            Column::new(
                (0..n_supp)
                    .map(|_| rng.gen_range(0..dict::NATION))
                    .collect(),
            ),
        );

        let mut customer = Table::new();
        customer.add_column("custkey", Column::new((0..n_cust as i64).collect()));
        customer.add_column(
            "nationkey",
            Column::new(
                (0..n_cust)
                    .map(|_| rng.gen_range(0..dict::NATION))
                    .collect(),
            ),
        );
        customer.add_column(
            "mktsegment",
            Column::new(
                (0..n_cust)
                    .map(|_| rng.gen_range(0..dict::MKTSEGMENT))
                    .collect(),
            ),
        );
        customer.add_column(
            "acctbal",
            Column::new(
                (0..n_cust)
                    .map(|_| rng.gen_range(-99_999..1_000_000))
                    .collect(),
            ),
        );

        let mut part = Table::new();
        part.add_column("partkey", Column::new((0..n_part as i64).collect()));
        part.add_column(
            "brand",
            Column::new((0..n_part).map(|_| rng.gen_range(0..dict::BRAND)).collect()),
        );
        part.add_column(
            "ptype",
            Column::new((0..n_part).map(|_| rng.gen_range(0..dict::PTYPE)).collect()),
        );
        part.add_column(
            "size",
            Column::new((0..n_part).map(|_| rng.gen_range(1..=50)).collect()),
        );
        part.add_column(
            "container",
            Column::new(
                (0..n_part)
                    .map(|_| rng.gen_range(0..dict::CONTAINER))
                    .collect(),
            ),
        );
        part.add_column(
            "retailprice",
            Column::new(
                (0..n_part)
                    .map(|_| rng.gen_range(90_000..200_000))
                    .collect(),
            ),
        );

        let mut partsupp = Table::new();
        {
            let mut pk = Vec::new();
            let mut sk = Vec::new();
            let mut aq = Vec::new();
            for pkey in 0..n_part as i64 {
                for i in 0..4 {
                    pk.push(pkey);
                    sk.push((pkey * 4 + i) % n_supp as i64);
                    aq.push(rng.gen_range(1..10_000));
                }
            }
            partsupp.add_column("partkey", Column::new(pk));
            partsupp.add_column("suppkey", Column::new(sk));
            partsupp.add_column("availqty", Column::new(aq));
        }

        // ORDERS + LINEITEM (1–7 lines per order, avg ≈ 4).
        let date_lo = date(1992, 1, 1);
        let date_hi = date(1998, 8, 2);
        let mut ord = (
            Vec::with_capacity(n_orders),
            Vec::with_capacity(n_orders),
            Vec::with_capacity(n_orders),
            Vec::with_capacity(n_orders),
            Vec::with_capacity(n_orders),
        );
        let mut li: Vec<Vec<Val>> = (0..14).map(|_| Vec::with_capacity(n_orders * 4)).collect();
        for okey in 0..n_orders as i64 {
            let odate = rng.gen_range(date_lo..=date_hi - 151);
            let custkey = rng.gen_range(0..n_cust as i64);
            ord.0.push(okey);
            ord.1.push(custkey);
            ord.2.push(odate);
            ord.3.push(rng.gen_range(0..dict::ORDERPRIORITY));
            ord.4.push(rng.gen_range(100_000..50_000_000));
            let lines = rng.gen_range(1..=7);
            for _ in 0..lines {
                let quantity = rng.gen_range(1..=50);
                let price = rng.gen_range(90_000i64..105_000) * quantity;
                let shipdate = odate + rng.gen_range(1i64..=121);
                let commitdate = odate + rng.gen_range(30i64..=90);
                let receiptdate = shipdate + rng.gen_range(1i64..=30);
                li[l::ORDERKEY].push(okey);
                li[l::PARTKEY].push(rng.gen_range(0..n_part as i64));
                li[l::SUPPKEY].push(rng.gen_range(0..n_supp as i64));
                li[l::QUANTITY].push(quantity);
                li[l::EXTENDEDPRICE].push(price);
                li[l::DISCOUNT].push(rng.gen_range(0..=10));
                li[l::TAX].push(rng.gen_range(0..=8));
                li[l::RETURNFLAG].push(if shipdate <= date(1995, 6, 17) {
                    rng.gen_range(0..2) // A or R for "old" lines
                } else {
                    2 // N
                });
                li[l::LINESTATUS].push(if shipdate > date(1995, 6, 17) { 1 } else { 0 });
                li[l::SHIPDATE].push(shipdate);
                li[l::COMMITDATE].push(commitdate);
                li[l::RECEIPTDATE].push(receiptdate);
                li[l::SHIPINSTRUCT].push(rng.gen_range(0..dict::SHIPINSTRUCT));
                li[l::SHIPMODE].push(rng.gen_range(0..dict::SHIPMODE));
            }
        }
        let mut orders = Table::new();
        orders.add_column("orderkey", Column::new(ord.0));
        orders.add_column("custkey", Column::new(ord.1));
        orders.add_column("orderdate", Column::new(ord.2));
        orders.add_column("orderpriority", Column::new(ord.3));
        orders.add_column("totalprice", Column::new(ord.4));

        let names = [
            "orderkey",
            "partkey",
            "suppkey",
            "quantity",
            "extendedprice",
            "discount",
            "tax",
            "returnflag",
            "linestatus",
            "shipdate",
            "commitdate",
            "receiptdate",
            "shipinstruct",
            "shipmode",
        ];
        let mut lineitem = Table::new();
        for (name, col) in names.iter().zip(li) {
            lineitem.add_column(*name, Column::new(col));
        }

        TpchData {
            sf,
            lineitem,
            orders,
            customer,
            part,
            supplier,
            partsupp,
            nation,
        }
    }
}

/// Random query parameters, one method per paper query (mirroring qgen's
/// substitution ranges).
#[derive(Debug)]
pub struct TpchParams {
    rng: StdRng,
}

/// Parameters: each field matches a substitution parameter of the TPC-H
/// query template.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Generic date parameter.
    pub date: Val,
    /// Secondary date (intervals).
    pub date2: Val,
    /// Generic discrete parameter (segment, brand, mode...).
    pub k1: Val,
    /// Second discrete parameter.
    pub k2: Val,
    /// Quantity/size style numeric parameter.
    pub q: Val,
}

impl TpchParams {
    /// Deterministic parameter stream.
    pub fn new(seed: u64) -> Self {
        TpchParams {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn year(&mut self) -> Val {
        self.rng.gen_range(1993..=1997)
    }

    /// Q1: DELTA in [60, 120] days before 1998-12-01.
    pub fn q1(&mut self) -> Params {
        let delta = self.rng.gen_range(60..=120);
        Params {
            date: date(1998, 8, 2) - delta as i64,
            date2: 0,
            k1: 0,
            k2: 0,
            q: 0,
        }
    }

    /// Q3: segment + date in March 1995.
    pub fn q3(&mut self) -> Params {
        Params {
            date: date(1995, 3, self.rng.gen_range(1..=28)),
            date2: 0,
            k1: self.rng.gen_range(0..dict::MKTSEGMENT),
            k2: 0,
            q: 0,
        }
    }

    /// Q4: a random quarter.
    pub fn q4(&mut self) -> Params {
        let y = self.year();
        let m = 1 + 3 * self.rng.gen_range(0i64..4);
        let d = date(y, m, 1);
        Params {
            date: d,
            date2: d + 90,
            k1: 0,
            k2: 0,
            q: 0,
        }
    }

    /// Q6: a year, discount ± 1, quantity in [24, 25].
    pub fn q6(&mut self) -> Params {
        let y = self.year();
        Params {
            date: date(y, 1, 1),
            date2: date(y + 1, 1, 1),
            k1: self.rng.gen_range(2..=9), // discount center
            k2: 0,
            q: self.rng.gen_range(24..=25),
        }
    }

    /// Q7: two nations.
    pub fn q7(&mut self) -> Params {
        let n1 = self.rng.gen_range(0..dict::NATION);
        let mut n2 = self.rng.gen_range(0..dict::NATION);
        if n2 == n1 {
            n2 = (n2 + 1) % dict::NATION;
        }
        Params {
            date: date(1995, 1, 1),
            date2: date(1996, 12, 31),
            k1: n1,
            k2: n2,
            q: 0,
        }
    }

    /// Q8: nation + part type.
    pub fn q8(&mut self) -> Params {
        Params {
            date: date(1995, 1, 1),
            date2: date(1996, 12, 31),
            k1: self.rng.gen_range(0..dict::NATION),
            k2: self.rng.gen_range(0..dict::PTYPE),
            q: 0,
        }
    }

    /// Q10: a quarter in 1993–1994.
    pub fn q10(&mut self) -> Params {
        let y = self.rng.gen_range(1993..=1994);
        let m = 1 + 3 * self.rng.gen_range(0i64..4);
        let d = date(y, m, 1);
        Params {
            date: d,
            date2: d + 90,
            k1: 0,
            k2: 0,
            q: 0,
        }
    }

    /// Q12: two ship modes + a year of receipt dates.
    pub fn q12(&mut self) -> Params {
        let y = self.year();
        let m1 = self.rng.gen_range(0..dict::SHIPMODE);
        let mut m2 = self.rng.gen_range(0..dict::SHIPMODE);
        if m2 == m1 {
            m2 = (m2 + 1) % dict::SHIPMODE;
        }
        Params {
            date: date(y, 1, 1),
            date2: date(y + 1, 1, 1),
            k1: m1,
            k2: m2,
            q: 0,
        }
    }

    /// Q14: one month.
    pub fn q14(&mut self) -> Params {
        let y = self.year();
        let m = self.rng.gen_range(1..=12);
        let d = date(y, m, 1);
        Params {
            date: d,
            date2: d + 30,
            k1: 0,
            k2: 0,
            q: 0,
        }
    }

    /// Q15: one quarter.
    pub fn q15(&mut self) -> Params {
        let y = self.year();
        let m = 1 + 3 * self.rng.gen_range(0i64..4);
        let d = date(y, m, 1);
        Params {
            date: d,
            date2: d + 90,
            k1: 0,
            k2: 0,
            q: 0,
        }
    }

    /// Q19: brands and quantity thresholds.
    pub fn q19(&mut self) -> Params {
        Params {
            date: 0,
            date2: 0,
            k1: self.rng.gen_range(0..dict::BRAND),
            k2: self.rng.gen_range(0..dict::BRAND),
            q: self.rng.gen_range(1..=10),
        }
    }

    /// Q20: a year + a part-name prefix (a brand code here).
    pub fn q20(&mut self) -> Params {
        let y = self.year();
        Params {
            date: date(y, 1, 1),
            date2: date(y + 1, 1, 1),
            k1: self.rng.gen_range(0..dict::BRAND),
            k2: 0,
            q: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_shapes() {
        let d = TpchData::generate(0.002, 42);
        assert_eq!(d.orders.num_rows(), 3000);
        assert!(d.lineitem.num_rows() > 2 * d.orders.num_rows());
        assert_eq!(d.nation.num_rows(), 25);
        assert_eq!(d.partsupp.num_rows(), d.part.num_rows() * 4);
    }

    #[test]
    fn deterministic() {
        let a = TpchData::generate(0.001, 7);
        let b = TpchData::generate(0.001, 7);
        assert_eq!(
            a.lineitem.column(l::SHIPDATE).values(),
            b.lineitem.column(l::SHIPDATE).values()
        );
    }

    #[test]
    fn date_encoding_monotone() {
        assert!(date(1992, 1, 1) == 0);
        assert!(date(1995, 6, 17) > date(1995, 3, 1));
        assert!(date(1998, 8, 2) > date(1997, 12, 31));
    }

    #[test]
    fn lineitem_date_invariants() {
        let d = TpchData::generate(0.001, 9);
        let ship = d.lineitem.column(l::SHIPDATE).values();
        let receipt = d.lineitem.column(l::RECEIPTDATE).values();
        for i in 0..ship.len() {
            assert!(receipt[i] > ship[i], "receipt after ship");
        }
    }

    #[test]
    fn params_in_range() {
        let mut p = TpchParams::new(3);
        for _ in 0..30 {
            let q3 = p.q3();
            assert!((0..dict::MKTSEGMENT).contains(&q3.k1));
            let q6 = p.q6();
            assert!(q6.date2 - q6.date == 365);
            let q12 = p.q12();
            assert_ne!(q12.k1, q12.k2);
        }
    }

    #[test]
    fn returnflag_r_exists() {
        let d = TpchData::generate(0.001, 5);
        let rf = d.lineitem.column(l::RETURNFLAG).values();
        assert!(rf.contains(&2));
        assert!(rf.iter().any(|&v| v < 2));
    }
}
