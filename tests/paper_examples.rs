//! The paper's three worked examples, executed step by step:
//! Figure 1 (simple selection cracking of a map), Figure 2 (adaptive
//! alignment across multi-projection queries), Figure 3 (bit-vector
//! evaluation of a conjunctive multi-selection query).

use crackdb::columnstore::{Column, RangePred, Table, Val};
use crackdb::core::MapSet;
use std::collections::HashSet;

fn sorted(mut v: Vec<Val>) -> Vec<Val> {
    v.sort_unstable();
    v
}

/// Figure 1: R(A, B), two successive range selections on A; the second
/// only refines the outer pieces.
#[test]
fn figure1_trace() {
    let mut t = Table::new();
    t.add_column(
        "A",
        Column::new(vec![12, 3, 5, 9, 15, 22, 7, 26, 4, 2, 24, 11, 16]),
    );
    // B values b1..b13 encoded as 1..13.
    t.add_column("B", Column::new((1..=13).collect()));
    let mut s = MapSet::new(0, t.num_rows(), HashSet::new());

    // select B from R where 10 < A < 15 → {b1, b12}.
    let r = s.sideways_select(&t, 1, &RangePred::open(10, 15));
    assert_eq!(sorted(s.view_tail(1, r).to_vec()), vec![1, 12]);
    // The map is now cracked into three pieces.
    assert_eq!(s.map(1).unwrap().arr.index().len(), 2);

    // select B from R where 5 <= A < 17 → {b3,b4,b7,b1,b12,b5,b13}.
    let r = s.sideways_select(&t, 1, &RangePred::half_open(5, 17));
    assert_eq!(
        sorted(s.view_tail(1, r).to_vec()),
        vec![1, 3, 4, 5, 7, 12, 13]
    );
    // Two more boundaries (5 and 17); the middle piece was reused as is.
    assert_eq!(s.map(1).unwrap().arr.index().len(), 4);
}

/// Figure 2: three queries over R(A,B,C); with adaptive alignment the
/// third query's B and C results are positionally aligned.
#[test]
fn figure2_trace() {
    let mut t = Table::new();
    t.add_column("A", Column::new(vec![7, 4, 1, 2, 8, 3, 6]));
    // b1..b7 ≡ 1..7, c1..c7 ≡ 101..107.
    t.add_column("B", Column::new((1..=7).collect()));
    t.add_column("C", Column::new((101..=107).collect()));
    let mut s = MapSet::new(0, 7, HashSet::new());
    let lt = |v| RangePred::less(crackdb::columnstore::Bound::exclusive(v));

    // Q1: select B where A < 3 → {b3, b4}.
    let r = s.sideways_select(&t, 1, &lt(3));
    assert_eq!(sorted(s.view_tail(1, r).to_vec()), vec![3, 4]);

    // Q2: select C where A < 5 → {c2, c3, c4, c6}.
    let r = s.sideways_select(&t, 2, &lt(5));
    assert_eq!(sorted(s.view_tail(2, r).to_vec()), vec![102, 103, 104, 106]);

    // Q3: select B, C where A < 4 → {(b3,c3),(b4,c4),(b6,c6)} — and the
    // two result views must be positionally aligned (same tuple at the
    // same offset), which is exactly what Figure 2's "with alignment"
    // panel demonstrates.
    let rb = s.sideways_select(&t, 1, &lt(4));
    let rc = s.sideways_select(&t, 2, &lt(4));
    assert_eq!(rb, rc);
    let b = s.view_tail(1, rb).to_vec();
    let c = s.view_tail(2, rc).to_vec();
    assert_eq!(sorted(b.clone()), vec![3, 4, 6]);
    for (bv, cv) in b.iter().zip(&c) {
        assert_eq!(bv + 100, *cv, "b{bv} must pair with c{bv}");
    }
}

/// Figure 3: conjunctive multi-selection evaluated with aligned maps and
/// a bit vector: select D from R where 3<A<10 and 4<B<8 and 1<C<7.
#[test]
fn figure3_trace() {
    let mut t = Table::new();
    t.add_column("A", Column::new(vec![12, 3, 5, 9, 8, 22, 7, 26, 4, 2, 7]));
    t.add_column("B", Column::new(vec![9, 2, 6, 10, 7, 11, 16, 2, 5, 8, 3]));
    t.add_column("C", Column::new(vec![3, 6, 2, 1, 6, 9, 12, 2, 11, 17, 3]));
    t.add_column("D", Column::new(vec![9, 4, 2, 10, 12, 19, 3, 6, 5, 8, 1]));
    let mut s = MapSet::new(0, t.num_rows(), HashSet::new());

    let a_pred = RangePred::open(3, 10);
    let b_pred = RangePred::open(4, 8);
    let c_pred = RangePred::open(1, 7);

    // sideways.select of M_AB, M_AC and M_AD, then select_create_bv over
    // M_AB, refine over M_AC and reconstruct M_AD, all in that one area.
    let area = s.select_maps(&t, &[1, 2, 3], &a_pred);
    let mut bv = s.create_bv(1, area, &b_pred);
    s.refine_bv(2, area, &c_pred, &mut bv);
    let mut result = Vec::new();
    s.view_block(3, area, Some(&bv)).append_to(&mut result);

    // Naive check: rows with 3<A<10, 4<B<8, 1<C<7.
    let expected: Vec<Val> = (0..t.num_rows() as u32)
        .filter(|&i| {
            a_pred.matches(t.column(0).get(i))
                && b_pred.matches(t.column(1).get(i))
                && c_pred.matches(t.column(2).get(i))
        })
        .map(|i| t.column(3).get(i))
        .collect();
    assert_eq!(sorted(result), sorted(expected.clone()));
    // The paper's example yields exactly two qualifying tuples.
    assert_eq!(expected.len(), 2);
}
