//! Concurrent differential testing of the query service: N client
//! threads fire interleaved insert/delete/select/disjunction streams
//! through `Service<E>`, and the answers must be *identical to a serial
//! replay* of the same stream on an unsharded engine.
//!
//! The service assigns every request a global sequence number (the
//! position in its total execution order) and returns it with each
//! reply. The test therefore does not need to constrain concurrency at
//! all: each client logs `(seq, op, answer)` for every call it made,
//! the logs are merged and sorted by sequence number — which must form
//! a gapless total order — and the merged stream is replayed serially,
//! in commit order, on a fresh unsharded engine. Every select's rows
//! and aggregates must match bit for bit (projections up to row order,
//! which is unordered by contract), and every insert's service-assigned
//! global key must equal the key the serial engine hands out. That is
//! the linearizability contract of the service, checked end to end for
//! all five engines and shard counts 1/2/7.
//!
//! Clients only delete rows they own (their own service-assigned insert
//! keys, plus a disjoint slice of the original rows), so every delete
//! in the interleaved stream names a live row no matter how the
//! schedules interleave.

use crackdb_columnstore::types::{AggFunc, RangePred, RowId, Val};
use crackdb_engine::{
    Client, Engine, JoinQuery, JoinSide, Joined, PartialEngine, PlainEngine, PresortedEngine,
    QueryOutput, SelCrackEngine, SelectQuery, Service, ShardedEngine, SidewaysEngine,
};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};
use crackdb_workloads::random_table;

const DOMAIN: (Val, Val) = (0, 1000);
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
/// The acceptance bar: eight concurrent closed-loop clients.
const CLIENTS: usize = 8;
const OPS_PER_CLIENT: usize = 28;

/// One committed operation as a client observed it: what was asked and
/// what the service answered, tagged with the global sequence number.
enum LoggedOp {
    Insert { row: Vec<Val>, key: RowId },
    Delete { key: RowId },
    Select { q: SelectQuery, out: QueryOutput },
}

/// A random non-empty subset of the five functions on `attr`: every fold
/// shape, the count alone included.
fn random_funcs(rng: &mut StdRng, attr: usize) -> Vec<(usize, AggFunc)> {
    let funcs: u32 = rng.gen_range(1..32);
    let aggs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    aggs.iter()
        .enumerate()
        .filter(|&(i, _)| funcs >> i & 1 == 1)
        .map(|(_, &f)| (attr, f))
        .collect()
}

/// A random select: conjunctive aggregates (a random subset of the five
/// functions), disjunctions and projections in a deterministic mix.
fn random_select(rng: &mut StdRng, cols: usize, i: usize) -> SelectQuery {
    let attr = rng.gen_range(0..cols);
    let lo = rng.gen_range(0..DOMAIN.1 - 2);
    let hi = lo + 1 + rng.gen_range(1..=DOMAIN.1 - lo);
    let agg = rng.gen_range(0..cols);
    let mut q = SelectQuery::aggregate(
        vec![(attr, RangePred::open(lo, hi))],
        random_funcs(rng, agg),
    );
    if i.is_multiple_of(3) {
        // Disjunction over a second attribute.
        let attr2 = (attr + 1) % cols;
        let lo2 = rng.gen_range(0..DOMAIN.1 - 2);
        q.preds.push((attr2, RangePred::open(lo2, lo2 + 150)));
        q.disjunctive = true;
    }
    if i % 4 == 1 {
        q.projs = vec![rng.gen_range(0..cols)];
    }
    q
}

/// One closed-loop client session: interleaved inserts, deletes of rows
/// this session owns, and selects. Returns the session's log.
fn client_session(
    client: &Client,
    c: usize,
    base_rows: usize,
    cols: usize,
    seed: u64,
) -> Vec<(u64, LoggedOp)> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xC11E * c as u64 + 1));
    let mut log = Vec::with_capacity(OPS_PER_CLIENT);
    // Rows this session may delete: its own inserts (keys the service
    // assigned and returned) and its disjoint slice of the base rows.
    let mut own_keys: Vec<RowId> = Vec::new();
    let mut base_cursor = c;
    for i in 0..OPS_PER_CLIENT {
        match i % 4 {
            0 => {
                let row: Vec<Val> = (0..cols).map(|_| rng.gen_range(1..=DOMAIN.1)).collect();
                let w = client.insert(&row).expect("insert admitted");
                let key = w.key.expect("inserts report their key");
                own_keys.push(key);
                log.push((w.seq, LoggedOp::Insert { row, key }));
            }
            1 => {
                // Delete an owned row: a previous own insert if any,
                // else the next base row of this session's slice.
                let key = if !own_keys.is_empty() && rng.gen_bool(0.5) {
                    let at = rng.gen_range(0..own_keys.len());
                    own_keys.swap_remove(at)
                } else if base_cursor < base_rows {
                    let key = base_cursor as RowId;
                    base_cursor += CLIENTS;
                    key
                } else {
                    continue;
                };
                let w = client.delete(key).expect("delete admitted");
                log.push((w.seq, LoggedOp::Delete { key }));
            }
            _ => {
                let q = random_select(&mut rng, cols, i);
                let r = client.select(&q).expect("select admitted");
                log.push((r.seq, LoggedOp::Select { q, out: r.output }));
            }
        }
    }
    log
}

/// Sorted-compare two projection column sets (row order is unordered by
/// contract; the service concatenates in shard order).
fn assert_projs_match(got: &[Vec<Val>], want: &[Vec<Val>], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: projection arity");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        let mut g = g.clone();
        let mut w = w.clone();
        g.sort_unstable();
        w.sort_unstable();
        assert_eq!(g, w, "{ctx}: projection {j} (sorted)");
    }
}

/// Drive `CLIENTS` concurrent sessions through a service over
/// `make_sharded(shards)` for every shard count, then replay each
/// committed order serially on `make_serial()` and compare bit for bit.
fn check_service<E: Engine + Send + 'static>(
    name: &str,
    base_rows: usize,
    cols: usize,
    seed: u64,
    make_sharded: &dyn Fn(usize) -> ShardedEngine<E>,
    make_serial: &dyn Fn() -> E,
) {
    for shards in SHARD_COUNTS {
        let svc = Service::start(make_sharded(shards)).expect("service starts");
        let mut merged: Vec<(u64, LoggedOp)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let client = svc.client();
                    s.spawn(move || client_session(&client, c, base_rows, cols, seed))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client session completes"))
                .collect()
        });
        svc.shutdown();

        // The committed sequence numbers form a gapless total order.
        merged.sort_by_key(|(seq, _)| *seq);
        for (i, (seq, _)) in merged.iter().enumerate() {
            assert_eq!(
                *seq, i as u64,
                "{name}, {shards} shards: sequence numbers are a gapless total order"
            );
        }

        // Serial replay in commit order on an unsharded engine.
        let mut serial = make_serial();
        let mut inserts = 0usize;
        for (seq, op) in &merged {
            let ctx = format!("{name}, {shards} shards, seq {seq}");
            match op {
                LoggedOp::Insert { row, key } => {
                    assert_eq!(
                        *key as usize,
                        base_rows + inserts,
                        "{ctx}: the service-assigned key matches the serial key space"
                    );
                    inserts += 1;
                    serial.insert(row);
                }
                LoggedOp::Delete { key } => serial.delete(*key),
                LoggedOp::Select { q, out } => {
                    let want = serial.select(q);
                    assert_eq!(out.rows, want.rows, "{ctx}: rows");
                    assert_eq!(out.aggs, want.aggs, "{ctx}: aggregates");
                    assert_projs_match(&out.proj_values, &want.proj_values, &ctx);
                }
            }
        }
    }
}

#[test]
fn concurrent_plain_matches_serial_replay() {
    let t = random_table(3, 307, DOMAIN.1, 201);
    check_service(
        "plain",
        307,
        3,
        211,
        &|s| ShardedEngine::build(t.clone(), s, |_, part| PlainEngine::new(part)),
        &|| PlainEngine::new(t.clone()),
    );
}

#[test]
fn concurrent_presorted_matches_serial_replay() {
    let t = random_table(3, 293, DOMAIN.1, 202);
    check_service(
        "presorted",
        293,
        3,
        223,
        &|s| {
            ShardedEngine::build(t.clone(), s, |_, part| {
                PresortedEngine::new(part, &[0, 1, 2])
            })
        },
        &|| PresortedEngine::new(t.clone(), &[0, 1, 2]),
    );
}

#[test]
fn concurrent_selcrack_matches_serial_replay() {
    let t = random_table(3, 311, DOMAIN.1, 203);
    check_service(
        "selcrack",
        311,
        3,
        227,
        &|s| ShardedEngine::build(t.clone(), s, |_, part| SelCrackEngine::new(part, DOMAIN)),
        &|| SelCrackEngine::new(t.clone(), DOMAIN),
    );
}

#[test]
fn concurrent_sideways_matches_serial_replay() {
    let t = random_table(3, 299, DOMAIN.1, 204);
    check_service(
        "sideways",
        299,
        3,
        229,
        &|s| ShardedEngine::build(t.clone(), s, |_, part| SidewaysEngine::new(part, DOMAIN)),
        &|| SidewaysEngine::new(t.clone(), DOMAIN),
    );
}

#[test]
fn concurrent_partial_matches_serial_replay() {
    let t = random_table(3, 303, DOMAIN.1, 205);
    check_service(
        "partial",
        303,
        3,
        233,
        &|s| {
            ShardedEngine::build(t.clone(), s, |_, part| {
                PartialEngine::new(part, DOMAIN, None)
            })
        },
        &|| PartialEngine::new(t.clone(), DOMAIN, None),
    );
}

/// A read-heavy concurrent mix over warmed (converged)
/// selection-cracking shards: a warm-up sweep from one client, then
/// eight clients at ~90% selects. The bar is the same as everywhere —
/// gapless committed order, bit-for-bit serial replay.
#[test]
fn read_heavy_selcrack_matches_serial_replay() {
    const ROWS: usize = 4096;
    const COLS: usize = 3;
    const STRESS_OPS: usize = 40;
    let t = random_table(COLS, ROWS, DOMAIN.1, 209);
    for shards in SHARD_COUNTS {
        let engine = ShardedEngine::build(t.clone(), shards, |_, part| {
            SelCrackEngine::new(part, DOMAIN)
        });
        let svc = Service::start(engine).expect("service starts");

        // Warm-up from one client: two sweeps crack every shard's column
        // into converged pieces, and the second sweep's reads reorganize
        // nothing — these are sequenced operations like any other, so
        // they join the log.
        let mut merged: Vec<(u64, LoggedOp)> = Vec::new();
        let warm = svc.client();
        for _ in 0..2 {
            for lo in (0..DOMAIN.1 - 8).step_by(8) {
                let q = SelectQuery::aggregate(
                    vec![(0, RangePred::open(lo, lo + 6))],
                    vec![(1, AggFunc::Count), (1, AggFunc::Sum)],
                );
                let r = warm.select(&q).expect("warmup select");
                merged.push((r.seq, LoggedOp::Select { q, out: r.output }));
            }
        }

        // Read-heavy concurrent phase: ~90% selects, 10% writes.
        merged.extend(std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let client = svc.client();
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0x5AFE ^ (97 * c as u64 + 3));
                        let mut log = Vec::with_capacity(STRESS_OPS);
                        let mut own_keys: Vec<RowId> = Vec::new();
                        for i in 0..STRESS_OPS {
                            if i % 10 == 0 {
                                let row: Vec<Val> =
                                    (0..COLS).map(|_| rng.gen_range(1..=DOMAIN.1)).collect();
                                let w = client.insert(&row).expect("insert admitted");
                                own_keys.push(w.key.expect("inserts report their key"));
                                log.push((
                                    w.seq,
                                    LoggedOp::Insert {
                                        row,
                                        key: *own_keys.last().unwrap(),
                                    },
                                ));
                            } else if i % 10 == 5 && !own_keys.is_empty() {
                                let key = own_keys.swap_remove(rng.gen_range(0..own_keys.len()));
                                let w = client.delete(key).expect("delete admitted");
                                log.push((w.seq, LoggedOp::Delete { key }));
                            } else {
                                let q = random_select(&mut rng, COLS, i);
                                let r = client.select(&q).expect("select admitted");
                                log.push((r.seq, LoggedOp::Select { q, out: r.output }));
                            }
                        }
                        log
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client session completes"))
                .collect::<Vec<_>>()
        }));

        svc.shutdown();

        merged.sort_by_key(|(seq, _)| *seq);
        for (i, (seq, _)) in merged.iter().enumerate() {
            assert_eq!(
                *seq, i as u64,
                "{shards} shards: sequence numbers are a gapless total order"
            );
        }
        let mut serial = SelCrackEngine::new(t.clone(), DOMAIN);
        let mut inserts = 0usize;
        for (seq, op) in &merged {
            let ctx = format!("read-heavy, {shards} shards, seq {seq}");
            match op {
                LoggedOp::Insert { row, key } => {
                    assert_eq!(*key as usize, ROWS + inserts, "{ctx}: assigned key");
                    inserts += 1;
                    serial.insert(row);
                }
                LoggedOp::Delete { key } => serial.delete(*key),
                LoggedOp::Select { q, out } => {
                    let want = serial.select(q);
                    assert_eq!(out.rows, want.rows, "{ctx}: rows");
                    assert_eq!(out.aggs, want.aggs, "{ctx}: aggregates");
                    assert_projs_match(&out.proj_values, &want.proj_values, &ctx);
                }
            }
        }
    }
}

/// §4 storage pressure through the service: budgeted partial maps must
/// serve concurrent clients like everything else (each shard owns its
/// own budgeted chunk store).
#[test]
fn concurrent_partial_with_budget_matches_serial_replay() {
    let t = random_table(3, 289, DOMAIN.1, 206);
    check_service(
        "partial+budget",
        289,
        3,
        239,
        &|s| {
            ShardedEngine::build(t.clone(), s, |_, part| {
                PartialEngine::new(part, DOMAIN, Some(250))
            })
        },
        &|| PartialEngine::new(t.clone(), DOMAIN, Some(250)),
    );
}

/// Joins through client handles: concurrent join clients against a
/// two-table service must match the unsharded engine's answers for all
/// five engines.
#[test]
fn concurrent_joins_match_unsharded() {
    let left = random_table(4, 242, DOMAIN.1, 207);
    let right = random_table(4, 166, DOMAIN.1, 208);
    let queries: Vec<JoinQuery> = {
        let mut rng = StdRng::seed_from_u64(241);
        (0..8)
            .map(|_| {
                let llo = rng.gen_range(0..700);
                let rlo = rng.gen_range(0..700);
                JoinQuery {
                    left: JoinSide {
                        preds: vec![(1, RangePred::open(llo, llo + 300))],
                        join_attr: 3,
                        aggs: random_funcs(&mut rng, 0),
                    },
                    right: JoinSide {
                        preds: vec![(1, RangePred::open(rlo, rlo + 300))],
                        join_attr: 3,
                        aggs: random_funcs(&mut rng, 2),
                    },
                }
            })
            .collect()
    };

    fn check<E: Engine + Send + 'static>(
        name: &str,
        queries: &[JoinQuery],
        mut unsharded: E,
        sharded: ShardedEngine<E>,
    ) {
        let expected: Vec<QueryOutput> = queries.iter().map(|q| unsharded.join(q)).collect();
        let svc = Service::start(sharded).expect("service starts");
        std::thread::scope(|s| {
            for chunk in queries.chunks(2).zip(expected.chunks(2)) {
                let client = svc.client();
                s.spawn(move || {
                    for (q, e) in chunk.0.iter().zip(chunk.1) {
                        let r = client.join(q).expect("join admitted");
                        assert_eq!(r.output.rows, e.rows, "{name}: join rows");
                        assert_eq!(r.output.aggs, e.aggs, "{name}: join aggregates");
                    }
                });
            }
        });
        svc.shutdown();
    }

    // The left table is sharded; every shard joins its part with the
    // whole right table.
    check(
        "plain",
        &queries,
        Joined::new(
            PlainEngine::new(left.clone()),
            PlainEngine::new(right.clone()),
        ),
        ShardedEngine::build(left.clone(), 3, |_, part| {
            Joined::new(PlainEngine::new(part), PlainEngine::new(right.clone()))
        }),
    );
    check(
        "presorted",
        &queries,
        Joined::new(
            PresortedEngine::new(left.clone(), &[1]),
            PresortedEngine::new(right.clone(), &[1]),
        ),
        ShardedEngine::build(left.clone(), 3, |_, part| {
            Joined::new(
                PresortedEngine::new(part, &[1]),
                PresortedEngine::new(right.clone(), &[1]),
            )
        }),
    );
    check(
        "selcrack",
        &queries,
        Joined::new(
            SelCrackEngine::new(left.clone(), DOMAIN),
            SelCrackEngine::new(right.clone(), DOMAIN),
        ),
        ShardedEngine::build(left.clone(), 3, |_, part| {
            Joined::new(
                SelCrackEngine::new(part, DOMAIN),
                SelCrackEngine::new(right.clone(), DOMAIN),
            )
        }),
    );
    check(
        "sideways",
        &queries,
        Joined::new(
            SidewaysEngine::new(left.clone(), DOMAIN),
            SidewaysEngine::new(right.clone(), DOMAIN),
        ),
        ShardedEngine::build(left.clone(), 3, |_, part| {
            Joined::new(
                SidewaysEngine::new(part, DOMAIN),
                SidewaysEngine::new(right.clone(), DOMAIN),
            )
        }),
    );
    check(
        "partial",
        &queries,
        Joined::new(
            PartialEngine::new(left.clone(), DOMAIN, None),
            PartialEngine::new(right.clone(), DOMAIN, None),
        ),
        ShardedEngine::build(left.clone(), 3, |_, part| {
            Joined::new(
                PartialEngine::new(part, DOMAIN, None),
                PartialEngine::new(right.clone(), DOMAIN, None),
            )
        }),
    );
}
