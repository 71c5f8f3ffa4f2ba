//! The system under test. Every call into crackdb is in this file: the
//! workload generators, the engines and the service, the oracle, and
//! the probes that replay an op stream at one public layer boundary.
//! The rest of the benchmark sees ops, records and counters only.

use crackdb_columnstore::ops::{reconstruct::reconstruct, select::count};
use crackdb_columnstore::types::{AggFunc, RangePred};
use crackdb_core::{PartialStore, SidewaysStore};
use crackdb_cracking::crack::{crack_in_three, crack_in_two};
use crackdb_cracking::index::pred_keys;
use crackdb_cracking::{BoundaryKey, CrackerColumn};
use crackdb_engine::{
    Client, Engine, PartialEngine, PlainEngine, QueryOutput, SelCrackEngine, SelectQuery, Service,
    ServiceError, ShardedEngine, SidewaysEngine,
};
use crackdb_workloads::{random_table, IdeBench, QiGen, RangeGen};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::ops::Bound::{Excluded, Unbounded};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub use crackdb_columnstore::column::Table;
pub use crackdb_columnstore::types::{RowId, Val};
pub use crackdb_core::PartialStats;

pub type Query = SelectQuery;

/// One request as a caller issues it. An interactive step may be
/// several queries answered together (a binned histogram); its latency
/// is the time until the last one is answered.
#[derive(Debug, Clone)]
pub enum Op {
    Read(Vec<Query>),
    Insert(Vec<Val>),
    Delete(RowId),
}

/// The ops one fresh engine (or service) serves in its lifetime.
pub struct Unit {
    /// Served before timing starts. Reads only.
    pub warmup: Vec<Op>,
    /// The timed stream of the one closed-loop caller; the id of an op
    /// is its position here.
    pub ops: Vec<Op>,
    /// Indices of the first op after a `Qi` type switch.
    pub switches: Vec<usize>,
}

impl Unit {
    fn timed(&self) -> impl Iterator<Item = (u32, &Op)> {
        self.ops.iter().enumerate().map(|(i, op)| (i as u32, op))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Sideways,
    PartialSpill,
    SelCrack,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// §4.2 `Qi` select-project batches.
    Qi,
    /// IDEBench-style sessions, one fresh engine each.
    Ide,
    /// Hot-skew reads with inserts and deletes, through the service.
    SvcMixed,
}

/// Frozen sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    pub engine: EngineKind,
    pub rows: usize,
    pub attrs: usize,
    /// Timed ops per unit (`Ide`: the `mixed` scale).
    pub ops: usize,
    /// Untimed warm-up queries.
    pub warmup: usize,
    /// 0 = the engine is called directly, not through the service.
    pub shards: usize,
    /// Answers compared with the oracle in each of a run's first
    /// rounds: what a scan of this table per answer leaves affordable.
    pub checks: usize,
    /// An op answered later than this misses its budget.
    pub budget_us: u64,
}

impl Spec {
    pub fn domain(&self) -> Val {
        self.rows as Val
    }

    fn spill_budget(&self) -> usize {
        2 * self.rows
    }
}

/// `Qi` batch length: the type changes every this many queries.
pub const QI_BATCH: usize = 50;
const QI_TYPES: usize = 5;

pub fn attrs_for_qi() -> usize {
    QiGen::attrs_needed(QI_TYPES)
}

pub fn gen_table(spec: &Spec, seed: u64) -> Table {
    random_table(spec.attrs, spec.rows, spec.domain(), seed)
}

pub fn base_values_of(spec: &Spec) -> u64 {
    (spec.rows * spec.attrs) as u64
}

/// The units of one round. The same `(spec, seed)` gives the same ops.
pub fn gen_units(spec: &Spec, seed: u64) -> Vec<Unit> {
    match spec.shape {
        Shape::Qi => vec![qi_unit(spec, seed)],
        Shape::Ide => ide_units(spec, seed),
        Shape::SvcMixed => vec![svc_mixed_unit(spec, seed)],
    }
}

fn qi_unit(spec: &Spec, seed: u64) -> Unit {
    // S = N/1000, the selective uniform case of Fig. 10(a).
    let mut gen = QiGen::new(
        spec.domain(),
        spec.rows,
        (spec.rows / 1000).max(1),
        QI_TYPES,
        seed,
    );
    let ops = (0..spec.ops)
        .map(|i| {
            let q = gen.query((i / QI_BATCH) % QI_TYPES);
            Op::Read(vec![Query::project(vec![(0, q.a_pred), q.b], vec![q.c])])
        })
        .collect();
    Unit {
        warmup: Vec::new(),
        ops,
        switches: (QI_BATCH..spec.ops).step_by(QI_BATCH).collect(),
    }
}

fn count_on_a(pred: RangePred) -> Query {
    Query::aggregate(vec![(0, pred)], vec![(0, AggFunc::Count)])
}

fn ide_units(spec: &Spec, seed: u64) -> Vec<Unit> {
    IdeBench::new(spec.domain(), seed)
        .mixed(spec.ops)
        .into_iter()
        .map(|session| Unit {
            warmup: Vec::new(),
            ops: session
                .ops
                .into_iter()
                .map(|op| Op::Read(op.preds.into_iter().map(count_on_a).collect()))
                .collect(),
            switches: Vec::new(),
        })
        .collect()
}

/// The §3.6 query shape `service_bench` serves: a selective range on the
/// cracked attribute, a 50% residual range, three aggregates.
fn svc_query(sel: RangePred, res: RangePred) -> Query {
    Query::aggregate(
        vec![(0, sel), (1, res)],
        vec![(2, AggFunc::Max), (3, AggFunc::Sum), (3, AggFunc::Count)],
    )
}

const SVC_SELECTIVITY: f64 = 0.002;

/// The `j`-th base key a stream deletes: a stride that is prime to
/// every table size used here, so no key repeats.
fn delete_key(spec: &Spec, j: usize) -> RowId {
    ((j * 7_919 + 13) % spec.rows) as RowId
}

fn svc_mixed_unit(spec: &Spec, seed: u64) -> Unit {
    let domain = spec.domain();
    let hot = |g: &mut RangeGen| g.next_skewed(0.9, 0.2);
    let mut wsel = RangeGen::with_selectivity(domain, SVC_SELECTIVITY, seed);
    let mut wres = RangeGen::with_selectivity(domain, 0.5, seed + 1);
    let warmup = (0..spec.warmup)
        .map(|_| Op::Read(vec![svc_query(hot(&mut wsel), wres.next())]))
        .collect();
    let s = seed + 100;
    let mut sel = RangeGen::with_selectivity(domain, SVC_SELECTIVITY, s);
    let mut res = RangeGen::with_selectivity(domain, 0.5, s + 1);
    let mut dice = RangeGen::with_width(domain, 0, s + 2);
    let mut deletes = 0;
    let ops = (0..spec.ops)
        .map(|_| match dice.index(100) {
            0..=89 => Op::Read(vec![svc_query(hot(&mut sel), res.next())]),
            90..=94 => Op::Insert((0..spec.attrs).map(|_| dice.value()).collect()),
            _ => {
                deletes += 1;
                Op::Delete(delete_key(spec, deletes - 1))
            }
        })
        .collect();
    Unit {
        warmup,
        ops,
        switches: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------

/// What an op answered, in a form that does not depend on the order
/// an engine returns projected values in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Digest {
    rows: u64,
    aggs: Vec<Option<Val>>,
    proj_sum: i64,
    proj_xor: i64,
}

impl Digest {
    fn absorb(&mut self, out: &QueryOutput) {
        self.rows += out.rows as u64;
        self.aggs.extend_from_slice(&out.aggs);
        for &v in out.proj_values.iter().flatten() {
            self.proj_sum = self.proj_sum.wrapping_add(v);
            self.proj_xor ^= v;
        }
    }

    fn of(outs: &[QueryOutput]) -> Self {
        let mut d = Digest::default();
        outs.iter().for_each(|o| d.absorb(o));
        d
    }
}

/// One served op: the span the benchmark recorded around the call, and
/// what came back.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    pub id: u32,
    /// Since the run's epoch.
    pub start_ns: u64,
    pub ns: u64,
    /// Position in the engine's execution order.
    pub seq: u64,
    pub failed: bool,
    pub is_read: bool,
    pub rows: u64,
    /// Sums of the public `timings` of the op's queries.
    pub select_ns: u64,
    pub reconstruct_ns: u64,
    pub digest: Option<Digest>,
}

/// Replay the unit's writes in execution order into a plain scan engine
/// and compare every kept answer. Returns `(checked, mismatched)`.
pub fn oracle_check(table: Table, unit: &Unit, recs: &[OpRecord]) -> (u64, u64) {
    let mut order: Vec<&OpRecord> = recs.iter().filter(|r| !r.failed).collect();
    order.sort_by_key(|r| r.seq);
    let mut oracle = PlainEngine::new(table);
    let (mut checked, mut wrong) = (0, 0);
    for rec in order {
        match &unit.ops[rec.id as usize] {
            Op::Insert(row) => oracle.insert(row),
            Op::Delete(key) => oracle.delete(*key),
            Op::Read(queries) => {
                let Some(got) = &rec.digest else { continue };
                let mut want = Digest::default();
                for q in queries {
                    want.absorb(&oracle.select(q));
                }
                checked += 1;
                if *got != want {
                    wrong += 1;
                    if wrong <= 3 {
                        eprintln!(
                            "answer mismatch on op {}: got {got:?}, want {want:?}",
                            rec.id
                        );
                    }
                }
            }
        }
    }
    (checked, wrong)
}

// ---------------------------------------------------------------------
// Layers
// ---------------------------------------------------------------------

/// The public boundaries an op stream can be replayed at, inside out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `cracking::crack` kernels on a bare array of attribute A, driven
    /// by the paper's standard crack rule.
    Kernel,
    /// `cracking::CrackerColumn` on attribute A alone.
    Column,
    /// `core::SidewaysStore` / `core::PartialStore`.
    Store,
    /// `Engine::try_select` on one unsharded engine.
    Engine,
    /// `ShardedEngine` called directly.
    Shard,
    /// `Client` calls into a `Service` over the sharded engine.
    Client,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Kernel => "cracking.kernel",
            Layer::Column => "cracking.column",
            Layer::Store => "core.set",
            Layer::Engine => "engine.exec",
            Layer::Shard => "engine.shard",
            Layer::Client => "engine.service.hop",
        }
    }
}

/// The layers a workload passes through, inside out; the last one is
/// the workload as its callers see it.
pub fn chain(spec: &Spec) -> Vec<Layer> {
    let mut c = vec![Layer::Kernel, Layer::Column];
    if spec.engine != EngineKind::SelCrack {
        c.push(Layer::Store);
    }
    c.push(Layer::Engine);
    if spec.shards > 0 {
        c.extend([Layer::Shard, Layer::Client]);
    }
    c
}

/// Counters read off a layer's state after a unit was replayed on it.
#[derive(Debug, Clone, Default)]
pub struct EndState {
    pub aux_tuples: u64,
    pub policy_switches: u64,
    pub overloaded: u64,
    pub kernel_touched: u64,
    pub index_boundaries: u64,
    pub index_advisory: u64,
    pub index_lookup_ns: f64,
    pub partial: Option<PartialStats>,
    pub usage_peak_tuples: u64,
    pub spill_bytes: u64,
}

pub struct UnitRun {
    /// Engine or service build plus warm-up.
    pub setup_ns: u64,
    /// Latency of the first op the fresh engine served.
    pub first_ns: u64,
    pub recs: Vec<OpRecord>,
    pub end: EndState,
}

#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    /// Spill files go under here; inside the checkout.
    pub spill_dir: &'a Path,
    pub epoch: Instant,
    /// Keep the answer digest of every this-many-th op (0 = none).
    pub keep_stride: u32,
    /// Sample state between ops (resident tuples); traced replays only.
    pub probe: bool,
}

trait Target {
    /// Serve one op; query outputs, if the layer produces any, go to
    /// `outs`. Returns the op's position in the execution order.
    fn exec(&mut self, op: &Op, outs: &mut Vec<QueryOutput>) -> Result<u64, String>;

    fn resident_tuples(&self) -> u64 {
        0
    }
}

fn serve<'a, T: Target>(
    target: &mut T,
    ops: impl IntoIterator<Item = (u32, &'a Op)>,
    ctx: &Ctx,
    recs: &mut Vec<OpRecord>,
    peak: &mut u64,
) {
    let mut outs = Vec::new();
    let mut reported = 0;
    for (id, op) in ops {
        outs.clear();
        let t0 = Instant::now();
        let res = target.exec(op, &mut outs);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut rec = OpRecord {
            id,
            start_ns: t0.duration_since(ctx.epoch).as_nanos() as u64,
            ns,
            is_read: matches!(op, Op::Read(_)),
            ..OpRecord::default()
        };
        match res {
            Ok(seq) => rec.seq = seq,
            Err(e) => {
                rec.failed = true;
                reported += 1;
                if reported <= 3 {
                    eprintln!("op {id} failed: {e}");
                }
            }
        }
        for o in &outs {
            rec.rows += o.rows as u64;
            rec.select_ns += o.timings.select.as_nanos() as u64;
            rec.reconstruct_ns += o.timings.reconstruct.as_nanos() as u64;
        }
        if rec.is_read && !rec.failed && ctx.keep_stride > 0 && id % ctx.keep_stride == 0 {
            rec.digest = Some(Digest::of(&outs));
        }
        if ctx.probe {
            *peak = (*peak).max(target.resident_tuples());
        }
        recs.push(rec);
    }
}

/// Build the target, serve the warm-up, then the timed stream.
fn replay_serial<T: Target>(
    build: impl FnOnce() -> T,
    unit: &Unit,
    ctx: &Ctx,
    finish: impl FnOnce(T, &mut EndState),
) -> UnitRun {
    let t0 = Instant::now();
    let mut target = build();
    let mut warm = Vec::new();
    let mut end = EndState::default();
    let no_digests = Ctx {
        keep_stride: 0,
        ..*ctx
    };
    serve(
        &mut target,
        unit.warmup.iter().map(|op| (0, op)),
        &no_digests,
        &mut warm,
        &mut end.usage_peak_tuples,
    );
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let mut recs = Vec::with_capacity(unit.ops.len());
    serve(
        &mut target,
        unit.timed(),
        ctx,
        &mut recs,
        &mut end.usage_peak_tuples,
    );
    let first_ns = warm.first().or(recs.first()).map_or(0, |r| r.ns);
    finish(target, &mut end);
    UnitRun {
        setup_ns,
        first_ns,
        recs,
        end,
    }
}

// -- cracking::crack ---------------------------------------------------

/// The paper's crack rule (crack-in-three when both bounds fall in one
/// piece, else crack-in-two per missing bound) on a bare copy of
/// attribute A, with a sorted map for an index. What the kernels alone
/// cost for this op stream; the column above adds the AVL index, the
/// policy, the radix prepartition and the update queues.
struct KernelProbe {
    head: Vec<Val>,
    tail: Vec<RowId>,
    bounds: BTreeMap<BoundaryKey, usize>,
    touched: u64,
    served: u64,
}

impl KernelProbe {
    fn new(table: &Table) -> Self {
        let head = table.column(0).values().to_vec();
        KernelProbe {
            tail: (0..head.len() as RowId).collect(),
            head,
            bounds: BTreeMap::new(),
            touched: 0,
            served: 0,
        }
    }

    fn piece(&self, key: BoundaryKey) -> (usize, usize) {
        let s = self.bounds.range(..key).next_back().map_or(0, |(_, &p)| p);
        let e = self
            .bounds
            .range((Excluded(key), Unbounded))
            .next()
            .map_or(self.head.len(), |(_, &p)| p);
        (s, e)
    }

    fn two(&mut self, key: BoundaryKey) {
        let (s, e) = self.piece(key);
        let split = crack_in_two(&mut self.head, &mut self.tail, s, e, key.0, key.1);
        self.touched += (e - s) as u64;
        self.bounds.insert(key, split);
    }

    fn crack(&mut self, pred: &RangePred) {
        if pred.is_empty_range() {
            return;
        }
        let (lo, hi) = pred_keys(pred);
        let lo = lo.filter(|k| !self.bounds.contains_key(k));
        let hi = hi.filter(|k| !self.bounds.contains_key(k));
        match (lo, hi) {
            (Some(l), Some(h)) if self.piece(l) == self.piece(h) => {
                let (s, e) = self.piece(l);
                let (a, b) = crack_in_three(&mut self.head, &mut self.tail, s, e, l, h);
                self.touched += (e - s) as u64;
                self.bounds.insert(l, a);
                self.bounds.insert(h, b);
            }
            (l, h) => {
                l.into_iter().for_each(|k| self.two(k));
                h.into_iter().for_each(|k| self.two(k));
            }
        }
    }
}

impl Target for KernelProbe {
    fn exec(&mut self, op: &Op, _outs: &mut Vec<QueryOutput>) -> Result<u64, String> {
        if let Op::Read(queries) = op {
            for q in queries {
                self.crack(&q.preds[0].1);
            }
        }
        self.served += 1;
        Ok(self.served)
    }
}

// -- cracking::CrackerColumn -------------------------------------------

struct ColumnProbe<'a> {
    table: &'a Table,
    /// Created by the first op, as the engines create theirs.
    col: Option<CrackerColumn>,
    next_key: RowId,
    served: u64,
}

impl ColumnProbe<'_> {
    fn col(&mut self) -> &mut CrackerColumn {
        let table = self.table;
        self.col
            .get_or_insert_with(|| CrackerColumn::from_column(table.column(0)))
    }
}

impl Target for ColumnProbe<'_> {
    fn exec(&mut self, op: &Op, _outs: &mut Vec<QueryOutput>) -> Result<u64, String> {
        match op {
            Op::Read(queries) => {
                for q in queries {
                    black_box(self.col().crack_select_span(&q.preds[0].1).len());
                }
            }
            Op::Insert(row) => {
                let key = self.next_key;
                self.next_key += 1;
                self.col().queue_insert(row[0], key);
            }
            // Every workload deletes base keys only.
            Op::Delete(key) => {
                let v = self.table.column(0).get(*key);
                self.col().queue_delete(v, *key);
            }
        }
        self.served += 1;
        Ok(self.served)
    }
}

/// Mean time of one boundary lookup in the column's index, over the
/// bounds the unit's own reads ask for.
fn index_lookup_ns(col: &CrackerColumn, unit: &Unit) -> f64 {
    let keys: Vec<BoundaryKey> = unit
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Read(queries) => Some(queries),
            _ => None,
        })
        .flatten()
        .flat_map(|q| {
            let (lo, hi) = pred_keys(&q.preds[0].1);
            lo.into_iter().chain(hi)
        })
        .take(4_096)
        .collect();
    if keys.is_empty() {
        return 0.0;
    }
    let index = col.array().index();
    let t0 = Instant::now();
    for _ in 0..8 {
        for &k in &keys {
            black_box(index.position_any(black_box(k)));
        }
    }
    t0.elapsed().as_nanos() as f64 / (8 * keys.len()) as f64
}

// -- core::SidewaysStore / core::PartialStore --------------------------

/// The attributes a query reads besides its predicates.
fn fetch_attrs(q: &Query) -> Vec<usize> {
    let mut attrs: Vec<usize> = Vec::new();
    for a in q
        .projs
        .iter()
        .copied()
        .chain(q.aggs.iter().map(|&(a, _)| a))
    {
        if !attrs.contains(&a) {
            attrs.push(a);
        }
    }
    attrs
}

struct SidewaysProbe {
    base: Table,
    store: SidewaysStore,
    tombstones: HashSet<RowId>,
    served: u64,
}

impl Target for SidewaysProbe {
    fn exec(&mut self, op: &Op, _outs: &mut Vec<QueryOutput>) -> Result<u64, String> {
        match op {
            Op::Read(queries) => {
                for q in queries {
                    let attrs = fetch_attrs(q);
                    let handle =
                        self.store
                            .conjunctive_bv(&self.base, &q.preds, &attrs, &self.tombstones);
                    let mut acc: Val = 0;
                    for &a in &attrs {
                        self.store.reconstruct_with(&self.base, &handle, a, |v| {
                            acc = acc.wrapping_add(v)
                        });
                    }
                    black_box((handle.result_size(), acc));
                }
            }
            Op::Insert(row) => {
                let key = self.base.append_row(row);
                self.store.stage_insert(key);
            }
            Op::Delete(key) => {
                self.store.stage_delete(&self.base, *key);
                self.tombstones.insert(*key);
            }
        }
        self.served += 1;
        Ok(self.served)
    }

    fn resident_tuples(&self) -> u64 {
        self.store.tuples() as u64
    }
}

struct PartialProbe {
    base: Table,
    store: PartialStore,
    served: u64,
}

impl Target for PartialProbe {
    fn exec(&mut self, op: &Op, _outs: &mut Vec<QueryOutput>) -> Result<u64, String> {
        match op {
            Op::Read(queries) => {
                for q in queries {
                    let mut acc: Val = 0;
                    self.store
                        .conjunctive_project_with(&self.base, &q.preds, &fetch_attrs(q), |_, v| {
                            acc = acc.wrapping_add(v)
                        })
                        .map_err(|e| e.to_string())?;
                    black_box(acc);
                }
            }
            Op::Insert(row) => {
                let key = self.base.append_row(row);
                self.store.stage_insert(key);
            }
            Op::Delete(key) => self.store.stage_delete(&self.base, *key),
        }
        self.served += 1;
        Ok(self.served)
    }

    fn resident_tuples(&self) -> u64 {
        self.store.usage() as u64
    }
}

// -- Engine, ShardedEngine ----------------------------------------------

/// What only some engines can report.
trait Inspect: Engine {
    fn partial_stats(&self) -> Option<PartialStats> {
        None
    }

    fn resident(&self) -> u64 {
        self.aux_tuples() as u64
    }
}

impl Inspect for SidewaysEngine {}
impl Inspect for SelCrackEngine {}

impl Inspect for PartialEngine {
    fn partial_stats(&self) -> Option<PartialStats> {
        Some(self.store().stats_sum())
    }

    fn resident(&self) -> u64 {
        self.store().usage() as u64
    }
}

impl<E: Inspect + Send> Inspect for ShardedEngine<E> {
    fn partial_stats(&self) -> Option<PartialStats> {
        let mut shards = self.shards().iter().filter_map(E::partial_stats);
        let mut sum = shards.next()?;
        shards.for_each(|s| sum.merge(&s));
        Some(sum)
    }

    fn resident(&self) -> u64 {
        self.shards().iter().map(E::resident).sum()
    }
}

struct EngineTarget<E> {
    engine: E,
    served: u64,
}

impl<E: Inspect> Target for EngineTarget<E> {
    fn exec(&mut self, op: &Op, outs: &mut Vec<QueryOutput>) -> Result<u64, String> {
        match op {
            Op::Read(queries) => {
                for q in queries {
                    outs.push(self.engine.try_select(q).map_err(|e| e.to_string())?);
                }
            }
            Op::Insert(row) => self.engine.insert(row),
            Op::Delete(key) => self.engine.delete(*key),
        }
        self.served += 1;
        Ok(self.served)
    }

    fn resident_tuples(&self) -> u64 {
        self.engine.resident()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn engine_end<E: Inspect>(engine: &E, ctx: &Ctx, end: &mut EndState) {
    end.aux_tuples = engine.aux_tuples() as u64;
    end.policy_switches = engine.policy_switches();
    end.partial = engine.partial_stats();
    // Spill files live until the engine drops: measure them now.
    end.spill_bytes = dir_bytes(ctx.spill_dir);
}

fn replay_engine<E: Inspect>(build: impl FnOnce() -> E, unit: &Unit, ctx: &Ctx) -> UnitRun {
    replay_serial(
        || EngineTarget {
            engine: build(),
            served: 0,
        },
        unit,
        ctx,
        |t, end| engine_end(&t.engine, ctx, end),
    )
}

// -- Service, Client ----------------------------------------------------

struct ClientTarget {
    client: Client,
    overloaded: u64,
}

impl ClientTarget {
    fn note<T>(&mut self, r: Result<T, ServiceError>) -> Result<T, String> {
        r.map_err(|e| {
            if matches!(e, ServiceError::Overloaded { .. }) {
                self.overloaded += 1;
            }
            e.to_string()
        })
    }
}

impl Target for ClientTarget {
    fn exec(&mut self, op: &Op, outs: &mut Vec<QueryOutput>) -> Result<u64, String> {
        match op {
            Op::Read(queries) => {
                let mut seq = 0;
                for q in queries {
                    let r = self.client.select(q);
                    let reply = self.note(r)?;
                    seq = reply.seq;
                    outs.push(reply.output);
                }
                Ok(seq)
            }
            Op::Insert(row) => {
                let r = self.client.insert(row);
                Ok(self.note(r)?.seq)
            }
            Op::Delete(key) => {
                let r = self.client.delete(*key);
                Ok(self.note(r)?.seq)
            }
        }
    }
}

/// The workload as its caller sees it: a service over the sharded
/// engine, one closed-loop caller. Caller and shard workers share the
/// one CPU the process is pinned to, so a hop is a context switch.
fn replay_service<E: Inspect + Send + 'static>(
    build: impl FnOnce() -> ShardedEngine<E>,
    unit: &Unit,
    ctx: &Ctx,
) -> Result<UnitRun, String> {
    let t0 = Instant::now();
    let svc = Service::start(build()).map_err(|e| e.to_string())?;
    let start_ns = t0.elapsed().as_nanos() as u64;
    let mut run = replay_serial(
        || ClientTarget {
            client: svc.client(),
            overloaded: 0,
        },
        unit,
        ctx,
        |t, end| end.overloaded = t.overloaded,
    );
    run.setup_ns += start_ns;
    let engine = svc.shutdown();
    engine_end(&engine, ctx, &mut run.end);
    Ok(run)
}

// -- Dispatch -------------------------------------------------------------

/// Run `$body` with `$make: Fn(Table) -> E` bound to the constructor of
/// the workload's engine — the constructors a user calls, so policy,
/// kernel and snapshot reads are the shipped defaults.
macro_rules! with_engine {
    ($ctx:expr, |$make:ident| $body:expr) => {{
        let domain = (0, $ctx.spec.domain());
        match $ctx.spec.engine {
            EngineKind::Sideways => {
                let $make = |t: Table| SidewaysEngine::new(t, domain);
                $body
            }
            EngineKind::SelCrack => {
                let $make = |t: Table| SelCrackEngine::new(t, domain);
                $body
            }
            EngineKind::PartialSpill => {
                let (budget, dir) = (Some($ctx.spec.spill_budget()), $ctx.spill_dir);
                let $make = |t: Table| PartialEngine::with_spill_dir(t, domain, budget, dir);
                $body
            }
        }
    }};
}

/// Replay one unit on fresh state at `layer`. `table` is the unit's own
/// copy of the round's table.
pub fn replay_unit(layer: Layer, table: Table, unit: &Unit, ctx: &Ctx) -> Result<UnitRun, String> {
    let spec = ctx.spec;
    let domain = (0, spec.domain());
    Ok(match layer {
        Layer::Kernel => replay_serial(
            || KernelProbe::new(&table),
            unit,
            ctx,
            |t, end| end.kernel_touched = t.touched,
        ),
        Layer::Column => replay_serial(
            || ColumnProbe {
                table: &table,
                col: None,
                next_key: table.num_rows() as RowId,
                served: 0,
            },
            unit,
            ctx,
            |t, end| {
                if let Some(col) = &t.col {
                    end.kernel_touched = col.touched();
                    end.index_boundaries = col.array().index().len() as u64;
                    end.index_advisory = col.array().index().advisory_count() as u64;
                    end.index_lookup_ns = index_lookup_ns(col, unit);
                    end.aux_tuples = col.len() as u64;
                }
            },
        ),
        Layer::Store if spec.engine == EngineKind::PartialSpill => replay_serial(
            || {
                let mut store = PartialStore::new(domain);
                store.budget = Some(spec.spill_budget());
                store.enable_spill(ctx.spill_dir.to_path_buf());
                PartialProbe {
                    base: table,
                    store,
                    served: 0,
                }
            },
            unit,
            ctx,
            |t, end| {
                end.aux_tuples = t.store.usage() as u64;
                end.partial = Some(t.store.stats_sum());
                end.spill_bytes = dir_bytes(ctx.spill_dir);
            },
        ),
        Layer::Store => replay_serial(
            || SidewaysProbe {
                base: table,
                store: SidewaysStore::new(domain),
                tombstones: HashSet::new(),
                served: 0,
            },
            unit,
            ctx,
            |t, end| end.aux_tuples = t.store.tuples() as u64,
        ),
        Layer::Engine => with_engine!(ctx, |make| replay_engine(|| make(table), unit, ctx)),
        // One thread: the shards' summed work without the scoped-thread
        // fan-out, which the service replaces by long-lived workers.
        Layer::Shard => with_engine!(ctx, |make| replay_engine(
            || {
                let mut e = ShardedEngine::build(table, spec.shards, |_, part| make(part));
                e.set_threads(1);
                e
            },
            unit,
            ctx
        )),
        Layer::Client => with_engine!(ctx, |make| replay_service(
            || ShardedEngine::build(table, spec.shards, |_, part| make(part)),
            unit,
            ctx
        ))?,
    })
}

// ---------------------------------------------------------------------
// Host calibration
// ---------------------------------------------------------------------

/// ns per tuple of the primitives every layer above is built from, on
/// this host and this table: a full-column scan, a random-key gather,
/// and the two crack kernels on a virgin piece.
pub struct Calibration {
    pub scan_ns_per_tuple: f64,
    pub gather_ns_per_tuple: f64,
    pub crack2_ns_per_tuple: f64,
    pub crack3_ns_per_tuple: f64,
}

fn median3(mut f: impl FnMut() -> f64) -> f64 {
    let mut v = [f(), f(), f()];
    v.sort_by(f64::total_cmp);
    v[1]
}

pub fn calibrate(table: &Table, domain: Val) -> Calibration {
    let col = table.column(0);
    let n = col.len();
    let per_tuple = |t0: Instant, tuples: usize| t0.elapsed().as_nanos() as f64 / tuples as f64;
    let pred = RangePred::open(domain / 4, domain / 2);
    let scan = median3(|| {
        let t0 = Instant::now();
        black_box(count(col, black_box(&pred)));
        per_tuple(t0, n)
    });
    // Keys in value order of another column: uniformly scattered.
    let keys: Vec<RowId> = (0..n / 8)
        .map(|i| (i.wrapping_mul(2_654_435_761) % n) as RowId)
        .collect();
    let gather = median3(|| {
        let t0 = Instant::now();
        black_box(reconstruct(col, black_box(&keys)));
        per_tuple(t0, keys.len())
    });
    let crack = |three: bool| {
        median3(|| {
            let mut probe = KernelProbe::new(table);
            let pred = if three {
                RangePred::open(domain / 3, 2 * domain / 3)
            } else {
                RangePred {
                    lo: None,
                    ..RangePred::open(0, domain / 2)
                }
            };
            let t0 = Instant::now();
            probe.crack(&pred);
            per_tuple(t0, n)
        })
    };
    Calibration {
        scan_ns_per_tuple: scan,
        gather_ns_per_tuple: gather,
        crack2_ns_per_tuple: crack(false),
        crack3_ns_per_tuple: crack(true),
    }
}

/// A fresh directory for spill files under `parent`, removed when the
/// guard drops — on success, on error return and on panic unwind alike.
pub struct SpillDir(PathBuf);

impl SpillDir {
    pub fn create(parent: &Path) -> std::io::Result<Self> {
        let dir = parent.join(format!("spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(SpillDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
