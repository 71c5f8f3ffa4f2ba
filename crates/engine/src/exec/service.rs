//! The concurrent query service: many clients over the sharded engines.
//!
//! Every engine exposes `&mut self` select paths — adaptive indexing
//! *reorganizes* the physical layout during query processing, so a
//! query is inherently a write. One engine value can therefore serve
//! only one query at a time. [`Service`] lets many clients query
//! concurrently without adding a single lock to the cracking hot paths:
//! each shard of a [`ShardedEngine`] sits behind its own lock, and the
//! callers take turns on it.
//!
//! * **Per-shard turns.** [`Service::start`] takes ownership of a
//!   [`ShardedEngine`] and puts each shard's complete inner engine —
//!   columns, cracker indexes, maps, chunk sets — behind a
//!   `Mutex` + `Condvar`. A shard serves one request at a time, in the
//!   order the router issued its tickets, so cracking remains plain
//!   single-threaded code.
//! * **Callers do their own work.** [`Service::client`] hands out
//!   cheap, cloneable [`Client`] handles. A client call takes its
//!   tickets from the router, then runs each shard's part of the request
//!   on its own thread, in shard order, and merges the partial results
//!   with exactly the [`ShardedEngine`] merge semantics (per-attribute
//!   partial aggregates, shard-order projection concatenation, summed
//!   rows, per-phase timings summed across shards), so a served answer
//!   is bit-identical to the in-process router's. There are no worker
//!   threads and no channels: a caller waits only while an earlier
//!   request still holds the shard it needs next.
//!
//! ## Sequencing: a total order, observed by everyone
//!
//! Inside one critical section the router gives every request its
//! global sequence number and one ticket on every shard it touches (all
//! shards for reads and joins, exactly one for writes). Each shard
//! serves its tickets in the order issued, so each shard executes its
//! subsequence of requests in global sequence order, and the service as
//! a whole is linearizable: answers are identical to replaying the
//! committed sequence serially on one unsharded engine (the concurrent
//! differential suite asserts exactly that, bit for bit). A request's
//! tickets are all issued at once, so a caller only ever waits for
//! strictly earlier requests: no cycle of waits, hence no deadlock. Two
//! useful corollaries:
//!
//! * **Read-your-writes.** A client's next call is sequenced after its
//!   previous one returned, hence after its own writes everywhere.
//! * **Deterministic replay.** Every reply carries its sequence
//!   number, so a concurrent run can be audited offline against a
//!   serial engine.
//!
//! A lone caller runs its shards one after the other. Concurrent
//! callers run in parallel on different shards.
//!
//! ## Admission control, shutdown, hygiene
//!
//! The service bounds the work in flight: at most [`QUEUE_DEPTH`]
//! requests may hold tickets (waiting or executing) at once, and calls
//! beyond the bound fail fast with [`ServiceError::Overloaded`] instead
//! of queueing without bound under open-loop overload. [`Service::shutdown`] is graceful: it closes
//! admission, waits until every ticket issued before has been served,
//! and reassembles — and returns — the [`ShardedEngine`], so serving is
//! a phase in an engine's life, not a one-way door.
//!
//! A panicking shard must not take the service down with it. The shard
//! call runs under `catch_unwind`; a shard that panicked is dead and
//! passes its later tickets without running them, so their callers get
//! [`ServiceError::WorkerLost`], later calls fail the same way at
//! admission, and every internal mutex is recovered from poisoning —
//! one crashed query never cascades into unrelated failures or a hang.
//! The shard's original panic payload is preserved and re-raised on the
//! thread that calls [`Service::shutdown`].

use super::shard::{merge_join_outputs, merge_select_outputs, Routes, ShardedEngine};
use crate::query::{Engine, JoinQuery, QueryOutput, SelectQuery};
use crackdb_columnstore::types::{RowId, Val};
use crackdb_core::lock_unpoisoned;
use std::any::Any;
use std::convert::Infallible;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Global sequence number of a request: the position of the request in
/// the service's total execution order.
pub type Seq = u64;

/// A request's place in one shard's line: the shard, and the position
/// in its line. A shard serves its tickets in the order the router
/// issued them.
type Ticket = (usize, u64);

/// What a caller runs on a shard's engine in its turn.
type Work<'a> = &'a mut dyn FnMut(&mut dyn Engine);

/// Admission bound: the maximum number of requests in flight (waiting
/// for a shard or executing) across the whole service. Calls beyond the
/// bound fail fast with [`ServiceError::Overloaded`]. Closed-loop
/// clients occupy at most one slot each, so the bound serves hundreds
/// of concurrent sessions while still bounding queue growth under
/// open-loop overload.
pub const QUEUE_DEPTH: usize = 1024;

/// Why a service call did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission bound ([`QUEUE_DEPTH`]) was reached; retry later or
    /// shed load.
    Overloaded {
        /// Requests in flight when the call was rejected.
        in_flight: usize,
    },
    /// [`Service::shutdown`] has begun; no new work is admitted.
    ShuttingDown,
    /// A shard panicked, so the request cannot be answered completely.
    /// The panic payload is re-raised by [`Service::shutdown`].
    WorkerLost,
    /// A delete named a key that no row ever had.
    UnknownKey(RowId),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { in_flight } => {
                write!(f, "service overloaded: {in_flight} requests in flight")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::WorkerLost => write!(f, "a shard panicked and is gone"),
            ServiceError::UnknownKey(k) => write!(f, "key {k} does not name a row"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A query answer from the service: the merged [`QueryOutput`] plus the
/// global sequence number at which the query executed.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Position in the service's total execution order.
    pub seq: Seq,
    /// The merged result, bit-identical to [`ShardedEngine`]'s.
    pub output: QueryOutput,
}

/// Acknowledgement of a write: its sequence number and, for inserts,
/// the global key the new row got (the same `n₀ + j` key an unsharded
/// engine would assign to the `j`-th insert).
#[derive(Debug, Clone, Copy)]
pub struct WriteReply {
    /// Position in the service's total execution order.
    pub seq: Seq,
    /// Global key of the inserted row (`None` for deletes).
    pub key: Option<RowId>,
}

/// One shard: its engine and its line of tickets.
struct Shard<E> {
    turn: Mutex<Turn<E>>,
    /// Signalled when a turn ends and a caller waits.
    ended: Condvar,
}

/// What a shard's lock guards.
struct Turn<E> {
    /// `None` once the shard panicked (or after shutdown took it).
    engine: Option<E>,
    /// The position being served, or next to be served.
    serving: u64,
    /// Callers blocked in [`Shard::wait_for`]: a turn that ends with
    /// none skips the wake-up, a system call.
    waiting: usize,
    /// The payload of the panic that killed the shard.
    panic: Option<Box<dyn Any + Send>>,
}

impl<E> Shard<E> {
    /// Lock the shard once every position before `pos` has been served.
    fn wait_for(&self, pos: u64) -> MutexGuard<'_, Turn<E>> {
        let mut turn = lock_unpoisoned(&self.turn);
        if turn.serving < pos {
            // Counted under the lock the wait releases, so a turn ending
            // after this line sees the waiter.
            turn.waiting += 1;
            turn = self
                .ended
                .wait_while(turn, |t| t.serving < pos)
                .unwrap_or_else(PoisonError::into_inner);
            turn.waiting -= 1;
        }
        turn
    }
}

/// The shards as a [`Client`] reaches them, whatever engine they run.
trait Turns: Send + Sync {
    /// Wait for `ticket`'s turn, run `work` on the shard's engine (none
    /// passes the ticket), and end the turn. `false` when the shard is
    /// dead or `work` panicked, which kills it.
    fn take_turn(&self, ticket: Ticket, work: Option<Work<'_>>) -> bool;
}

impl<E: Engine + Send> Turns for Vec<Shard<E>> {
    fn take_turn(&self, (shard, pos): Ticket, work: Option<Work<'_>>) -> bool {
        let shard = &self[shard];
        let mut turn = shard.wait_for(pos);
        let ran = match (work, turn.engine.as_mut()) {
            (Some(work), Some(engine)) => {
                catch_unwind(AssertUnwindSafe(|| work(engine))).map_err(Some)
            }
            _ => Err(None),
        };
        let ok = ran.is_ok();
        if let Err(Some(payload)) = ran {
            turn.engine = None;
            turn.panic = Some(payload);
        }
        turn.serving += 1;
        let wake = turn.waiting > 0;
        drop(turn);
        if wake {
            shard.ended.notify_all();
        }
        ok
    }
}

/// The tickets one request holds, in shard order, and its admission
/// slot. Dropping it passes every ticket not yet served, so a caller
/// that stops early — after a dead shard, or unwinding — never stalls
/// the requests behind it.
struct Tickets<'a> {
    client: &'a Client,
    held: Vec<Ticket>,
    served: usize,
    _slot: Slot<'a>,
}

impl Tickets<'_> {
    /// Serve the held tickets in shard order, running `work` on each
    /// shard's engine. A dead shard marks the service failed: later
    /// calls reject in O(1) at admission instead of taking tickets on
    /// the surviving shards.
    fn serve(mut self, mut work: impl FnMut(&mut dyn Engine)) -> Result<(), ServiceError> {
        while let Some(&ticket) = self.held.get(self.served) {
            self.served += 1;
            if !self.client.turns.take_turn(ticket, Some(&mut work)) {
                self.client.shared.failed.store(true, Ordering::Release);
                return Err(ServiceError::WorkerLost);
            }
        }
        Ok(())
    }
}

impl Drop for Tickets<'_> {
    fn drop(&mut self) {
        for &ticket in &self.held[self.served..] {
            self.client.turns.take_turn(ticket, None);
        }
    }
}

/// The sequencing state every request passes through. Held only while
/// issuing a sequence number and tickets — never during query
/// execution.
struct Router {
    /// The next position in each shard's line, in shard order.
    lines: Vec<u64>,
    /// Insert placement and delete-key routing, shared with
    /// [`ShardedEngine`].
    routes: Routes,
    /// Next global sequence number.
    next_seq: Seq,
    /// Set by [`Service::shutdown`]: reject new work.
    closed: bool,
}

/// State shared by the service handle and every client.
struct Shared {
    router: Mutex<Router>,
    /// Requests currently in flight (admission control).
    in_flight: AtomicUsize,
    queue_depth: usize,
    /// Set once a shard is known dead: later calls fail fast at
    /// admission instead of taking tickets on the surviving shards.
    failed: AtomicBool,
}

/// RAII in-flight slot: released on completion *and* on every error
/// path, so failed calls can never leak admission capacity.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A query service over a [`ShardedEngine`]: many concurrent [`Client`]
/// handles taking per-shard turns. See the module docs for the full
/// design.
pub struct Service<E> {
    shared: Arc<Shared>,
    shards: Arc<Vec<Shard<E>>>,
}

impl<E: Engine + Send + 'static> Service<E> {
    /// Start serving `engine`, admitting at most [`QUEUE_DEPTH`]
    /// requests at once.
    ///
    /// # Errors
    /// None: starting cannot fail. The `Result` is kept only because
    /// `benchmark/src/sut.rs` maps it; ROADMAP item 1 deletes it.
    pub fn start(engine: ShardedEngine<E>) -> Result<Self, Infallible> {
        Ok(Self::with_queue_depth(engine, QUEUE_DEPTH))
    }

    /// Start serving `engine` with admission bound `queue_depth`.
    fn with_queue_depth(engine: ShardedEngine<E>, queue_depth: usize) -> Self {
        let (routes, engines) = engine.into_parts();
        let shards: Vec<Shard<E>> = engines
            .into_iter()
            .map(|engine| Shard {
                turn: Mutex::new(Turn {
                    engine: Some(engine),
                    serving: 0,
                    waiting: 0,
                    panic: None,
                }),
                ended: Condvar::new(),
            })
            .collect();
        Service {
            shared: Arc::new(Shared {
                router: Mutex::new(Router {
                    lines: vec![0; shards.len()],
                    routes,
                    next_seq: 0,
                    closed: false,
                }),
                in_flight: AtomicUsize::new(0),
                queue_depth,
                failed: AtomicBool::new(false),
            }),
            shards: Arc::new(shards),
        }
    }

    /// A new client handle. Handles are cheap (two `Arc` clones),
    /// cloneable, and independently usable from any thread.
    pub fn client(&self) -> Client {
        Client {
            shared: self.shared.clone(),
            turns: self.shards.clone(),
            nshards: self.shards.len(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Requests currently in flight (waiting or executing).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop admitting work, wait until every ticket
    /// issued before has been served, and hand back the reassembled
    /// [`ShardedEngine`] — including all reorganization the served
    /// queries performed.
    ///
    /// # Panics
    /// Re-raises the original panic payload of a shard that died
    /// mid-query, after every ticket has been served. When several
    /// shards died, the *first* shard's payload (most likely the root
    /// cause) is re-raised and the others are reported on stderr rather
    /// than silently dropped.
    pub fn shutdown(self) -> ShardedEngine<E> {
        let (routes, issued) = {
            let mut router = lock_unpoisoned(&self.shared.router);
            router.closed = true;
            (router.routes.clone(), router.lines.clone())
        };
        let mut engines = Vec::with_capacity(issued.len());
        let mut panics = Vec::new();
        for (shard, end) in self.shards.iter().zip(issued) {
            let mut turn = shard.wait_for(end);
            engines.extend(turn.engine.take());
            panics.extend(turn.panic.take());
        }
        let mut panics = panics.into_iter();
        if let Some(payload) = panics.next() {
            if panics.len() > 0 {
                eprintln!(
                    "warning: {} further shard(s) also panicked; \
                     re-raising the first shard's payload",
                    panics.len()
                );
            }
            std::panic::resume_unwind(payload);
        }
        ShardedEngine::reassemble(routes, engines)
    }
}

/// A handle for one client session of a [`Service`]: clone freely, one
/// per concurrent session. All calls block until the merged result is
/// available (closed-loop semantics); errors are [`ServiceError`]s, not
/// panics.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    turns: Arc<dyn Turns>,
    nshards: usize,
}

impl Client {
    /// Execute a single-table query on every shard; partial results
    /// merge exactly as in [`ShardedEngine::select`].
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`], [`ServiceError::ShuttingDown`],
    /// or [`ServiceError::WorkerLost`].
    pub fn select(&self, q: &SelectQuery) -> Result<Reply, ServiceError> {
        let (seq, tickets) = self.issue(|_| Ok(0..self.nshards))?;
        let mut outs = Vec::with_capacity(self.nshards);
        tickets.serve(|e| outs.push(e.select(q)))?;
        let output = merge_select_outputs(q, outs);
        Ok(Reply { seq, output })
    }

    /// Execute a two-table join query: every shard must answer joins,
    /// e.g. a [`Joined`](super::Joined) pair of the shard's part of the
    /// left table and the whole right table.
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`], [`ServiceError::ShuttingDown`],
    /// or [`ServiceError::WorkerLost`].
    pub fn join(&self, q: &JoinQuery) -> Result<Reply, ServiceError> {
        let (seq, tickets) = self.issue(|_| Ok(0..self.nshards))?;
        let mut outs = Vec::with_capacity(self.nshards);
        tickets.serve(|e| outs.push(e.join(q)))?;
        let output = merge_join_outputs(q, &outs);
        Ok(Reply { seq, output })
    }

    /// Append a tuple (values in column order). Routed round-robin like
    /// [`ShardedEngine::insert`]; the reply carries the assigned global
    /// key, so a session can delete its own rows later.
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`], [`ServiceError::ShuttingDown`] or
    /// [`ServiceError::WorkerLost`].
    pub fn insert(&self, row: &[Val]) -> Result<WriteReply, ServiceError> {
        let mut key = 0;
        let (seq, tickets) = self.issue(|router| {
            let (shard, k) = router.routes.insert();
            key = k;
            Ok(shard..shard + 1)
        })?;
        tickets.serve(|e| e.insert(row))?;
        Ok(WriteReply {
            seq,
            key: Some(key),
        })
    }

    /// Delete the tuple with global key `key` (original rows by cut
    /// ranges, inserted rows by their [`WriteReply::key`]).
    ///
    /// # Errors
    /// [`ServiceError::UnknownKey`] for a key no row ever had — a bad
    /// client key must not panic a shard — plus the usual
    /// [`ServiceError::Overloaded`] / [`ServiceError::ShuttingDown`] /
    /// [`ServiceError::WorkerLost`].
    pub fn delete(&self, key: RowId) -> Result<WriteReply, ServiceError> {
        let mut local = 0;
        let (seq, tickets) = self.issue(|router| {
            let (shard, l) = router
                .routes
                .locate(key)
                .ok_or(ServiceError::UnknownKey(key))?;
            local = l;
            Ok(shard..shard + 1)
        })?;
        tickets.serve(|e| e.delete(local))?;
        Ok(WriteReply { seq, key: None })
    }

    /// Number of shards behind this client.
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// Admit and sequence one request. Admission fails fast once a
    /// shard is known dead or the in-flight bound is reached. Then,
    /// inside the router's critical section, `route` picks the shards the
    /// request touches (and may update the router), and the request gets
    /// the next sequence number and one ticket on each of those shards.
    /// Issuing every ticket of every request under one lock is what makes
    /// all shards see the same relative order.
    fn issue(
        &self,
        route: impl FnOnce(&mut Router) -> Result<Range<usize>, ServiceError>,
    ) -> Result<(Seq, Tickets<'_>), ServiceError> {
        if self.shared.failed.load(Ordering::Acquire) {
            return Err(ServiceError::WorkerLost);
        }
        let in_flight = self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let slot = Slot(&self.shared.in_flight);
        if in_flight >= self.shared.queue_depth {
            return Err(ServiceError::Overloaded { in_flight });
        }
        let mut router = lock_unpoisoned(&self.shared.router);
        if router.closed {
            return Err(ServiceError::ShuttingDown);
        }
        let held = route(&mut router)?
            .map(|s| {
                router.lines[s] += 1;
                (s, router.lines[s] - 1)
            })
            .collect();
        router.next_seq += 1;
        let tickets = Tickets {
            client: self,
            held,
            served: 0,
            _slot: slot,
        };
        Ok((router.next_seq - 1, tickets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::PlainEngine;
    use crackdb_columnstore::column::{Column, Table};
    use crackdb_columnstore::shard::ShardCuts;
    use crackdb_columnstore::types::{AggFunc, RangePred};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    fn table(n: usize) -> Table {
        let mut t = Table::new();
        t.add_column(
            "a",
            Column::new((0..n as i64).map(|i| (i * 37) % 100).collect()),
        );
        t.add_column("b", Column::new((0..n as i64).collect()));
        t
    }

    /// A router over ready-made shard engines with no rows of their own.
    fn over<E: Engine>(shards: Vec<E>) -> ShardedEngine<E> {
        let routes = Routes::new(ShardCuts::even(0, shards.len()));
        ShardedEngine::reassemble(routes, shards)
    }

    fn service(n: usize, shards: usize) -> Service<PlainEngine> {
        let engine = ShardedEngine::build(table(n), shards, |_, t| PlainEngine::new(t));
        Service::start(engine).expect("service starts")
    }

    fn count_query() -> SelectQuery {
        SelectQuery::aggregate(vec![(0, RangePred::all())], vec![(1, AggFunc::Count)])
    }

    #[test]
    fn served_answers_match_the_sharded_engine() {
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(10, 60))],
            vec![
                (1, AggFunc::Count),
                (1, AggFunc::Sum),
                (1, AggFunc::Min),
                (1, AggFunc::Max),
                (1, AggFunc::Avg),
            ],
        );
        let mut direct = ShardedEngine::build(table(101), 3, |_, t| PlainEngine::new(t));
        let expected = direct.select(&q);
        let svc = service(101, 3);
        let client = svc.client();
        let reply = client.select(&q).expect("select succeeds");
        assert_eq!(reply.output.rows, expected.rows);
        assert_eq!(reply.output.aggs, expected.aggs);
        let restored = svc.shutdown();
        assert_eq!(restored.shard_count(), 3);
    }

    #[test]
    fn sequence_numbers_are_a_total_order_and_writes_are_observed() {
        let svc = service(10, 3);
        let client = svc.client();
        let w1 = client.insert(&[500, 1000]).expect("insert");
        assert_eq!(w1.key, Some(10));
        let w2 = client.insert(&[501, 1001]).expect("insert");
        assert_eq!(w2.key, Some(11));
        assert!(w2.seq > w1.seq, "sequence numbers increase");
        // Read-your-writes: the next select is sequenced after both.
        let r = client.select(&count_query()).expect("select");
        assert!(r.seq > w2.seq);
        assert_eq!(r.output.aggs, vec![Some(12)]);
        // Delete an inserted row by its reported global key and an
        // original row by its base key.
        client.delete(w1.key.unwrap()).expect("delete inserted");
        client.delete(0).expect("delete original");
        let r = client.select(&count_query()).expect("select");
        assert_eq!(r.output.aggs, vec![Some(10)]);
        let restored = svc.shutdown();
        assert_eq!(restored.cuts().total_rows(), 10);
    }

    #[test]
    fn unknown_delete_key_is_an_error_not_a_worker_panic() {
        let svc = service(10, 2);
        let client = svc.client();
        assert_eq!(
            client.delete(10).unwrap_err(),
            ServiceError::UnknownKey(10),
            "key 10 was never inserted"
        );
        // The service still works: no worker saw the bad key.
        assert_eq!(
            client.select(&count_query()).unwrap().output.aggs,
            vec![Some(10)]
        );
        svc.shutdown();
    }

    /// An engine whose select parks until released, for tests that need
    /// a request pinned in flight.
    struct Parked {
        entered: Sender<()>,
        release: Receiver<()>,
    }

    impl Engine for Parked {
        fn name(&self) -> &'static str {
            "parked"
        }
        fn select(&mut self, _q: &SelectQuery) -> QueryOutput {
            self.entered.send(()).expect("test observer alive");
            self.release.recv().expect("test releases the query");
            QueryOutput::default()
        }
        fn insert(&mut self, _row: &[Val]) {}
        fn delete(&mut self, _key: RowId) {}
    }

    #[test]
    fn admission_control_rejects_beyond_queue_depth() {
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let engine = over(vec![Parked {
            entered: entered_tx,
            release: release_rx,
        }]);
        let svc = Service::with_queue_depth(engine, 1);
        let client = svc.client();
        let parked = {
            let client = client.clone();
            std::thread::spawn(move || client.select(&SelectQuery::aggregate(vec![], vec![])))
        };
        entered_rx.recv().expect("first query reaches the worker");
        // One request in flight, depth 1: the next call is rejected.
        match client.select(&SelectQuery::aggregate(vec![], vec![])) {
            Err(ServiceError::Overloaded { in_flight }) => assert_eq!(in_flight, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        release_tx.send(()).unwrap();
        parked.join().unwrap().expect("parked query completes");
        // The slot was released: the service admits again (worker must
        // be released again for the call to finish).
        let second = {
            let client = client.clone();
            std::thread::spawn(move || client.select(&SelectQuery::aggregate(vec![], vec![])))
        };
        entered_rx.recv().expect("second query admitted");
        release_tx.send(()).unwrap();
        second.join().unwrap().expect("second query completes");
        assert_eq!(svc.in_flight(), 0);
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_in_flight_queries_then_rejects_new_work() {
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let engine = over(vec![Parked {
            entered: entered_tx,
            release: release_rx,
        }]);
        let svc = Service::start(engine).unwrap();
        let client = svc.client();
        let in_flight = {
            let client = client.clone();
            std::thread::spawn(move || client.select(&SelectQuery::aggregate(vec![], vec![])))
        };
        entered_rx.recv().expect("query is executing");
        let shutdown = std::thread::spawn(move || svc.shutdown());
        // Shutdown is waiting on the worker, which is waiting on us: the
        // in-flight query must complete, not be dropped.
        release_tx.send(()).unwrap();
        in_flight
            .join()
            .unwrap()
            .expect("in-flight query drains through shutdown");
        shutdown.join().expect("shutdown completes");
        assert_eq!(
            client
                .select(&SelectQuery::aggregate(vec![], vec![]))
                .unwrap_err(),
            ServiceError::ShuttingDown,
            "post-shutdown work is rejected"
        );
    }

    /// An engine that panics on query `boom` and works otherwise.
    struct Fused {
        calls: usize,
        boom: usize,
    }

    impl Engine for Fused {
        fn name(&self) -> &'static str {
            "fused"
        }
        fn select(&mut self, _q: &SelectQuery) -> QueryOutput {
            self.calls += 1;
            if self.calls == self.boom {
                panic!("worker exploded on query {}", self.boom);
            }
            QueryOutput::default()
        }
        fn insert(&mut self, _row: &[Val]) {}
        fn delete(&mut self, _key: RowId) {}
    }

    #[test]
    fn worker_panic_is_an_error_for_clients_and_resurfaces_at_shutdown() {
        let engine = over(vec![Fused { calls: 0, boom: 2 }]);
        let svc = Service::start(engine).unwrap();
        let client = svc.client();
        let q = SelectQuery::aggregate(vec![], vec![]);
        client.select(&q).expect("first query works");
        // The worker dies on the second query: the client gets an
        // error, not a propagated panic or a poisoned mutex.
        assert_eq!(client.select(&q).unwrap_err(), ServiceError::WorkerLost);
        assert_eq!(client.select(&q).unwrap_err(), ServiceError::WorkerLost);
        assert_eq!(svc.in_flight(), 0, "failed calls release their slots");
        // The original payload resurfaces exactly once, at shutdown.
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(svc.shutdown())))
                .expect_err("shutdown re-raises the worker panic");
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("worker exploded on query 2"),
            "the worker's own payload must reach the shutdown caller"
        );
    }

    /// One worker of two: a healthy counting shard and a bomb shard.
    enum Duo {
        Counting(Arc<AtomicUsize>),
        Bomb,
    }

    impl Engine for Duo {
        fn name(&self) -> &'static str {
            "duo"
        }
        fn select(&mut self, _q: &SelectQuery) -> QueryOutput {
            match self {
                Duo::Counting(calls) => {
                    calls.fetch_add(1, Ordering::SeqCst);
                    QueryOutput::default()
                }
                Duo::Bomb => panic!("bomb shard"),
            }
        }
        fn insert(&mut self, _row: &[Val]) {}
        fn delete(&mut self, _key: RowId) {}
    }

    #[test]
    fn after_worker_death_no_work_reaches_surviving_shards() {
        let calls = Arc::new(AtomicUsize::new(0));
        let engine = over(vec![Duo::Counting(calls.clone()), Duo::Bomb]);
        let svc = Service::start(engine).unwrap();
        let client = svc.client();
        let q = SelectQuery::aggregate(vec![], vec![]);
        assert_eq!(client.select(&q).unwrap_err(), ServiceError::WorkerLost);
        // Retries reject in O(1) at admission — no further work may be
        // enqueued on the healthy shard for a service that can never
        // answer a broadcast again.
        for _ in 0..5 {
            assert_eq!(client.select(&q).unwrap_err(), ServiceError::WorkerLost);
        }
        // Shutdown joins the healthy worker after its queue drained, so
        // the count is final and race-free here.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(svc.shutdown())))
            .expect_err("shutdown re-raises the bomb payload");
        assert!(
            calls.load(Ordering::SeqCst) <= 1,
            "only the first (pre-failure) broadcast may have reached the healthy shard"
        );
    }

    #[test]
    fn concurrent_clients_each_read_their_own_writes() {
        let svc = service(40, 4);
        let nclients = 8;
        let handles: Vec<_> = (0..nclients)
            .map(|c| {
                let client = svc.client();
                std::thread::spawn(move || {
                    for i in 0..10 {
                        let w = client.insert(&[c as i64, i]).expect("insert");
                        let got = client
                            .select(&SelectQuery::aggregate(
                                vec![(0, RangePred::all())],
                                vec![(1, AggFunc::Count)],
                            ))
                            .expect("select");
                        assert!(got.seq > w.seq, "reads sequence after own writes");
                        // At least this client's i+1 inserts are visible.
                        assert!(got.output.aggs[0].unwrap() > 40 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        let client = svc.client();
        let total = client.select(&count_query()).unwrap();
        assert_eq!(total.output.aggs, vec![Some(40 + 8 * 10)]);
        let restored = svc.shutdown();
        assert_eq!(restored.shard_count(), 4);
    }

    /// Wait until the router has issued `n` sequence numbers.
    fn await_issued(shared: &Shared, n: Seq) {
        while lock_unpoisoned(&shared.router).next_seq < n {
            std::thread::yield_now();
        }
    }

    /// A one-shard service over a [`Parked`] engine, with the test's
    /// ends of its channels: "a select entered" and "release it".
    fn parked_service() -> (Service<Parked>, Receiver<()>, Sender<()>) {
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let engine = over(vec![Parked {
            entered: entered_tx,
            release: release_rx,
        }]);
        (Service::start(engine).unwrap(), entered_rx, release_tx)
    }

    fn spawn_select(client: &Client) -> std::thread::JoinHandle<Result<Reply, ServiceError>> {
        let client = client.clone();
        std::thread::spawn(move || client.select(&SelectQuery::aggregate(vec![], vec![])))
    }

    /// The write's shard is the read's second. While the read is parked
    /// on its first shard, the write's shard is free, but the read holds
    /// the earlier ticket there: the write must wait for it.
    #[test]
    fn a_write_behind_a_parked_read_runs_after_it_with_a_larger_seq() {
        let (entered_tx, entered) = channel();
        let (release, shard_releases): (Vec<_>, Vec<_>) = (0..2).map(|_| channel()).unzip();
        let shards = shard_releases
            .into_iter()
            .map(|release| Parked {
                entered: entered_tx.clone(),
                release,
            })
            .collect();
        let engine = over(shards);
        let svc = Service::start(engine).unwrap();
        let client = svc.client();
        // Round-robin: this insert goes to shard 0, the next to shard 1.
        client.insert(&[1]).expect("insert");
        let read = spawn_select(&client);
        entered.recv().expect("the read is parked on shard 0");
        let (done_tx, done_rx) = channel();
        let write = {
            let client = client.clone();
            std::thread::spawn(move || {
                let w = client.insert(&[2]);
                done_tx.send(()).expect("test observer alive");
                w
            })
        };
        await_issued(&svc.shared, 3);
        let wait = Duration::from_millis(50);
        assert!(
            done_rx.recv_timeout(wait).is_err(),
            "the write waits on shard 1 for the read's earlier ticket"
        );
        release[0].send(()).unwrap();
        entered.recv().expect("the read is parked on shard 1");
        assert!(
            done_rx.recv_timeout(wait).is_err(),
            "the write waits while the read runs on shard 1"
        );
        release[1].send(()).unwrap();
        let read = read.join().unwrap().expect("read completes");
        let write = write.join().unwrap().expect("write completes");
        assert!(write.seq > read.seq, "the write was sequenced second");
        assert_eq!(svc.shutdown().shard_count(), 2);
    }

    /// An engine whose select parks until released, then panics.
    struct ParkedBomb {
        entered: Sender<()>,
        release: Receiver<()>,
    }

    impl Engine for ParkedBomb {
        fn name(&self) -> &'static str {
            "parked bomb"
        }
        fn select(&mut self, _q: &SelectQuery) -> QueryOutput {
            self.entered.send(()).expect("test observer alive");
            self.release.recv().expect("test releases the query");
            panic!("shard exploded while parked")
        }
        fn insert(&mut self, _row: &[Val]) {}
        fn delete(&mut self, _key: RowId) {}
    }

    /// Both callers also hold a ticket on shard 1, behind the dead shard
    /// 0: they must pass it without running it, or shutdown would wait
    /// for it forever.
    #[test]
    fn a_caller_queued_behind_a_panicking_shard_gets_worker_lost() {
        let (entered_tx, entered) = channel();
        let (release, shard_releases): (Vec<_>, Vec<_>) = (0..2).map(|_| channel()).unzip();
        let shards = shard_releases
            .into_iter()
            .map(|release| ParkedBomb {
                entered: entered_tx.clone(),
                release,
            })
            .collect();
        let engine = over(shards);
        let svc = Service::start(engine).unwrap();
        let client = svc.client();
        // Each call reports through a channel, so a hang fails the test
        // instead of stalling it.
        let wait = Duration::from_secs(10);
        let select = || {
            let (tx, rx) = channel();
            let client = client.clone();
            std::thread::spawn(move || {
                let _ = tx.send(client.select(&SelectQuery::aggregate(vec![], vec![])));
            });
            rx
        };
        let first = select();
        entered
            .recv()
            .expect("the first select is parked on shard 0");
        let queued = select();
        await_issued(&svc.shared, 2);
        release[0].send(()).unwrap();
        for (name, rx) in [("first", first), ("queued", queued)] {
            let got = rx
                .recv_timeout(wait)
                .unwrap_or_else(|_| panic!("{name} hangs"));
            assert_eq!(got.unwrap_err(), ServiceError::WorkerLost, "{name}");
        }
        assert!(entered.try_recv().is_err(), "no shard ran anything more");
        let (down_tx, down) = channel();
        std::thread::spawn(move || {
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(svc.shutdown())));
            let _ = down_tx.send(caught.is_err());
        });
        let reraised = down
            .recv_timeout(wait)
            .expect("shutdown finds every ticket passed");
        assert!(reraised, "shutdown re-raises the shard's panic");
    }

    #[test]
    fn shutdown_waits_for_a_ticket_issued_but_not_yet_served() {
        let (svc, entered, release) = parked_service();
        let client = svc.client();
        let first = spawn_select(&client);
        entered.recv().expect("the first select holds the shard");
        let queued = spawn_select(&client);
        await_issued(&svc.shared, 2);
        let shared = svc.shared.clone();
        let (down_tx, down_rx) = channel();
        let shutdown = std::thread::spawn(move || {
            let engine = svc.shutdown();
            down_tx.send(()).expect("test observer alive");
            engine
        });
        while !lock_unpoisoned(&shared.router).closed {
            std::thread::yield_now();
        }
        // Shutdown has begun; the queued ticket is issued, not served.
        release.send(()).unwrap();
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("the queued select is served after shutdown began");
        assert!(
            down_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "shutdown waits for the queued ticket"
        );
        release.send(()).unwrap();
        first.join().unwrap().expect("first select completes");
        queued
            .join()
            .unwrap()
            .expect("the queued select is served, not dropped");
        assert_eq!(
            shutdown.join().expect("shutdown completes").shard_count(),
            1
        );
    }
}
