//! The concurrent query service: share-nothing serving over the
//! sharded engines.
//!
//! Every engine exposes `&mut self` select paths — adaptive indexing
//! *reorganizes* the physical layout during query processing, so a
//! query is inherently a write. One engine value can therefore serve
//! only one query at a time, and nothing in the library so far lets
//! many clients query concurrently. [`Service`] closes that gap without
//! adding a single lock to the cracking hot paths, by making the
//! sharing disappear instead (the same move [`ShardedEngine`] made for
//! intra-query parallelism):
//!
//! * **Share-nothing workers.** [`Service::start`] takes ownership of a
//!   [`ShardedEngine`], decomposes it, and moves each shard's complete
//!   inner engine — columns, cracker indexes, maps, chunk sets — onto
//!   its own long-lived worker thread (actor style). A worker is the
//!   *only* thread that ever touches its shard, so cracking remains
//!   plain single-threaded code; concurrency lives entirely in the
//!   channels between clients and workers.
//! * **Cheap, cloneable clients.** [`Service::client`] hands out
//!   [`Client`] handles (an `Arc` plus a shard count). A client call
//!   sequences the request in the router, enqueues it on the relevant
//!   worker queues over mpsc channels, then blocks on a private reply
//!   channel and merges the per-shard partial results — with exactly
//!   the [`ShardedEngine`] merge semantics (per-attribute partial
//!   aggregates, shard-order projection concatenation, summed rows,
//!   max-across-shards timings), so a served answer is bit-identical
//!   to the in-process router's.
//!
//! ## Sequencing: a total order, observed by everyone
//!
//! The router assigns every request a global sequence number and
//! enqueues it — *inside the same critical section* — on the queue of
//! every worker that participates (all workers for reads, exactly one
//! for writes). Each worker drains its queue in FIFO order, so each
//! worker executes its subsequence of requests in global sequence
//! order, and the service as a whole is linearizable: answers are
//! identical to replaying the committed sequence serially on one
//! unsharded engine (the concurrent differential suite asserts exactly
//! that, bit for bit). Two useful corollaries:
//!
//! * **Read-your-writes.** A client's next call is sequenced after its
//!   previous one returned, hence after its own writes everywhere.
//! * **Deterministic replay.** Every reply carries its sequence
//!   number, so a concurrent run can be audited offline against a
//!   serial engine.
//!
//! There is one read path. A select cracks — it reorganizes the
//! columns it reads — so every select takes the sequenced hop to the
//! shard workers that own those columns, like every write does.
//!
//! ## Admission control, shutdown, hygiene
//!
//! The service bounds its total queue depth: at most
//! [`ServiceConfig::queue_depth`] requests may be in flight (queued or
//! executing) at once, and calls beyond the bound fail fast with
//! [`ServiceError::Overloaded`] instead of growing queues without
//! bound under open-loop overload. [`Service::shutdown`] is graceful:
//! it closes admission, enqueues a stop marker *behind* all accepted
//! work (FIFO queues drain in-flight queries first), joins the
//! workers, and reassembles — and returns — the [`ShardedEngine`], so
//! serving is a phase in an engine's life, not a one-way door.
//!
//! A panicking worker must not take the service down with it: clients
//! with requests on a dead shard get [`ServiceError::WorkerLost`] (the
//! reply channel disconnects), later calls fail the same way at
//! enqueue time, and every internal mutex is recovered from poisoning
//! — one crashed query never cascades into unrelated failures. The
//! worker's original panic payload is preserved and re-raised on the
//! thread that calls [`Service::shutdown`].

use super::shard::{locate_key, merge_join_outputs, merge_select_outputs, ShardedEngine};
use crate::query::{Engine, JoinQuery, QueryOutput, SelectQuery};
use crackdb_columnstore::shard::ShardCuts;
use crackdb_columnstore::types::{RowId, Val};
use crackdb_core::lock_unpoisoned;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Global sequence number of a request: the position of the request in
/// the service's total execution order.
pub type Seq = u64;

/// Tuning knobs for [`Service::with_config`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission bound: the maximum number of requests in flight
    /// (queued on worker channels or executing) across the whole
    /// service. Calls beyond the bound fail fast with
    /// [`ServiceError::Overloaded`]. Closed-loop clients occupy at most
    /// one slot each, so the default comfortably serves hundreds of
    /// concurrent sessions while still bounding queue growth under
    /// open-loop overload.
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { queue_depth: 1024 }
    }
}

/// Why a service call did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission bound ([`ServiceConfig::queue_depth`]) was reached;
    /// retry later or shed load.
    Overloaded {
        /// Requests in flight when the call was rejected.
        in_flight: usize,
    },
    /// [`Service::shutdown`] has begun; no new work is admitted.
    ShuttingDown,
    /// A shard worker is gone (it panicked), so the request cannot be
    /// answered completely. The panic payload is re-raised by
    /// [`Service::shutdown`]. Also returned by [`Service::start`] when
    /// a worker thread cannot be spawned.
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
            ServiceError::WorkerLost => write!(f, "a shard worker is gone or never started"),
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

/// A shard's answer to a read: its index and its partial result.
type ShardReply = (usize, QueryOutput);

/// One unit of work on a shard worker's queue.
enum Work {
    Select {
        q: Arc<SelectQuery>,
        reply: Sender<ShardReply>,
    },
    Join {
        q: Arc<JoinQuery>,
        reply: Sender<ShardReply>,
    },
    Insert {
        row: Vec<Val>,
        reply: Sender<()>,
    },
    Delete {
        key: RowId,
        reply: Sender<()>,
    },
    /// Graceful-shutdown marker: FIFO ordering guarantees everything
    /// enqueued before it has been executed when it is reached.
    Stop,
}

/// The sequencing state every request passes through. Held only while
/// assigning a sequence number and enqueueing — never during query
/// execution — so the critical section is a few channel sends.
struct Router {
    /// One queue sender per shard worker, in shard order.
    queues: Vec<Sender<Work>>,
    /// Partition cuts for delete-key routing.
    cuts: ShardCuts,
    /// Round-robin insert cursor (count of inserts so far).
    inserted: usize,
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
    /// Set once a worker is known dead: later calls fail fast in
    /// [`Client::admit`] instead of enqueueing doomed work on the
    /// surviving shards.
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

/// The shard-worker loop: exclusively owns one shard's inner engine,
/// drains its queue in FIFO order, posts partial results, and returns
/// the engine when stopped (for [`Service::shutdown`] to reassemble).
/// Reply sends ignore errors — a client that gave up on a reply is not
/// the worker's problem.
fn worker<E: Engine>(shard: usize, mut engine: E, queue: Receiver<Work>) -> E {
    while let Ok(work) = queue.recv() {
        match work {
            Work::Select { q, reply } => {
                let _ = reply.send((shard, engine.select(&q)));
            }
            Work::Join { q, reply } => {
                let _ = reply.send((shard, engine.join(&q)));
            }
            Work::Insert { row, reply } => {
                engine.insert(&row);
                let _ = reply.send(());
            }
            Work::Delete { key, reply } => {
                engine.delete(key);
                let _ = reply.send(());
            }
            Work::Stop => break,
        }
    }
    engine
}

/// A share-nothing query service over a [`ShardedEngine`]: long-lived
/// per-shard worker threads serving many concurrent [`Client`] handles.
/// See the module docs for the full design.
pub struct Service<E> {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<E>>,
}

impl<E: Engine + Send + 'static> Service<E> {
    /// Start serving `engine` with the default [`ServiceConfig`].
    ///
    /// # Errors
    /// [`ServiceError::WorkerLost`] if the operating system refuses a
    /// shard worker thread; the workers already started are stopped
    /// and joined first.
    pub fn start(engine: ShardedEngine<E>) -> Result<Self, ServiceError> {
        Self::with_config(engine, ServiceConfig::default())
    }

    /// Start serving `engine` with an explicit [`ServiceConfig`].
    ///
    /// # Errors
    /// See [`Service::start`].
    pub fn with_config(
        engine: ShardedEngine<E>,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let (cuts, shards, inserted) = engine.into_parts();
        let nshards = shards.len();
        let mut queues = Vec::with_capacity(nshards);
        let mut handles: Vec<JoinHandle<E>> = Vec::with_capacity(nshards);
        for (i, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = channel();
            let spawned = std::thread::Builder::new()
                .name(format!("crackdb-shard-{i}"))
                .spawn(move || worker(i, shard, rx));
            let Ok(handle) = spawned else {
                // A closed queue ends a worker's loop.
                drop(queues);
                for handle in handles {
                    let _ = handle.join();
                }
                return Err(ServiceError::WorkerLost);
            };
            queues.push(tx);
            handles.push(handle);
        }
        Ok(Service {
            shared: Arc::new(Shared {
                router: Mutex::new(Router {
                    queues,
                    cuts,
                    inserted,
                    next_seq: 0,
                    closed: false,
                }),
                in_flight: AtomicUsize::new(0),
                queue_depth: config.queue_depth.max(1),
                failed: AtomicBool::new(false),
            }),
            handles,
        })
    }

    /// A new client handle. Handles are cheap (an `Arc` clone),
    /// cloneable, and independently usable from any thread.
    pub fn client(&self) -> Client {
        Client {
            shared: self.shared.clone(),
            nshards: self.handles.len(),
        }
    }

    /// Number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.handles.len()
    }

    /// Requests currently in flight (queued or executing).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop admitting work, let every accepted
    /// request drain (the stop marker is FIFO-ordered behind them),
    /// join the workers and hand back the reassembled
    /// [`ShardedEngine`] — including all reorganization the served
    /// queries performed.
    ///
    /// # Panics
    /// Re-raises the original panic payload of a worker that died
    /// mid-query, after all surviving workers have been joined. When
    /// several workers died, the *first* shard's payload (most likely
    /// the root cause) is re-raised and the others are reported on
    /// stderr rather than silently dropped.
    pub fn shutdown(self) -> ShardedEngine<E> {
        let (cuts, inserted) = {
            let mut router = lock_unpoisoned(&self.shared.router);
            router.closed = true;
            for q in &router.queues {
                // A dead worker's queue is disconnected; its join below
                // reports the real failure.
                let _ = q.send(Work::Stop);
            }
            (router.cuts.clone(), router.inserted)
        };
        let mut shards = Vec::with_capacity(self.handles.len());
        let mut panic_payload = None;
        let mut later_panics = 0usize;
        for handle in self.handles {
            match handle.join() {
                Ok(engine) => shards.push(engine),
                Err(payload) if panic_payload.is_none() => panic_payload = Some(payload),
                Err(_) => later_panics += 1,
            }
        }
        if let Some(payload) = panic_payload {
            if later_panics > 0 {
                eprintln!(
                    "warning: {later_panics} further shard worker(s) also panicked; \
                     re-raising the first shard's payload"
                );
            }
            std::panic::resume_unwind(payload);
        }
        ShardedEngine::reassemble(cuts, shards, inserted)
    }
}

/// A handle for one client session of a [`Service`]: clone freely, one
/// per concurrent session. All calls block until the merged result is
/// available (closed-loop semantics); errors are [`ServiceError`]s, not
/// panics.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    nshards: usize,
}

impl Client {
    /// Execute a single-table query. Broadcast to every shard worker;
    /// partial results merge exactly as in [`ShardedEngine::select`].
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`], [`ServiceError::ShuttingDown`],
    /// or [`ServiceError::WorkerLost`].
    pub fn select(&self, q: &SelectQuery) -> Result<Reply, ServiceError> {
        let _slot = self.admit()?;
        // The shards run the query as asked; the one copy made of it is
        // the one the workers share.
        let shard_q = Arc::new(q.clone());
        let (reply_tx, reply_rx) = channel();
        let seq = self.broadcast(|| Work::Select {
            q: shard_q.clone(),
            reply: reply_tx.clone(),
        })?;
        drop(reply_tx);
        let outs = self.collect(reply_rx)?;
        let output = merge_select_outputs(q, outs);
        Ok(Reply { seq, output })
    }

    /// Execute a two-table join query (the engines must have been built
    /// with a second table, e.g. [`ShardedEngine::build_with_second`]).
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`], [`ServiceError::ShuttingDown`],
    /// or [`ServiceError::WorkerLost`].
    pub fn join(&self, q: &JoinQuery) -> Result<Reply, ServiceError> {
        let _slot = self.admit()?;
        let shard_q = Arc::new(q.clone());
        let (reply_tx, reply_rx) = channel();
        let seq = self.broadcast(|| Work::Join {
            q: shard_q.clone(),
            reply: reply_tx.clone(),
        })?;
        drop(reply_tx);
        let outs = self.collect(reply_rx)?;
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
        let _slot = self.admit()?;
        let (reply_tx, reply_rx) = channel();
        let (seq, key) = {
            let mut router = self.lock_router()?;
            let shard = router.inserted % router.queues.len();
            let key = (router.cuts.total_rows() + router.inserted) as RowId;
            let work = Work::Insert {
                row: row.to_vec(),
                reply: reply_tx,
            };
            router.queues[shard].send(work).map_err(|_| self.fail())?;
            router.inserted += 1;
            (router.commit(), key)
        };
        reply_rx.recv().map_err(|_| self.fail())?;
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
    /// client key must not panic a shard worker — plus the usual
    /// [`ServiceError::Overloaded`] / [`ServiceError::ShuttingDown`] /
    /// [`ServiceError::WorkerLost`].
    pub fn delete(&self, key: RowId) -> Result<WriteReply, ServiceError> {
        let _slot = self.admit()?;
        let (reply_tx, reply_rx) = channel();
        let seq = {
            let mut router = self.lock_router()?;
            let (shard, local) =
                locate_key(&router.cuts, router.queues.len(), router.inserted, key)
                    .ok_or(ServiceError::UnknownKey(key))?;
            let work = Work::Delete {
                key: local,
                reply: reply_tx,
            };
            router.queues[shard].send(work).map_err(|_| self.fail())?;
            router.commit()
        };
        reply_rx.recv().map_err(|_| self.fail())?;
        Ok(WriteReply { seq, key: None })
    }

    /// Number of shard workers behind this client.
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// Mark the service failed (a worker is gone) and return the error:
    /// later calls reject in O(1) at admission instead of enqueueing
    /// doomed work on the surviving shards.
    fn fail(&self) -> ServiceError {
        self.shared.failed.store(true, Ordering::Release);
        ServiceError::WorkerLost
    }

    /// Take an admission slot or fail fast.
    fn admit(&self) -> Result<Slot<'_>, ServiceError> {
        if self.shared.failed.load(Ordering::Acquire) {
            return Err(ServiceError::WorkerLost);
        }
        let in_flight = self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        if in_flight >= self.shared.queue_depth {
            self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
            return Err(ServiceError::Overloaded { in_flight });
        }
        Ok(Slot(&self.shared.in_flight))
    }

    /// Lock the router for sequencing, rejecting new work after
    /// shutdown began.
    fn lock_router(&self) -> Result<MutexGuard<'_, Router>, ServiceError> {
        let router = lock_unpoisoned(&self.shared.router);
        if router.closed {
            return Err(ServiceError::ShuttingDown);
        }
        Ok(router)
    }

    /// Sequence one read on every worker queue: the per-queue sends all
    /// happen inside the router critical section, which is what makes
    /// every worker see the same relative order of requests.
    fn broadcast(&self, mut work: impl FnMut() -> Work) -> Result<Seq, ServiceError> {
        let mut router = self.lock_router()?;
        for q in &router.queues {
            q.send(work()).map_err(|_| self.fail())?;
        }
        Ok(router.commit())
    }

    /// Collect one partial result per shard, in shard order. A
    /// disconnect before all replies arrive means a worker died.
    fn collect(&self, rx: Receiver<ShardReply>) -> Result<Vec<QueryOutput>, ServiceError> {
        let mut outs = Vec::with_capacity(self.nshards);
        for _ in 0..self.nshards {
            outs.push(rx.recv().map_err(|_| self.fail())?);
        }
        outs.sort_unstable_by_key(|&(shard, _)| shard);
        Ok(outs.into_iter().map(|(_, out)| out).collect())
    }
}

impl Router {
    /// Assign the next global sequence number (call after all of the
    /// request's queue sends succeeded).
    fn commit(&mut self) -> Seq {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::PlainEngine;
    use crackdb_columnstore::column::{Column, Table};
    use crackdb_columnstore::types::{AggFunc, RangePred};

    fn table(n: usize) -> Table {
        let mut t = Table::new();
        t.add_column(
            "a",
            Column::new((0..n as i64).map(|i| (i * 37) % 100).collect()),
        );
        t.add_column("b", Column::new((0..n as i64).collect()));
        t
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
        fn join(&mut self, _q: &JoinQuery) -> QueryOutput {
            unreachable!()
        }
        fn insert(&mut self, _row: &[Val]) {}
        fn delete(&mut self, _key: RowId) {}
    }

    #[test]
    fn admission_control_rejects_beyond_queue_depth() {
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let engine = ShardedEngine::reassemble(
            ShardCuts::even(0, 1),
            vec![Parked {
                entered: entered_tx,
                release: release_rx,
            }],
            0,
        );
        let config = ServiceConfig { queue_depth: 1 };
        let svc = Service::with_config(engine, config).unwrap();
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
        let engine = ShardedEngine::reassemble(
            ShardCuts::even(0, 1),
            vec![Parked {
                entered: entered_tx,
                release: release_rx,
            }],
            0,
        );
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
        fn join(&mut self, _q: &JoinQuery) -> QueryOutput {
            unreachable!()
        }
        fn insert(&mut self, _row: &[Val]) {}
        fn delete(&mut self, _key: RowId) {}
    }

    #[test]
    fn worker_panic_is_an_error_for_clients_and_resurfaces_at_shutdown() {
        let engine =
            ShardedEngine::reassemble(ShardCuts::even(0, 1), vec![Fused { calls: 0, boom: 2 }], 0);
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
        fn join(&mut self, _q: &JoinQuery) -> QueryOutput {
            unreachable!()
        }
        fn insert(&mut self, _row: &[Val]) {}
        fn delete(&mut self, _key: RowId) {}
    }

    #[test]
    fn after_worker_death_no_work_reaches_surviving_shards() {
        let calls = Arc::new(AtomicUsize::new(0));
        let engine = ShardedEngine::reassemble(
            ShardCuts::even(0, 2),
            vec![Duo::Counting(calls.clone()), Duo::Bomb],
            0,
        );
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
}
