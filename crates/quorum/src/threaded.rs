//! The sharded wall-clock execution backend.
//!
//! Runs the quorum protocol of §3.1 over OS threads and a real clock
//! instead of the discrete-event simulator, with three batching layers
//! stacked to push aggregate throughput past a million operations per
//! second while staying observably equivalent to the sim:
//!
//! * **Sharded client front-ends.** Clients are partitioned round-robin
//!   across `shards` worker threads. Each shard owns its clients'
//!   backlogs, logical clocks, and outcome tables outright — no locks —
//!   and runs *rounds*: one read phase and one write phase amortized
//!   over up to `batch` clients.
//! * **Batched request brokers.** Each replica is owned by exactly one
//!   worker thread (lock-light: the only sharing is `mpsc` channels
//!   between shards and brokers). A broker drains its inbox in batches —
//!   flush on size or deadline, in the style of prepare/commit brokers —
//!   and serves *writes before reads* within a batch, so reads observe
//!   the freshest merged state without any extra coordination.
//! * **Group commit.** A shard's whole round of executed operations is
//!   appended to replicas as *one* [`Msg::WriteReq`] carrying one merged
//!   batch log: the replica pays one merge — one frontier/Merkle
//!   refresh — per batch instead of per operation.
//!
//! The protocol rules are the *same code* as the sim backend: replicas
//! run `ReplicaState::on_message` over a channel-backed [`Transport`],
//! and every client is a sans-IO client core (`crate::client`) — its
//! clock, backlog, outcomes, routing, response rule and completion
//! predicates — that the shard drives through the same
//! `ReadReq`/`ReadResp`/`WriteReq`/`WriteAck` conversation the sim
//! client does. The shard itself keeps only round assembly, the batched
//! read phase, the shard view and value, group commit, and latency
//! patching. The sim stays the differential oracle: identical op
//! streams produce observably identical outcomes, final replica logs,
//! merged histories, and monitor transitions (exactly, for a single
//! client over a FIFO fixed-delay network; structurally, for racing
//! clients) — pinned by `tests/backend_oracle.rs`.
//!
//! Latencies here are wall-clock **nanoseconds** (recorded into the
//! registry on a [`TimeBase::WallNanos`] histogram), not sim ticks.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use relax_sim::NodeId;
use relax_trace::{DegradationMonitor, EventKind as TraceEvent, Registry, TimeBase};

use crate::assignment::VotingAssignment;
use crate::backend::{ClientTable, Executor, RunStats, Transport};
use crate::calm::SchedulingPolicy;
use crate::client::{self, ClientCore, Route, Rules};
use crate::log::Log;
use crate::relation::HasKind;
use crate::runtime::{Msg, Outcome, ReplicaState, ReplicatedType, ReplicationMode};
use crate::viewcache::ViewCache;

/// Knobs of the threaded backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadedConfig {
    /// Client front-end worker threads; clients are assigned round-robin
    /// (client `i` lives on shard `i % shards`).
    pub shards: usize,
    /// Maximum operations per shard round — the group-commit batch
    /// ceiling.
    pub batch: usize,
    /// Broker flush deadline in microseconds: with multiple shards in
    /// flight, a broker lingers this long for more requests before
    /// serving a short batch. Ignored (no linger) with one shard, where
    /// waiting could only add latency.
    pub flush_micros: u64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            shards: 1,
            batch: 64,
            flush_micros: 20,
        }
    }
}

/// A shard front-end: a set of clients plus the shard's merged view of
/// the replicas, maintained across rounds so each read phase ships only
/// deltas above the view's frontier.
struct ShardState<T: ReplicatedType> {
    /// The shard's clients, each owned by exactly one shard.
    clients: Vec<ClientCore<T>>,
    /// Merged view of everything this shard has read or written. Apart
    /// from `unsent` (the sim client's WAL), a lower bound on every
    /// reachable replica's log — reads merge their deltas in, writes land
    /// at all of them — so evaluating it reproduces the sim's per-op view.
    view: Log<T::Op>,
    /// The view's value, maintained incrementally when
    /// [`ReplicatedType::apply_commutes`] — each arriving entry is
    /// folded exactly once, in arrival order.
    value: T::Value,
    /// Suffix-replay evaluation for non-commutative types.
    cache: ViewCache<T::Value>,
    /// Entries awaiting the next group commit: the current round's, plus
    /// coordination-free ones from rounds that reached no replica.
    unsent: Log<T::Op>,
    /// Round-robin cursor so clients beyond the batch ceiling are not
    /// starved.
    cursor: usize,
    /// Rounds run so far (doubles as the round's correlation id).
    rounds: u64,
    /// Wall nanoseconds per available (completed or refused) operation.
    latencies: Vec<u64>,
    /// Operations per group commit.
    batch_sizes: Vec<u64>,
}

/// A message in flight between a shard and a broker.
type Packet<T> = (NodeId, Msg<T>);

/// An inbox slot: present for live workers, `None` for down replicas.
type Inbox<T> = Option<(mpsc::Sender<Packet<T>>, mpsc::Receiver<Packet<T>>)>;

/// The broker side's [`Transport`]: buffers sends so one batch flushes
/// together; no timers, randomness, or tracing (the threaded backend
/// runs replicas without gossip).
struct BrokerTransport<'a, T: ReplicatedType> {
    me: NodeId,
    outbox: &'a mut Vec<Packet<T>>,
}

impl<T: ReplicatedType> Transport<T> for BrokerTransport<'_, T> {
    fn me(&self) -> NodeId {
        self.me
    }

    fn now_ticks(&self) -> u64 {
        0
    }

    fn send(&mut self, dst: NodeId, msg: Msg<T>) {
        self.outbox.push((dst, msg));
    }

    fn set_timer(&mut self, _delay: u64, _token: u64) {}

    fn choose_peer(&mut self, _peers: &[NodeId]) -> Option<NodeId> {
        None
    }

    fn trace_enabled(&self) -> bool {
        false
    }

    fn trace(&mut self, _event: TraceEvent) {}
}

/// The sharded wall-clock backend: `n` replicas, each owned by a broker
/// thread, and `c` clients spread over shard front-end threads. See the
/// module docs for the dataflow; construct, [`ThreadedSystem::submit_to`],
/// then [`ThreadedSystem::run_all`] (repeatable — state persists across
/// runs, like the sim).
pub struct ThreadedSystem<T: ReplicatedType> {
    rules: Rules<T>,
    config: ThreadedConfig,
    n_replicas: usize,
    n_clients: usize,
    replicas: Vec<ReplicaState<T>>,
    shards: Vec<ShardState<T>>,
    /// Replicas currently unreachable (the wall-clock analogue of a sim
    /// crash or a partition isolating them from every client).
    down: BTreeSet<usize>,
    monitor: Option<DegradationMonitor<T::Op>>,
    monitor_seen: Vec<usize>,
    registry: Registry,
}

impl<T: ReplicatedType> std::fmt::Debug for ThreadedSystem<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedSystem")
            .field("n_replicas", &self.n_replicas)
            .field("n_clients", &self.n_clients)
            .field("config", &self.config)
            .field("down", &self.down)
            .finish_non_exhaustive()
    }
}

impl<T: ReplicatedType> ThreadedSystem<T> {
    /// Builds a system with `n_replicas` replicas and `n_clients`
    /// clients over the given quorum assignment.
    ///
    /// # Panics
    ///
    /// Panics if `n_clients == 0`, the config has zero shards or batch,
    /// or the assignment covers a different replica count.
    pub fn new(
        ttype: T,
        n_replicas: usize,
        n_clients: usize,
        assignment: VotingAssignment<<T::Op as HasKind>::Kind>,
        config: ThreadedConfig,
    ) -> Self {
        assert!(n_clients >= 1, "need at least one client");
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.batch >= 1, "need a positive batch ceiling");
        assert_eq!(
            assignment.n_sites(),
            n_replicas,
            "assignment must cover exactly the replica set"
        );
        let replica_ids: Arc<[NodeId]> = (0..n_replicas).map(NodeId).collect();
        let replicas = (0..n_replicas)
            .map(|_| ReplicaState::new(Arc::clone(&replica_ids), ReplicationMode::default()))
            .collect();
        let n_shards = config.shards.min(n_clients);
        let mut shards: Vec<ShardState<T>> = (0..n_shards)
            .map(|_| ShardState {
                clients: Vec::new(),
                view: Log::new(),
                value: ttype.initial_value(),
                cache: ViewCache::new(),
                unsent: Log::new(),
                cursor: 0,
                rounds: 0,
                latencies: Vec::new(),
                batch_sizes: Vec::new(),
            })
            .collect();
        for c in 0..n_clients {
            // Client c's timestamp site matches the sim's node id n + c,
            // so both backends mint identical timestamps.
            shards[c % n_shards]
                .clients
                .push(ClientCore::new(n_replicas + c));
        }
        ThreadedSystem {
            rules: Rules::new(ttype, assignment),
            config: ThreadedConfig {
                shards: n_shards,
                ..config
            },
            n_replicas,
            n_clients,
            replicas,
            shards,
            down: BTreeSet::new(),
            monitor: None,
            monitor_seen: vec![0; n_clients],
            registry: Registry::new(),
        }
    }

    /// Installs a CALM scheduling policy (builder-style; the default
    /// frees nothing). Kinds the policy marks free bypass the read phase
    /// of a shard round entirely: they execute against the initial value,
    /// mint a timestamp, and ride the round's group commit without
    /// waiting on any quorum — a round of only free invocations performs
    /// no read round-trip at all.
    #[must_use]
    pub fn with_scheduling(mut self, policy: SchedulingPolicy<<T::Op as HasKind>::Kind>) -> Self {
        self.rules.policy = policy;
        self
    }

    /// Fast-path vs. quorum-path invocation counts summed across all
    /// shards, as `(calm_fast, calm_quorum)`.
    pub fn calm_op_counts(&self) -> (u64, u64) {
        client::calm_op_counts(self.shards.iter().flat_map(|s| &s.clients))
    }

    /// Attaches an online degradation monitor (builder-style): completed
    /// operations are fed to it in client-index order after each
    /// [`ThreadedSystem::run_all`].
    #[must_use]
    pub fn with_monitor(mut self, monitor: DegradationMonitor<T::Op>) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// The attached degradation monitor, if any.
    pub fn monitor(&self) -> Option<&DegradationMonitor<T::Op>> {
        self.monitor.as_ref()
    }

    /// Marks replica `i` unreachable: shards neither read from nor write
    /// to it, exactly like a sim client racing a crashed or partitioned
    /// site (requests into the void, no responses).
    pub fn crash(&mut self, i: usize) {
        assert!(i < self.n_replicas, "replica index out of range");
        self.down.insert(i);
    }

    /// Makes replica `i` reachable again. Its log still holds everything
    /// from before the crash (stable storage), but nothing written while
    /// it was down.
    pub fn recover(&mut self, i: usize) {
        assert!(i < self.n_replicas, "replica index out of range");
        self.down.remove(&i);
    }

    /// The wall-clock metrics: `realtime_op_latency_nanos` (p50/p99 come
    /// from here), `realtime_commit_batch_ops`, `realtime_shard_rounds`.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shard→client index mapping: client `ix` is slot
    /// `ix / shards` of shard `ix % shards`.
    fn locate(&self, ix: usize) -> (usize, usize) {
        assert!(ix < self.n_clients, "client index out of range");
        (ix % self.config.shards, ix / self.config.shards)
    }

    /// Feeds newly completed operations (client-index order) to the
    /// attached monitor.
    fn poll_monitor(&mut self) {
        if self.monitor.is_none() {
            return;
        }
        for ix in 0..self.n_clients {
            let (s, c) = self.locate(ix);
            let outcomes = &self.shards[s].clients[c].outcomes;
            let monitor = self.monitor.as_mut().expect("checked above");
            for o in &outcomes[self.monitor_seen[ix]..] {
                if let Outcome::Completed { op, .. } = o {
                    monitor.observe(op);
                }
            }
            self.monitor_seen[ix] = outcomes.len();
        }
    }
}

impl<T: ReplicatedType> ClientTable<T> for ThreadedSystem<T> {
    fn n_clients(&self) -> usize {
        self.n_clients
    }

    fn outcomes_of(&self, ix: usize) -> &[Outcome<T::Op>] {
        let (s, c) = self.locate(ix);
        &self.shards[s].clients[c].outcomes
    }
}

impl<T> Executor<T> for ThreadedSystem<T>
where
    T: ReplicatedType + Sync,
    T::Op: Send + Sync,
    T::Inv: Send,
    T::Value: Send,
    <T::Op as HasKind>::Kind: Sync,
{
    fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    fn submit_to(&mut self, ix: usize, inv: T::Inv) {
        let (s, c) = self.locate(ix);
        self.shards[s].clients[c].submit(inv);
    }

    /// Spawns one broker thread per reachable replica and one front-end
    /// thread per shard, drains every backlog, and joins. Latency
    /// samples land in [`ThreadedSystem::registry`] under the wall-nanos
    /// time base.
    fn run_all(&mut self) -> RunStats {
        let outcome_total = |sys: &Self| -> usize {
            sys.shards
                .iter()
                .flat_map(|s| s.clients.iter())
                .map(|c| c.outcomes.len())
                .sum()
        };
        let before = outcome_total(self);
        let start = Instant::now();

        let n = self.n_replicas;
        let reachable: Vec<usize> = (0..n).filter(|i| !self.down.contains(i)).collect();
        let batch_cap = self.config.batch;
        // Brokers linger for cross-shard batches only when there is more
        // than one shard to batch across.
        let linger = (self.config.shards > 1 && self.config.flush_micros > 0)
            .then(|| Duration::from_micros(self.config.flush_micros));
        let broker_cap = (2 * self.config.shards).max(4);
        let down = &self.down;
        let rules = &self.rules;
        let reachable_ref = &reachable;

        // Channels: one inbox per reachable replica, one response inbox
        // per shard. The main thread moves every sender into a worker,
        // so brokers exit when the last shard drops its senders.
        let mut rep_inboxes: Vec<Inbox<T>> = (0..n)
            .map(|i| (!down.contains(&i)).then(mpsc::channel))
            .collect();
        let rep_txs: Vec<Option<mpsc::Sender<Packet<T>>>> = rep_inboxes
            .iter()
            .map(|o| o.as_ref().map(|(tx, _)| tx.clone()))
            .collect();
        let mut shard_inboxes: Vec<Inbox<T>> = (0..self.config.shards)
            .map(|_| Some(mpsc::channel()))
            .collect();
        let shard_txs: Vec<mpsc::Sender<Packet<T>>> = shard_inboxes
            .iter()
            .map(|o| o.as_ref().map(|(tx, _)| tx.clone()).expect("just built"))
            .collect();

        std::thread::scope(|sc| {
            for (i, rep) in self.replicas.iter_mut().enumerate() {
                let Some((_, rx)) = rep_inboxes[i].take() else {
                    continue; // down: no broker, requests go nowhere
                };
                let shard_txs = shard_txs.clone();
                sc.spawn(move || run_broker(rep, NodeId(i), rx, shard_txs, n, broker_cap, linger));
            }
            drop(shard_txs);
            for (s, shard) in self.shards.iter_mut().enumerate() {
                let (_, rx) = shard_inboxes[s].take().expect("one take per shard");
                let to_replicas: Vec<Option<mpsc::Sender<Packet<T>>>> = rep_txs.clone();
                sc.spawn(move || {
                    run_shard(
                        shard,
                        rules,
                        reachable_ref,
                        &to_replicas,
                        &rx,
                        NodeId(n + s),
                        batch_cap,
                    );
                });
            }
            drop(rep_txs);
        });

        let ops = (outcome_total(self) - before) as u64;
        let wall_nanos = (start.elapsed().as_nanos() as u64).max(1);

        let mut rounds = 0;
        for shard in &mut self.shards {
            rounds += shard.rounds;
            let hist = self
                .registry
                .histogram_in("realtime_op_latency_nanos", TimeBase::WallNanos);
            for nanos in shard.latencies.drain(..) {
                hist.record(nanos);
            }
            let commits = self.registry.histogram("realtime_commit_batch_ops");
            for size in shard.batch_sizes.drain(..) {
                commits.record(size);
            }
        }
        self.registry
            .gauge("realtime_shard_rounds")
            .set(rounds as i64);
        let (calm_fast, calm_quorum) = self.calm_op_counts();
        self.registry.gauge("calm_fast_ops").set(calm_fast as i64);
        self.registry
            .gauge("calm_quorum_ops")
            .set(calm_quorum as i64);
        self.poll_monitor();
        RunStats { ops, wall_nanos }
    }

    fn replica_log(&self, i: usize) -> &Log<T::Op> {
        assert!(i < self.n_replicas, "replica index out of range");
        self.replicas[i].log()
    }
}

/// The broker loop: drain the inbox in batches (flush on size or
/// deadline), serve writes before reads, flush responses per batch. The
/// replica's protocol behaviour is [`ReplicaState::on_message`] — the
/// exact state machine the sim runs.
fn run_broker<T: ReplicatedType>(
    rep: &mut ReplicaState<T>,
    me: NodeId,
    rx: mpsc::Receiver<Packet<T>>,
    shard_txs: Vec<mpsc::Sender<Packet<T>>>,
    n_replicas: usize,
    cap: usize,
    linger: Option<Duration>,
) {
    let mut batch: Vec<Packet<T>> = Vec::with_capacity(cap);
    let mut outbox: Vec<Packet<T>> = Vec::new();
    loop {
        let Ok(first) = rx.recv() else {
            return; // every shard finished and dropped its sender
        };
        batch.push(first);
        while batch.len() < cap {
            match rx.try_recv() {
                Ok(m) => batch.push(m),
                Err(_) => break,
            }
        }
        if let Some(linger) = linger {
            let deadline = Instant::now() + linger;
            while batch.len() < cap {
                let now = Instant::now();
                let Some(left) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                match rx.recv_timeout(left) {
                    Ok(m) => batch.push(m),
                    Err(_) => break,
                }
            }
        }
        // Writes before reads (stable: per-shard order within each class
        // is preserved, and a shard never has a read and a write in
        // flight at once): the batch's reads see every write of the
        // batch, and the replica pays one merged-state refresh for the
        // whole group.
        batch.sort_by_key(|(_, m)| matches!(m, Msg::ReadReq { .. }));
        let mut ctx = BrokerTransport {
            me,
            outbox: &mut outbox,
        };
        for (from, msg) in batch.drain(..) {
            rep.on_message(&mut ctx, from, msg);
        }
        for (dst, msg) in outbox.drain(..) {
            // Shard `s` is node `n + s`. A send can only fail if the
            // shard exited, which it cannot do while awaiting us.
            let _ = shard_txs[dst.0 - n_replicas].send((me, msg));
        }
    }
}

/// The shard front-end loop: rounds of up to `batch_cap` clients, one
/// invocation each — one batched read phase, client-order execution
/// against the shard view, one group-committed write phase.
fn run_shard<T: ReplicatedType>(
    shard: &mut ShardState<T>,
    rules: &Rules<T>,
    reachable: &[usize],
    to_replicas: &[Option<mpsc::Sender<Packet<T>>>],
    from_replicas: &mpsc::Receiver<Packet<T>>,
    me: NodeId,
    batch_cap: usize,
) {
    let ttype = &rules.ttype;
    let commutes = ttype.apply_commutes();
    let broadcast = |msg: &Msg<T>| {
        for &r in reachable {
            let to = to_replicas[r].as_ref().expect("reachable ⇒ broker");
            let _ = to.send((me, msg.clone()));
        }
    };
    loop {
        // Assemble the round: pending clients from the cursor, wrapping,
        // up to the batch ceiling, each with its next invocation's route.
        let n_clients = shard.clients.len();
        let mut round: Vec<(usize, Route)> = Vec::with_capacity(batch_cap.min(n_clients));
        for off in 0..n_clients {
            let ci = (shard.cursor + off) % n_clients;
            if let Some(inv) = shard.clients[ci].peek() {
                round.push((ci, rules.route(inv)));
                if round.len() >= batch_cap {
                    break;
                }
            }
        }
        let Some(&(last, _)) = round.last() else {
            return; // all backlogs drained
        };
        shard.cursor = (last + 1) % n_clients;
        shard.rounds += 1;
        let round_id = shard.rounds;
        let t0 = Instant::now();

        let ShardState {
            clients,
            view,
            value,
            cache,
            unsent,
            latencies,
            batch_sizes,
            ..
        } = shard;

        // Read phase, once for the whole round — skipped when no
        // operation of the round actually assembles an initial quorum
        // (zero-size quorums respond against the empty view, oversize
        // ones time out; neither reads). CALM-free invocations never
        // contribute: a round of only monotone operations bypasses the
        // read phase entirely.
        let needs_read = round
            .iter()
            .any(|&(_, route)| route.reads() && route.read_assembled(reachable.len()));
        if needs_read {
            broadcast(&Msg::ReadReq {
                inv_id: round_id,
                known: Some(view.frontier()),
            });
            let mut got = 0;
            while got < reachable.len() {
                match from_replicas.recv() {
                    Ok((_, Msg::ReadResp { inv_id, log })) if inv_id == round_id => {
                        // Deltas from different replicas overlap (each is
                        // relative to the same shard frontier): fold each
                        // genuinely new entry exactly once.
                        if commutes {
                            for e in log.entries() {
                                let fresh = view
                                    .entries()
                                    .binary_search_by_key(&e.ts, |x| x.ts)
                                    .is_err();
                                if fresh {
                                    ttype.apply_mut(value, &e.op);
                                }
                            }
                        }
                        view.merge(&log);
                        got += 1;
                    }
                    Ok(_) => {}
                    Err(_) => return, // brokers gone: nothing left to await
                }
            }
        }

        // Execute the round's invocations in client order against the
        // (evolving) shard view — the client core's rules per op, exactly
        // as the sim client applies them.
        for &(ci, route) in &round {
            let client = &mut clients[ci];
            let inv = client.take(route);
            if !route.read_assembled(reachable.len()) {
                // The initial quorum can never assemble.
                client.outcomes.push(Outcome::TimedOut);
                continue;
            }
            let evaluated;
            let seen = if !route.reads() {
                None // the fast path and zero initial quorums read nothing
            } else if commutes {
                Some((view.max_timestamp(), &*value))
            } else {
                evaluated = cache.eval(view, ttype.initial_value(), |v, op| ttype.apply_mut(v, op));
                Some((view.max_timestamp(), &evaluated))
            };
            let Some(entry) = client.respond(rules, &inv, seen) else {
                client.outcomes.push(Outcome::Refused { latency: 0 });
                continue;
            };
            let done = route.write_done(reachable.len());
            let op = entry.op.clone();
            if done || !reachable.is_empty() {
                // The entry joins the view and the next group commit
                // unless it timed out with no replica reachable: that one
                // is lost outright (only the clock tick remains), as in
                // the sim. A free entry completes even then and waits in
                // `unsent` for a commit that reaches a replica, as the
                // sim's WAL does; a timed-out one still lands at the
                // reachable replicas, as the sim's timed-out writes do.
                if commutes {
                    ttype.apply_mut(value, &entry.op);
                }
                unsent.insert(entry.clone());
                view.insert(entry);
            }
            client.outcomes.push(if done {
                Outcome::Completed { op, latency: 0 }
            } else {
                Outcome::TimedOut
            });
        }

        // Group commit: the pending appends travel as one WriteReq per
        // reachable replica and merge in one batch. The shard holds
        // `req` until the acks arrive, so it (not a broker) frees the
        // batch: cross-thread frees raised peak RSS in measurement.
        if !unsent.is_empty() && !reachable.is_empty() {
            batch_sizes.push(unsent.len() as u64);
            let req = Msg::WriteReq {
                inv_id: round_id,
                log: Arc::new(std::mem::take(unsent)),
            };
            broadcast(&req);
            let mut acks = 0;
            while acks < reachable.len() {
                match from_replicas.recv() {
                    Ok((_, Msg::WriteAck { inv_id })) if inv_id == round_id => acks += 1,
                    Ok(_) => {}
                    Err(_) => return,
                }
            }
        }

        // The whole round shares one wall-clock latency reading; patch
        // it into the outcomes just pushed (timeouts carry none).
        let nanos = (t0.elapsed().as_nanos() as u64).max(1);
        for &(ci, _) in &round {
            if let Some(Outcome::Completed { latency, .. } | Outcome::Refused { latency }) =
                clients[ci].outcomes.last_mut()
            {
                *latency = nanos;
                latencies.push(nanos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::QueueKind;
    use crate::runtime::{
        queue_lattice_monitor, AccountInv, BankAccountType, QueueInv, TaxiQueueType,
    };
    use relax_queues::QueueOp;

    fn taxi_assignment(n: usize) -> VotingAssignment<QueueKind> {
        let maj = n / 2 + 1;
        VotingAssignment::new(n)
            .with_initial(QueueKind::Deq, maj)
            .with_final(QueueKind::Deq, maj)
            .with_initial(QueueKind::Enq, 1)
            .with_final(QueueKind::Enq, n - maj + 1)
    }

    #[test]
    fn healthy_taxi_run_matches_the_paper_protocol() {
        let mut sys = ThreadedSystem::new(
            TaxiQueueType,
            3,
            1,
            taxi_assignment(3),
            ThreadedConfig::default(),
        )
        .with_monitor(queue_lattice_monitor());
        sys.submit_to(0, QueueInv::Enq(2));
        sys.submit_to(0, QueueInv::Enq(9));
        sys.submit_to(0, QueueInv::Deq);
        sys.submit_to(0, QueueInv::Deq);
        let stats = sys.run_all();
        assert_eq!(stats.ops, 4);
        let outcomes = sys.outcomes_of(0);
        assert!(outcomes.iter().all(Outcome::is_completed));
        assert!(matches!(
            outcomes[2],
            Outcome::Completed {
                op: QueueOp::Deq(9),
                ..
            }
        ));
        assert!(matches!(
            outcomes[3],
            Outcome::Completed {
                op: QueueOp::Deq(2),
                ..
            }
        ));
        // Sequential single-client use degrades nothing.
        assert!(sys.monitor().expect("attached").transitions().is_empty());
        // All three replicas converged on the full log.
        for i in 0..3 {
            assert_eq!(sys.replica_log(i).len(), 4, "replica {i}");
        }
        // Wall-clock latencies landed on the nanos time base.
        let hist = sys
            .registry()
            .get_histogram("realtime_op_latency_nanos")
            .expect("recorded");
        assert_eq!(hist.time_base(), TimeBase::WallNanos);
        assert_eq!(hist.len(), 4);
    }

    #[test]
    fn crashed_majority_times_ops_out_but_writes_persist() {
        let mut sys = ThreadedSystem::new(
            TaxiQueueType,
            3,
            1,
            taxi_assignment(3),
            ThreadedConfig::default(),
        );
        sys.crash(0);
        sys.crash(1);
        // Enq reads a quorum of 1 but must record at 2: the write phase
        // times out, yet the entry persists at the reachable replica.
        sys.submit_to(0, QueueInv::Enq(4));
        sys.submit_to(0, QueueInv::Deq); // needs a majority to even read
        sys.run_all();
        let outcomes = sys.outcomes_of(0);
        assert!(outcomes[0].is_timeout());
        assert!(outcomes[1].is_timeout());
        assert_eq!(sys.replica_log(2).len(), 1, "timed-out write still lands");
        assert_eq!(sys.replica_log(0).len(), 0, "crashed replica got nothing");
        // Recovery restores availability; the old write is still there.
        sys.recover(0);
        sys.recover(1);
        sys.submit_to(0, QueueInv::Deq);
        sys.run_all();
        assert!(matches!(
            sys.outcomes_of(0)[2],
            Outcome::Completed {
                op: QueueOp::Deq(4),
                ..
            }
        ));
    }

    #[test]
    fn sharded_account_run_group_commits() {
        let assignment = VotingAssignment::new(3)
            .with_initial(crate::relation::AccountKind::Credit, 1)
            .with_final(crate::relation::AccountKind::Credit, 1)
            .with_initial(crate::relation::AccountKind::Debit, 1)
            .with_final(crate::relation::AccountKind::Debit, 3);
        let clients = 32;
        let mut sys = ThreadedSystem::new(
            BankAccountType,
            3,
            clients,
            assignment,
            ThreadedConfig {
                shards: 4,
                batch: 8,
                flush_micros: 5,
            },
        );
        for c in 0..clients {
            for _ in 0..8 {
                sys.submit_to(c, AccountInv::Credit(1));
            }
        }
        let stats = sys.run_all();
        assert_eq!(stats.ops, (clients * 8) as u64);
        for c in 0..clients {
            assert_eq!(sys.outcomes_of(c).len(), 8);
            assert!(sys.outcomes_of(c).iter().all(Outcome::is_completed));
        }
        // Every credit reached every replica exactly once.
        for i in 0..3 {
            assert_eq!(sys.replica_log(i).len(), clients * 8, "replica {i}");
        }
        assert_eq!(sys.merged_history().len(), clients * 8);
        // Group commit actually batched: fewer commits than operations.
        let commits = sys
            .registry()
            .get_histogram("realtime_commit_batch_ops")
            .expect("recorded");
        assert!(
            commits.len() < clients * 8,
            "expected multi-op group commits, got {} commits",
            commits.len()
        );
    }

    #[test]
    fn calm_fast_path_skips_the_read_phase_and_survives_lost_quorums() {
        use crate::calm::SchedulingPolicy;
        use crate::relation::AccountKind;
        let assignment = VotingAssignment::new(3)
            .with_initial(AccountKind::Credit, 1)
            .with_final(AccountKind::Credit, 3)
            .with_initial(AccountKind::Debit, 3)
            .with_final(AccountKind::Debit, 1);
        let mut sys =
            ThreadedSystem::new(BankAccountType, 3, 1, assignment, ThreadedConfig::default())
                .with_scheduling(SchedulingPolicy::coordination_free([AccountKind::Credit]));
        // Two replicas down: quorum credits would time out (final quorum
        // of 3), debits cannot even read — but free credits complete.
        sys.crash(0);
        sys.crash(1);
        sys.submit_to(0, AccountInv::Credit(5));
        sys.submit_to(0, AccountInv::Debit(1));
        sys.run_all();
        let outcomes = sys.outcomes_of(0);
        assert!(outcomes[0].is_completed(), "free credit is 100% available");
        assert!(outcomes[1].is_timeout(), "quorum debit still degrades");
        assert_eq!(sys.replica_log(2).len(), 1, "credit rode the group commit");
        assert_eq!(sys.calm_op_counts(), (1, 1));
        // After recovery the debit observes the fast-path credit.
        sys.recover(0);
        sys.recover(1);
        sys.submit_to(0, AccountInv::Debit(5));
        sys.run_all();
        assert!(matches!(
            sys.outcomes_of(0)[2],
            Outcome::Completed {
                op: relax_queues::AccountOp::DebitOk(5),
                ..
            }
        ));
        assert_eq!(sys.calm_op_counts(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "replica index out of range")]
    fn recover_rejects_an_out_of_range_replica() {
        let mut sys = ThreadedSystem::new(
            TaxiQueueType,
            3,
            1,
            taxi_assignment(3),
            ThreadedConfig::default(),
        );
        sys.recover(3);
    }

    /// Multi-shard stress: well past the single-shard sweet spot, mixing
    /// CALM-free credits with quorum debits across 8 shards × 64 clients.
    /// Ignored by default (spins 11 OS threads and ~1.5k ops); CI runs it
    /// explicitly with `RELAX_BENCH_THREADS` set — see `ci.yml`.
    #[test]
    #[ignore = "multi-shard stress; CI runs it explicitly via --ignored"]
    fn multi_shard_stress_converges_with_mixed_scheduling() {
        use crate::calm::SchedulingPolicy;
        use crate::relation::AccountKind;
        let assignment = VotingAssignment::new(3)
            .with_initial(AccountKind::Credit, 1)
            .with_final(AccountKind::Credit, 1)
            .with_initial(AccountKind::Debit, 2)
            .with_final(AccountKind::Debit, 2);
        let clients = 64;
        let per_client_credits = 16u64;
        let per_client_debits = 4u64;
        let mut sys = ThreadedSystem::new(
            BankAccountType,
            3,
            clients,
            assignment,
            ThreadedConfig {
                shards: 8,
                batch: 16,
                flush_micros: 5,
            },
        )
        .with_scheduling(SchedulingPolicy::coordination_free([AccountKind::Credit]));
        for c in 0..clients {
            for i in 0..per_client_credits {
                sys.submit_to(c, AccountInv::Credit(1 + (i % 3) as u32));
            }
            for _ in 0..per_client_debits {
                sys.submit_to(c, AccountInv::Debit(1));
            }
        }
        let total = clients as u64 * (per_client_credits + per_client_debits);
        let stats = sys.run_all();
        assert_eq!(stats.ops, total);
        for c in 0..clients {
            assert!(
                sys.outcomes_of(c).iter().all(Outcome::is_completed),
                "client {c} left degraded outcomes"
            );
        }
        // Every operation (fast or quorum) reached every replica.
        for i in 0..3 {
            assert_eq!(sys.replica_log(i).len(), total as usize, "replica {i}");
        }
        assert_eq!(sys.merged_history().len(), total as usize);
        assert_eq!(
            sys.calm_op_counts(),
            (
                clients as u64 * per_client_credits,
                clients as u64 * per_client_debits
            )
        );
    }
}
