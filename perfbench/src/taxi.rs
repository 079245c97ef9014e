//! `taxi_partitioned_sim`: the replicated taxi queue in the
//! discrete-event simulator, under rotating partitions.
//!
//! [`QuorumSystem<TaxiQueueType>`] with Merkle anti-entropy gossip, 3
//! replicas (majority Deq quorums; Enq initial 1 / final 2) and 4
//! clients over a network with uniform 1–5 tick delays and no loss. The
//! fault schedule isolates one replica together with one client for
//! [`PARTITION_TICKS`], heals for [`HEAL_TICKS`], and rotates the pair;
//! the last window stays partitioned until every client is idle, and the
//! benchmark then applies the final heal and steps until all replica
//! logs are equal.
//!
//! The load is a closed loop driven from the benchmark's thread: each
//! client has one seeded invocation (Enq or Deq, about 1:1) in flight,
//! and the next is submitted the moment the previous one's outcome
//! appears. Outcomes and tick latencies are deterministic per seed;
//! wall latencies are what the simulator costs per operation.

use std::collections::HashSet;
use std::time::Instant;

use relax_automata::{EngineProbe, SplitMix64};
use relax_queues::QueueOp;
use relax_quorum::relation::QueueKind;
use relax_quorum::runtime::{Outcome, QueueInv, TaxiQueueType};
use relax_quorum::{
    queue_lattice_monitor, ClientConfig, QuorumSystem, ReplicationMode, VotingAssignment,
};
use relax_sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};
use relax_trace::{Histogram, Probe};

use crate::measure::{
    mean_of, median, median_of, merge_cost_us, merge_folded, nproc, overhead_pct, peak_rss_mb,
    render_folded, set_traced_medians, traced_episode, Pick, RunResult, Traced, Usage,
    SETUP_SAMPLES,
};

const REPLICAS: usize = 3;
const CLIENTS: usize = 4;
/// Ticks each partition window lasts.
const PARTITION_TICKS: u64 = 300;
/// Ticks each heal between partition windows lasts.
const HEAL_TICKS: u64 = 150;
/// Partition windows before the last one.
const WINDOWS: u64 = 16;
/// Clients stop submitting halfway through the last partition window.
const STOP_AT: u64 = WINDOWS * (PARTITION_TICKS + HEAL_TICKS) + PARTITION_TICKS / 2;
/// Anti-entropy gossip interval in ticks.
const GOSSIP_TICKS: u64 = 25;
/// Ticks after [`STOP_AT`] within which every operation must finish
/// (a client times out each phase after 200 ticks).
const DRAIN_CAP_TICKS: u64 = 2_000;
/// Ticks after the final heal within which replicas must converge.
const CONVERGE_CAP_TICKS: u64 = 20_000;
/// Episodes a run makes at least.
const MIN_EPISODES: usize = 4;

fn taxi_assignment(n: usize) -> VotingAssignment<QueueKind> {
    let maj = n / 2 + 1;
    VotingAssignment::new(n)
        .with_initial(QueueKind::Deq, maj)
        .with_final(QueueKind::Deq, maj)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, n - maj + 1)
}

/// The rotating partition schedule: window `k` isolates replica `k % 3`
/// with client `k % 4`; every window but the last is followed by a heal.
fn schedule() -> FaultSchedule {
    let mut s = FaultSchedule::new();
    for k in 0..=WINDOWS {
        let t0 = k * (PARTITION_TICKS + HEAL_TICKS);
        let replica = NodeId(k as usize % REPLICAS);
        let client = NodeId(REPLICAS + k as usize % CLIENTS);
        let rest: Vec<NodeId> = (0..REPLICAS + CLIENTS)
            .map(NodeId)
            .filter(|&n| n != replica && n != client)
            .collect();
        s = s.at(
            SimTime(t0),
            Fault::Partition(Partition::groups(vec![vec![replica, client], rest])),
        );
        if k < WINDOWS {
            s = s.at(SimTime(t0 + PARTITION_TICKS), Fault::Heal);
        }
    }
    s
}

/// A client's seeded invocation stream: Enq or Deq with equal odds;
/// enqueued priorities are random and unique within the episode.
struct Traffic {
    rng: SplitMix64,
    enqueued: u64,
}

impl Traffic {
    fn next(&mut self, client: usize) -> QueueInv {
        if self.rng.next_u64().is_multiple_of(2) {
            self.enqueued += 1;
            let prio = self.rng.range_u64(0, 999_999) * 100_000;
            QueueInv::Enq((prio + self.enqueued * CLIENTS as u64 + client as u64) as i64)
        } else {
            QueueInv::Deq
        }
    }
}

/// What one episode measured.
#[derive(Debug, Default)]
struct Episode {
    traced: bool,
    build_s: f64,
    submit_s: f64,
    /// Wall seconds of the closed-loop phase.
    wall_s: f64,
    usage: Usage,
    attempted: u64,
    available: u64,
    p50_wall_ns: u64,
    p95_wall_ns: u64,
    p99_wall_ns: u64,
    p50_ticks: u64,
    p99_ticks: u64,
    converge_ticks: u64,
    deq: (u64, u64),
    enq: (u64, u64),
    events: u64,
    msgs: u64,
    msgs_lost: u64,
    bytes: u64,
    vc_hit_frac: f64,
    vc_replayed: u64,
    vc_checkpoint_hits: u64,
    merkle_rounds: u64,
    merkle_nodes: u64,
    repair_bytes: u64,
    step_ns: f64,
    observe_ns: f64,
    /// The strongest taxi lattice level the merged history inhabits.
    level: String,
    replica_entries: u64,
    splice_us: f64,
    append_us: f64,
    /// The runtime's own profile (`step` / `monitor` spans), folded.
    runtime_folded: String,
}

impl Traced for Episode {
    fn traced(&self) -> bool {
        self.traced
    }
}

impl Episode {
    fn ops_per_sec(&self) -> f64 {
        self.available as f64 / self.wall_s
    }
}

/// Are all replica logs equal? Length plus whole-log XOR hash: O(1).
fn logs_agree(sys: &QuorumSystem<TaxiQueueType>) -> bool {
    let l0 = sys.replica_log(0);
    (1..REPLICAS).all(|i| {
        let li = sys.replica_log(i);
        li.len() == l0.len() && li.prefix_hash(li.len()) == l0.prefix_hash(l0.len())
    })
}

/// A built system with every client's first invocation submitted.
struct Loaded {
    sys: QuorumSystem<TaxiQueueType>,
    traffic: Vec<Traffic>,
    /// Each client's invocations so far, in submission order.
    invs: Vec<Vec<QueueInv>>,
    /// When each client's latest invocation was submitted.
    submitted_at: Vec<Instant>,
    build_s: f64,
    submit_s: f64,
}

/// Builds the system (profiled and wire-accounted when `traced`),
/// installs the fault schedule, and submits the first invocations.
fn setup(mut rng: SplitMix64, traced: bool, probe: &mut Probe) -> Loaded {
    probe.enter("setup");
    let t = Instant::now();
    probe.enter("build");
    let mut sys = QuorumSystem::with_clients(
        TaxiQueueType,
        REPLICAS,
        CLIENTS,
        taxi_assignment(REPLICAS),
        ClientConfig::default(),
        NetworkConfig::new(1, 5, 0.0),
        rng.next_u64(),
    )
    .with_replication(ReplicationMode::Merkle)
    .with_gossip(GOSSIP_TICKS);
    if traced {
        sys = sys.with_profile().with_wire_accounting();
    }
    sys.world_mut().set_schedule(schedule());
    probe.exit("build");
    let build_s = t.elapsed().as_secs_f64();

    let mut traffic: Vec<Traffic> = (0..CLIENTS)
        .map(|_| Traffic {
            rng: rng.fork(),
            enqueued: 0,
        })
        .collect();
    let mut invs: Vec<Vec<QueueInv>> = vec![Vec::new(); CLIENTS];
    let mut submitted_at = vec![Instant::now(); CLIENTS];
    let t = Instant::now();
    probe.enter("submit");
    for c in 0..CLIENTS {
        let inv = traffic[c].next(c);
        invs[c].push(inv);
        sys.submit_to(c, inv);
        submitted_at[c] = Instant::now();
    }
    probe.exit("submit");
    let submit_s = t.elapsed().as_secs_f64();
    probe.exit("setup");
    Loaded {
        sys,
        traffic,
        invs,
        submitted_at,
        build_s,
        submit_s,
    }
}

/// Runs one episode; output violations land in `res`.
fn episode(rng: SplitMix64, traced: bool, probe: &mut Probe, res: &mut RunResult) -> Episode {
    let Loaded {
        mut sys,
        mut traffic,
        mut invs,
        mut submitted_at,
        build_s,
        submit_s,
    } = setup(rng, traced, probe);
    let mut ep = Episode {
        traced,
        build_s,
        submit_s,
        ..Episode::default()
    };
    let mut wall_ns = Histogram::new();

    // The closed loop: one simulator event at a time; a client whose
    // outcome just appeared gets its next invocation until STOP_AT.
    let mut pending = [true; CLIENTS];
    let before = Usage::now();
    let t = Instant::now();
    probe.enter("closed_loop");
    while pending.contains(&true) {
        sys.run_to_quiescence(1);
        let now = sys.world().now().0;
        if now > STOP_AT + DRAIN_CAP_TICKS {
            res.violation(format!(
                "an operation was still pending {DRAIN_CAP_TICKS} ticks after the load stopped"
            ));
            break;
        }
        let open = now < STOP_AT;
        for c in 0..CLIENTS {
            if !pending[c] || sys.outcomes_of(c).len() < invs[c].len() {
                continue;
            }
            wall_ns.record(submitted_at[c].elapsed().as_nanos() as u64);
            pending[c] = open;
            if open {
                let inv = traffic[c].next(c);
                invs[c].push(inv);
                sys.submit_to(c, inv);
                submitted_at[c] = Instant::now();
            }
        }
    }
    probe.exit("closed_loop");
    ep.wall_s = t.elapsed().as_secs_f64();
    ep.usage = Usage::now().since(before);
    let world = sys.world();
    ep.events = world.events_processed();
    ep.msgs = world.messages_sent();
    ep.msgs_lost = world.messages_lost();
    ep.bytes = world.bytes_sent();

    // The final heal, then gossip until every replica holds the same log.
    let heal_at = sys.world().now().0;
    let (rounds0, nodes0, _) = sys.merkle_sync_counts();
    probe.enter("converge");
    sys.world_mut().network_mut().heal_partition();
    let mut converged = logs_agree(&sys);
    while !converged && sys.world().now().0 - heal_at < CONVERGE_CAP_TICKS {
        let next = SimTime(sys.world().now().0 + 1);
        sys.run_until(next);
        converged = logs_agree(&sys);
    }
    probe.exit("converge");
    ep.converge_ticks = sys.world().now().0 - heal_at;
    let (rounds1, nodes1, _) = sys.merkle_sync_counts();
    ep.merkle_rounds = rounds1 - rounds0;
    ep.merkle_nodes = nodes1 - nodes0;
    ep.repair_bytes = sys.world().bytes_sent() - ep.bytes;

    probe.enter("checks");
    if !converged || (1..REPLICAS).any(|i| sys.replica_log(i) != sys.replica_log(0)) {
        res.violation(format!(
            "replicas did not converge within {CONVERGE_CAP_TICKS} ticks of the final heal"
        ));
    }
    check_outcomes(&sys, &invs, &mut ep, res);
    probe.exit("checks");

    // Wall latency per operation, timed-out ones included: the
    // simulator's cost of serving it while every other client runs.
    ep.p50_wall_ns = wall_ns.quantile(0.5).unwrap_or(0);
    ep.p95_wall_ns = wall_ns.quantile(0.95).unwrap_or(0);
    ep.p99_wall_ns = wall_ns.quantile(0.99).unwrap_or(0);

    // The lattice is the specification: replay the merged history
    // through the online monitor; the bottom level (DegenPQ) must hold.
    probe.enter("monitor_replay");
    let history = sys.merged_history().into_ops();
    let mut monitor = queue_lattice_monitor();
    let t = Instant::now();
    for op in &history {
        monitor.observe(op);
    }
    ep.observe_ns = t.elapsed().as_nanos() as f64 / history.len().max(1) as f64;
    probe.exit("monitor_replay");
    match monitor.current_level() {
        Some(level) => ep.level = level.to_string(),
        None => res.violation("merged history left every taxi lattice level"),
    }

    if traced {
        let (hits, misses) = sys.viewcache_counts();
        ep.vc_hit_frac = hits as f64 / (hits + misses).max(1) as f64;
        ep.vc_replayed = sys.viewcache_replayed_entries();
        ep.vc_checkpoint_hits = sys.viewcache_checkpoint_hits();
        match sys.profile_report() {
            Ok(report) => {
                ep.runtime_folded = report.to_folded();
                if let Some(step) = report.aggregated_paths().iter().find(|h| h.path == "step") {
                    ep.step_ns = step.total_ns as f64 / step.count.max(1) as f64;
                }
            }
            Err(e) => res.violation(format!("unbalanced runtime spans: {e}")),
        }
        let log = sys.replica_log(0);
        ep.replica_entries = log.len() as u64;
        probe.enter("log_splice");
        ep.splice_us = merge_cost_us(log, true);
        probe.exit("log_splice");
        probe.enter("log_append");
        ep.append_us = merge_cost_us(log, false);
        probe.exit("log_append");
    }
    ep
}

/// Every invocation answered, and in kind: an Enq completes as itself
/// or times out; a Deq returns an item some client enqueued, is refused
/// (empty view), or times out. Tallies availability and latencies.
fn check_outcomes(
    sys: &QuorumSystem<TaxiQueueType>,
    invs: &[Vec<QueueInv>],
    ep: &mut Episode,
    res: &mut RunResult,
) {
    let enqueued: HashSet<i64> = invs
        .iter()
        .flatten()
        .filter_map(|inv| match inv {
            QueueInv::Enq(x) => Some(*x),
            QueueInv::Deq => None,
        })
        .collect();
    let mut ticks = Histogram::new();
    for (c, client_invs) in invs.iter().enumerate() {
        let outcomes = sys.outcomes_of(c);
        if outcomes.len() != client_invs.len() {
            res.failed += client_invs.len().abs_diff(outcomes.len()) as u64;
        }
        for (inv, outcome) in client_invs.iter().zip(outcomes) {
            let tally = match inv {
                QueueInv::Enq(_) => &mut ep.enq,
                QueueInv::Deq => &mut ep.deq,
            };
            tally.0 += 1;
            let ok = match (inv, outcome) {
                (_, Outcome::TimedOut) => {
                    tally.1 += 1;
                    true
                }
                (QueueInv::Enq(x), Outcome::Completed { op, latency }) => {
                    ticks.record(*latency);
                    *op == QueueOp::Enq(*x)
                }
                (QueueInv::Deq, Outcome::Completed { op, latency }) => {
                    ticks.record(*latency);
                    matches!(op, QueueOp::Deq(y) if enqueued.contains(y))
                }
                (QueueInv::Deq, Outcome::Refused { latency }) => {
                    ticks.record(*latency);
                    true
                }
                (QueueInv::Enq(_), Outcome::Refused { .. }) => false,
            };
            if !ok {
                res.failed += 1;
            }
        }
    }
    ep.attempted = ep.enq.0 + ep.deq.0;
    ep.available = ticks.len() as u64;
    ep.p50_ticks = ticks.quantile(0.5).unwrap_or(0);
    ep.p99_ticks = ticks.quantile(0.99).unwrap_or(0);
}

/// Runs one untimed warm-up episode, then the workload for about
/// `seconds` (at least [`MIN_EPISODES`] episodes; no episode starts that
/// the last one's duration says would end past `seconds`), and fills
/// `res`. Returns the traced episodes' folded stacks: the
/// benchmark's own spans, and the runtime's `step` / `monitor` spans.
pub fn run(seed: u64, seconds: f64, traced: bool, res: &mut RunResult) -> (String, String) {
    let mut probe = Probe::enabled();
    let mut sim_folded = std::collections::BTreeMap::new();
    let mut seeds = SplitMix64::seed_from_u64(seed);
    let mut episodes: Vec<Episode> = Vec::new();
    episode(seeds.fork(), false, &mut Probe::disabled(), res);
    let start = Instant::now();
    let mut last_s = 0.0;
    while episodes.len() < MIN_EPISODES || start.elapsed().as_secs_f64() + last_s <= seconds {
        let began = Instant::now();
        let i = episodes.len();
        let trace_this = traced && traced_episode(i);
        let mut disabled = Probe::disabled();
        let p = if trace_this {
            &mut probe
        } else {
            &mut disabled
        };
        p.enter("episode");
        let ep = episode(seeds.fork(), trace_this, p, res);
        p.exit("episode");
        if let Err(e) = merge_folded(&mut sim_folded, &ep.runtime_folded) {
            res.violation(format!("runtime folded stacks: {e}"));
        }
        episodes.push(ep);
        last_s = began.elapsed().as_secs_f64();
    }
    // More set-ups than episodes, so `setup_s` is a median of many.
    let mut setups: Vec<f64> = episodes.iter().map(|e| e.build_s + e.submit_s).collect();
    while setups.len() < SETUP_SAMPLES {
        let loaded = setup(seeds.fork(), false, &mut Probe::disabled());
        setups.push(loaded.build_s + loaded.submit_s);
    }

    res.attempted = episodes.iter().map(|e| e.attempted).sum();
    let mut levels = std::collections::BTreeMap::new();
    for e in &episodes {
        *levels.entry(e.level.as_str()).or_insert(0) += 1;
    }
    res.note(format!(
        "merged history's lattice level, episodes per level: {levels:?}"
    ));
    res.note(format!(
        "nproc {} | episodes {} | ops/episode {} (median), all of them wall-latency samples | tick latency over {} available ops: p50/p99 {}/{} ticks | converge {} ticks",
        nproc(),
        episodes.len(),
        median_of(&episodes, Pick::All, |e| e.attempted as f64),
        median_of(&episodes, Pick::All, |e| e.available as f64),
        median_of(&episodes, Pick::All, |e| e.p50_ticks as f64),
        median_of(&episodes, Pick::All, |e| e.p99_ticks as f64),
        median_of(&episodes, Pick::All, |e| e.converge_ticks as f64),
    ));
    res.note(format!(
        "episode ops/s: {:?}",
        episodes
            .iter()
            .map(|e| e.ops_per_sec().round())
            .collect::<Vec<_>>()
    ));
    if !traced {
        // Whole-run figures, as in the account workloads.
        let attempted = res.attempted as f64;
        let available: u64 = episodes.iter().map(|e| e.available).sum();
        let wall_s: f64 = episodes.iter().map(|e| e.wall_s).sum();
        res.set("ops_per_sec", available as f64 / wall_s);
        res.set(
            "latency_p50_us",
            mean_of(&episodes, |e| e.p50_wall_ns as f64 / 1e3),
        );
        res.set("available_frac", available as f64 / attempted);
        res.set(
            "cpu_us_per_op",
            episodes
                .iter()
                .map(|e| e.usage.cpu.as_secs_f64())
                .sum::<f64>()
                * 1e6
                / attempted,
        );
        res.set("peak_rss_mb", peak_rss_mb());
        res.set("setup_s", median(&setups));
        return (String::new(), String::new());
    }

    let untraced = median_of(&episodes, Pick::Untraced, Episode::ops_per_sec);
    let traced_rate = median_of(&episodes, Pick::Traced, Episode::ops_per_sec);
    let per_op = |x: u64, e: &Episode| x as f64 / e.attempted.max(1) as f64;
    res.set("host.nproc", nproc() as f64);
    res.set("trace.untraced_ops_per_sec", untraced);
    res.set("trace.traced_ops_per_sec", traced_rate);
    res.set("trace.overhead_pct", overhead_pct(untraced, traced_rate));
    set_traced_medians(
        res,
        &episodes,
        &[
            ("latency.samples", &|e| e.attempted as f64),
            ("latency.p95_us", &|e| e.p95_wall_ns as f64 / 1e3),
            ("latency.p99_us", &|e| e.p99_wall_ns as f64 / 1e3),
            ("setup.build_s", &|e| e.build_s),
            ("setup.submit_s", &|e| e.submit_s),
            ("log.replica_entries", &|e| e.replica_entries as f64),
            ("log.splice_us", &|e| e.splice_us),
            ("log.append_us", &|e| e.append_us),
            ("sim.events_per_op", &|e| per_op(e.events, e)),
            ("sim.step_ns_per_event", &|e| e.step_ns),
            ("sim.msgs_per_op", &|e| per_op(e.msgs, e)),
            ("sim.bytes_per_op", &|e| per_op(e.bytes, e)),
            ("sim.msgs_dropped_frac", &|e| {
                e.msgs_lost as f64 / e.msgs.max(1) as f64
            }),
            ("sim.latency_p50_ticks", &|e| e.p50_ticks as f64),
            ("sim.latency_p99_ticks", &|e| e.p99_ticks as f64),
            ("sim.converge_ticks", &|e| e.converge_ticks as f64),
            ("runtime.timeout_deq_frac", &|e| {
                e.deq.1 as f64 / e.deq.0.max(1) as f64
            }),
            ("runtime.timeout_enq_frac", &|e| {
                e.enq.1 as f64 / e.enq.0.max(1) as f64
            }),
            ("viewcache.hit_frac", &|e| e.vc_hit_frac),
            ("viewcache.replayed_per_op", &|e| per_op(e.vc_replayed, e)),
            ("viewcache.checkpoint_hits", &|e| {
                e.vc_checkpoint_hits as f64
            }),
            ("merkle.sync_rounds", &|e| e.merkle_rounds as f64),
            ("merkle.nodes_per_round", &|e| {
                e.merkle_nodes as f64 / e.merkle_rounds.max(1) as f64
            }),
            ("merkle.repair_bytes", &|e| e.repair_bytes as f64),
            ("monitor.observe_ns_per_op", &|e| e.observe_ns),
        ],
    );
    let bench = match probe.report() {
        Ok(report) => report.to_folded(),
        Err(e) => {
            res.violation(format!("unbalanced benchmark spans: {e}"));
            String::new()
        }
    };
    (bench, render_folded(&sim_folded))
}
