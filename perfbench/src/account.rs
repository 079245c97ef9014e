//! The two bank-account workloads on the sharded wall-clock backend.
//!
//! Both drive the same seeded Credit(1)/Debit(1) traffic (about one
//! debit in eight) through [`ThreadedSystem<BankAccountType>`] under the
//! `{A2}` assignment: Credit quorums of 1/1, Debit initial 1 / final n,
//! so every debit's view holds every earlier debit. They differ only in
//! how the layers are used:
//!
//! * `account_calm_sharded`: 2 shards and the analyzer-derived CALM
//!   policy ([`analyze_account`] frees Credit), so most operations take
//!   the coordination-free path and shards' timestamps interleave.
//! * `account_quorum_single`: 1 shard and the all-quorum policy, so
//!   every merge is a suffix append and brokers never linger.
//!
//! Each episode builds a fresh system, submits every client's whole
//! closed-loop backlog (one operation in flight per client), times
//! [`Executor::run_all`], and checks the outputs outside the timed
//! region.

use std::time::Instant;

use relax_automata::{EngineProbe, SplitMix64};
use relax_queues::AccountOp;
use relax_quorum::relation::{account_relation, AccountKind};
use relax_quorum::runtime::{AccountInv, BankAccountType, Outcome};
use relax_quorum::{
    analyze_account, outcome_shapes, ClientConfig, ClientTable, Executor, QuorumSystem,
    SchedulingPolicy, ThreadedConfig, ThreadedSystem, VotingAssignment,
};
use relax_sim::NetworkConfig;
use relax_trace::{Histogram, Probe};

use crate::measure::{
    mean_of, median, median_of, merge_cost_us, nproc, overhead_pct, peak_rss_mb,
    set_traced_medians, traced_episode, Pick, RunResult, Traced, Usage, SETUP_SAMPLES,
};

/// One account workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Shard front-end threads.
    pub shards: usize,
    /// Group-commit batch ceiling; also clients per shard.
    pub batch: usize,
    /// Invocations each client submits per episode.
    pub ops_per_client: usize,
    /// Derive the scheduling policy from the CALM analyzer (else every
    /// kind takes the quorum path).
    pub calm: bool,
}

/// `account_calm_sharded`: 2 shards × 256 clients × 256 ops.
pub const CALM_SHARDED: Spec = Spec {
    shards: 2,
    batch: 256,
    ops_per_client: 256,
    calm: true,
};

/// `account_quorum_single`: 1 shard × 256 clients × 512 ops.
pub const QUORUM_SINGLE: Spec = Spec {
    shards: 1,
    batch: 256,
    ops_per_client: 512,
    calm: false,
};

const REPLICAS: usize = 3;

/// Broker linger with more than one shard, as the realtime experiment
/// configures it.
const FLUSH_MICROS: u64 = 20;

/// Operations in the single-client prefix compared against the sim.
const ORACLE_OPS: usize = 64;

/// Episodes a run makes at least, whatever `--seconds` says.
const MIN_EPISODES: usize = 3;

/// Set-ups a run times per episode (the episode's own, and extra ones
/// built and dropped).
const SETUPS_PER_EPISODE: usize = 8;

/// The `{A2}` assignment: Credit 1/1, Debit initial 1 / final n.
fn a2_assignment(n: usize) -> VotingAssignment<AccountKind> {
    VotingAssignment::new(n)
        .with_initial(AccountKind::Credit, 1)
        .with_final(AccountKind::Credit, 1)
        .with_initial(AccountKind::Debit, 1)
        .with_final(AccountKind::Debit, n)
}

/// Seeded closed-loop backlogs: `clients` lists of `per_client`
/// invocations, about one Debit(1) in eight, the rest Credit(1).
fn traffic(mut rng: SplitMix64, clients: usize, per_client: usize) -> Vec<Vec<AccountInv>> {
    (0..clients)
        .map(|_| {
            (0..per_client)
                .map(|_| {
                    if rng.next_u64().is_multiple_of(8) {
                        AccountInv::Debit(1)
                    } else {
                        AccountInv::Credit(1)
                    }
                })
                .collect()
        })
        .collect()
}

/// Analyzes the `{A2}` relation when the spec asks for CALM.
fn policy(spec: Spec) -> SchedulingPolicy<AccountKind> {
    if spec.calm {
        SchedulingPolicy::from_report(&analyze_account(&account_relation(false, true)))
    } else {
        SchedulingPolicy::all_quorum()
    }
}

/// Runs a single-client prefix through the sim (fixed delay, no loss:
/// deterministic) and the threaded backend under the same policy, and
/// demands identical outcome shapes, replica logs and merged history.
fn oracle_matches(spec: Spec, invs: &[AccountInv]) -> bool {
    let mut sim = QuorumSystem::new(
        BankAccountType,
        REPLICAS,
        a2_assignment(REPLICAS),
        ClientConfig::default(),
        NetworkConfig::new(2, 2, 0.0),
        0xB0A7,
    )
    .with_scheduling(policy(spec));
    let mut thr = ThreadedSystem::new(
        BankAccountType,
        REPLICAS,
        1,
        a2_assignment(REPLICAS),
        ThreadedConfig::default(),
    )
    .with_scheduling(policy(spec));
    for inv in invs {
        sim.submit_to(0, *inv);
        thr.submit_to(0, *inv);
    }
    Executor::run_all(&mut sim);
    thr.run_all();
    outcome_shapes(sim.outcomes_of(0)) == outcome_shapes(ClientTable::outcomes_of(&thr, 0))
        && (0..REPLICAS).all(|i| sim.replica_log(i) == Executor::replica_log(&thr, i))
        && sim.merged_history() == Executor::merged_history(&thr)
}

/// What one episode measured.
#[derive(Debug, Default)]
struct Episode {
    traced: bool,
    setup: Setup,
    /// Wall seconds of `run_all`.
    wall_s: f64,
    attempted: u64,
    /// Completed plus refused operations.
    available: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    rounds: u64,
    usage: Usage,
    commit_batch_mean: f64,
    calm_fast: u64,
    calm_quorum: u64,
    replica_entries: u64,
    splice_us: f64,
    append_us: f64,
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

/// Set-up times of one system.
#[derive(Debug, Default, Clone, Copy)]
struct Setup {
    analyze_s: f64,
    build_s: f64,
    submit_s: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.analyze_s + self.build_s + self.submit_s
    }
}

/// Sets one system up: derive the policy, build, submit every backlog.
fn setup(
    spec: Spec,
    backlog: &[Vec<AccountInv>],
    probe: &mut Probe,
) -> (Setup, ThreadedSystem<BankAccountType>) {
    let mut times = Setup::default();
    probe.enter("setup");
    let t = Instant::now();
    probe.enter("analyze");
    let policy = policy(spec);
    probe.exit("analyze");
    times.analyze_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    probe.enter("build");
    let mut sys = ThreadedSystem::new(
        BankAccountType,
        REPLICAS,
        backlog.len(),
        a2_assignment(REPLICAS),
        ThreadedConfig {
            shards: spec.shards,
            batch: spec.batch,
            flush_micros: FLUSH_MICROS,
        },
    )
    .with_scheduling(policy);
    probe.exit("build");
    times.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    probe.enter("submit");
    for (c, invs) in backlog.iter().enumerate() {
        for inv in invs {
            sys.submit_to(c, *inv);
        }
    }
    probe.exit("submit");
    times.submit_s = t.elapsed().as_secs_f64();
    probe.exit("setup");
    (times, sys)
}

/// Runs one episode; output violations land in `res`.
fn episode(spec: Spec, rng: SplitMix64, probe: &mut Probe, res: &mut RunResult) -> Episode {
    let backlog = traffic(rng, spec.shards * spec.batch, spec.ops_per_client);
    let (setup, mut sys) = setup(spec, &backlog, probe);
    let mut ep = Episode {
        traced: probe.is_enabled(),
        setup,
        ..Episode::default()
    };

    let before = Usage::now();
    probe.enter("run_all");
    let stats = sys.run_all();
    probe.exit("run_all");
    ep.usage = Usage::now().since(before);
    ep.wall_s = stats.wall_nanos as f64 / 1e9;

    probe.enter("checks");
    check_outputs(&sys, &backlog, &mut ep, res);
    probe.exit("checks");

    let registry = sys.registry();
    ep.rounds = registry
        .get_gauge("realtime_shard_rounds")
        .map_or(0, |g| g.value() as u64);
    ep.commit_batch_mean = registry
        .get_histogram("realtime_commit_batch_ops")
        .and_then(|h| h.mean())
        .unwrap_or(0.0);
    (ep.calm_fast, ep.calm_quorum) = sys.calm_op_counts();
    if ep.traced {
        let log = Executor::replica_log(&sys, 0);
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

/// Per-operation and per-history checks of one episode: every
/// invocation answered in kind, completed + refused + timed-out equal to
/// submitted, no timeout on this healthy network, every completed
/// operation recorded exactly once, and the merged history's running
/// balance (timestamp order) never negative — `{A2}` held.
fn check_outputs(
    sys: &ThreadedSystem<BankAccountType>,
    backlog: &[Vec<AccountInv>],
    ep: &mut Episode,
    res: &mut RunResult,
) {
    let (mut completed, mut refused, mut timed_out) = (0u64, 0u64, 0u64);
    let mut latencies = Histogram::new();
    for (c, invs) in backlog.iter().enumerate() {
        let outcomes = ClientTable::outcomes_of(sys, c);
        if outcomes.len() != invs.len() {
            res.failed += invs.len().abs_diff(outcomes.len()) as u64;
        }
        for (inv, outcome) in invs.iter().zip(outcomes) {
            match outcome {
                Outcome::Completed { op, latency } => {
                    completed += 1;
                    latencies.record(*latency);
                    let in_kind = matches!(
                        (inv, op),
                        (AccountInv::Credit(a), AccountOp::Credit(b)) if a == b
                    ) || matches!(
                        (inv, op),
                        (AccountInv::Debit(a), AccountOp::DebitOk(b) | AccountOp::DebitOverdraft(b))
                            if a == b
                    );
                    if !in_kind {
                        res.failed += 1;
                    }
                }
                Outcome::Refused { latency } => {
                    // Account invocations always have a response.
                    refused += 1;
                    latencies.record(*latency);
                    res.failed += 1;
                }
                Outcome::TimedOut => {
                    // No replica is down: a timeout is a fault.
                    timed_out += 1;
                    res.failed += 1;
                }
            }
        }
    }
    let submitted: u64 = backlog.iter().map(|b| b.len() as u64).sum();
    if completed + refused + timed_out != submitted {
        res.violation(format!(
            "completed {completed} + refused {refused} + timed out {timed_out} != submitted {submitted}"
        ));
    }
    ep.attempted = submitted;
    ep.available = completed + refused;
    ep.p50_ns = latencies.quantile(0.5).unwrap_or(0);
    ep.p95_ns = latencies.quantile(0.95).unwrap_or(0);
    ep.p99_ns = latencies.quantile(0.99).unwrap_or(0);

    let history = Executor::merged_history(sys).into_ops();
    if history.len() as u64 != completed {
        res.violation(format!(
            "merged history holds {} entries for {completed} completed operations",
            history.len()
        ));
    }
    let mut balance: i64 = 0;
    for op in &history {
        match op {
            AccountOp::Credit(n) => balance += i64::from(*n),
            AccountOp::DebitOk(n) => balance -= i64::from(*n),
            AccountOp::DebitOverdraft(_) => {}
        }
        if balance < 0 {
            res.violation("merged history's running balance went negative: {A2} did not hold");
            break;
        }
    }
}

/// Runs the workload for about `seconds` (at least [`MIN_EPISODES`]
/// episodes; no episode starts that the last one's duration says would
/// end past `seconds`) and fills `res` with end-to-end metrics, or
/// per-layer metrics when `traced`. Returns the traced episodes' folded
/// stacks.
pub fn run(spec: Spec, seed: u64, seconds: f64, traced: bool, res: &mut RunResult) -> String {
    let mut seeds = SplitMix64::seed_from_u64(seed);
    let oracle_invs = traffic(seeds.fork(), 1, ORACLE_OPS).remove(0);
    if !oracle_matches(spec, &oracle_invs) {
        res.violation("single-client prefix diverged from the sim oracle");
    }

    let mut probe = Probe::enabled();
    let mut episodes = Vec::new();
    let mut setups = Vec::new();
    let backlog = traffic(seeds.fork(), spec.shards * spec.batch, spec.ops_per_client);
    let start = Instant::now();
    let min_episodes = if traced { 4 } else { MIN_EPISODES };
    let mut last_s = 0.0;
    while episodes.len() < min_episodes || start.elapsed().as_secs_f64() + last_s <= seconds {
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
        let ep = episode(spec, seeds.fork(), p, res);
        p.exit("episode");
        setups.push(ep.setup);
        episodes.push(ep);
        // More set-ups than episodes, so the set-up median has enough
        // samples; timed between episodes, so they spread over the run
        // like the episodes do.
        for _ in 1..SETUPS_PER_EPISODE {
            setups.push(setup(spec, &backlog, &mut Probe::disabled()).0);
        }
        last_s = began.elapsed().as_secs_f64();
    }
    // A short run tops the samples up.
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup(spec, &backlog, &mut Probe::disabled()).0);
    }

    res.attempted = episodes.iter().map(|e| e.attempted).sum();
    res.note(format!(
        "nproc {} | episodes {} | ops/episode {} | latency samples per episode: {} shard rounds (median)",
        nproc(),
        episodes.len(),
        spec.shards * spec.batch * spec.ops_per_client,
        median_of(&episodes, Pick::All, |e| e.rounds as f64)
    ));
    res.note(format!(
        "episode ops/s: {:?}",
        episodes
            .iter()
            .map(|e| e.ops_per_sec().round())
            .collect::<Vec<_>>()
    ));
    if !traced {
        // Answered ops over timed seconds, and each episode's median
        // latency averaged over the run: both average the host's speed
        // over the run instead of picking one episode's.
        let attempted = res.attempted as f64;
        let available: u64 = episodes.iter().map(|e| e.available).sum();
        let wall_s: f64 = episodes.iter().map(|e| e.wall_s).sum();
        res.set("ops_per_sec", available as f64 / wall_s);
        res.set(
            "latency_p50_us",
            mean_of(&episodes, |e| e.p50_ns as f64 / 1e3),
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
        res.set(
            "setup_s",
            median(&setups.iter().map(Setup::total_s).collect::<Vec<_>>()),
        );
        return String::new();
    }

    let untraced = median_of(&episodes, Pick::Untraced, Episode::ops_per_sec);
    let traced_rate = median_of(&episodes, Pick::Traced, Episode::ops_per_sec);
    res.set("host.nproc", nproc() as f64);
    res.set("trace.untraced_ops_per_sec", untraced);
    res.set("trace.traced_ops_per_sec", traced_rate);
    res.set("trace.overhead_pct", overhead_pct(untraced, traced_rate));
    let per_round = |x: u64, e: &Episode| x as f64 / e.rounds.max(1) as f64;
    set_traced_medians(
        res,
        &episodes,
        &[
            ("latency.samples", &|e| e.rounds as f64),
            ("latency.p95_us", &|e| e.p95_ns as f64 / 1e3),
            ("latency.p99_us", &|e| e.p99_ns as f64 / 1e3),
            ("setup.build_s", &|e| e.setup.build_s),
            ("setup.submit_s", &|e| e.setup.submit_s),
            ("threaded.rounds", &|e| e.rounds as f64),
            ("threaded.commit_batch_mean", &|e| e.commit_batch_mean),
            ("threaded.batch_fill", &|e| {
                e.commit_batch_mean / spec.batch as f64
            }),
            ("threaded.busy_cores", &|e| {
                e.usage.cpu.as_secs_f64() / e.wall_s
            }),
            ("threaded.vcsw_per_round", &|e| per_round(e.usage.vcsw, e)),
            ("threaded.ivcsw_per_round", &|e| per_round(e.usage.ivcsw, e)),
            ("calm.fast_frac", &|e| {
                e.calm_fast as f64 / (e.calm_fast + e.calm_quorum).max(1) as f64
            }),
            ("calm.analyze_s", &|e| e.setup.analyze_s),
            ("log.replica_entries", &|e| e.replica_entries as f64),
            ("log.splice_us", &|e| e.splice_us),
            ("log.append_us", &|e| e.append_us),
        ],
    );
    match probe.report() {
        Ok(report) => report.to_folded(),
        Err(e) => {
            res.violation(format!("unbalanced benchmark spans: {e}"));
            String::new()
        }
    }
}
