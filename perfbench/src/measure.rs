//! Measurement plumbing shared by every workload: process resource usage,
//! order statistics, the metric tables, and the result line.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::os::raw::{c_int, c_long};
use std::time::{Duration, Instant};

use relax_quorum::{Entry, Log, Timestamp};

/// The end-to-end metrics every untraced run prints, as `(name, unit)`.
/// Each is defined on every workload (see `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_sec", "1/s"),
    ("latency_p50_us", "us"),
    ("available_frac", "ratio"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run prints, as `(name, unit)`. A
/// layer a workload does not call into reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("latency.samples", "count"),
    ("latency.p95_us", "us"),
    ("latency.p99_us", "us"),
    ("trace.untraced_ops_per_sec", "1/s"),
    ("trace.traced_ops_per_sec", "1/s"),
    ("trace.overhead_pct", "%"),
    ("setup.build_s", "s"),
    ("setup.submit_s", "s"),
    ("threaded.rounds", "count"),
    ("threaded.commit_batch_mean", "ops"),
    ("threaded.batch_fill", "ratio"),
    ("threaded.busy_cores", "cores"),
    ("threaded.vcsw_per_round", "count"),
    ("threaded.ivcsw_per_round", "count"),
    ("calm.fast_frac", "ratio"),
    ("calm.analyze_s", "s"),
    ("log.replica_entries", "count"),
    ("log.splice_us", "us"),
    ("log.append_us", "us"),
    ("sim.events_per_op", "count"),
    ("sim.step_ns_per_event", "ns"),
    ("sim.msgs_per_op", "count"),
    ("sim.bytes_per_op", "B"),
    ("sim.msgs_dropped_frac", "ratio"),
    ("sim.latency_p50_ticks", "ticks"),
    ("sim.latency_p99_ticks", "ticks"),
    ("sim.converge_ticks", "ticks"),
    ("runtime.timeout_deq_frac", "ratio"),
    ("runtime.timeout_enq_frac", "ratio"),
    ("viewcache.hit_frac", "ratio"),
    ("viewcache.replayed_per_op", "count"),
    ("viewcache.checkpoint_hits", "count"),
    ("merkle.sync_rounds", "count"),
    ("merkle.nodes_per_round", "count"),
    ("merkle.repair_bytes", "B"),
    ("monitor.observe_ns_per_op", "ns"),
    ("theorem4.walk_s", "s"),
    ("theorem4.points_s", "s"),
    ("multiwalk.frontier_peak", "count"),
    ("multiwalk.frontier_nodes_total", "count"),
    ("multiwalk.arena_mb", "MB"),
    ("multiwalk.cons_load_pct", "%"),
];

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations (or verifications) the load generator issued.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Run-level checks that failed, by description (empty: correct).
    pub violations: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a failed run-level check.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Sets one metric; a non-finite value (a division by an empty
    /// count) fails the run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if !value.is_finite() {
            self.violation(format!("metric {name} is not finite"));
        }
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `table`.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let correct = self.violations.is_empty() && self.failed == 0;
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with all its digits (`{}` on `f64` prints the shortest
/// exact round-trip form); non-finite values, already reported by
/// [`RunResult::set`], print as 0 to keep the line parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `getrusage(2)` readings for the whole process, joined threads
/// included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Voluntary context switches.
    pub vcsw: u64,
    /// Involuntary context switches.
    pub ivcsw: u64,
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// `long` fields.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

impl Usage {
    /// Reads the process's usage now.
    pub fn now() -> Usage {
        let mut ru = RUsage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            ixrss: 0,
            idrss: 0,
            isrss: 0,
            minflt: 0,
            majflt: 0,
            nswap: 0,
            inblock: 0,
            oublock: 0,
            msgsnd: 0,
            msgrcv: 0,
            nsignals: 0,
            nvcsw: 0,
            nivcsw: 0,
        };
        // SAFETY: `ru` is a live, writable `struct rusage` with the Linux
        // layout, and RUSAGE_SELF is a valid `who`; the call writes only
        // into it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
        );
        let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
        Usage {
            cpu: Duration::from_micros(micros(&ru.utime) + micros(&ru.stime)),
            vcsw: ru.nvcsw as u64,
            ivcsw: ru.nivcsw as u64,
        }
    }

    /// The usage accrued between `earlier` and `self`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            vcsw: self.vcsw - earlier.vcsw,
            ivcsw: self.ivcsw - earlier.ivcsw,
        }
    }
}

/// Peak resident set size of this program so far, in megabytes: the
/// `VmHWM` line of `/proc/self/status`. (`ru_maxrss` would not do: Linux
/// carries it across `execve`, so it can report the launcher's peak.)
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("Linux provides /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kb as f64 * 1024.0 / 1e6
}

/// The host's core count as the standard library sees it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-entry merges timed per direction by [`merge_cost_us`].
const MERGE_SAMPLES: usize = 64;

/// Median wall microseconds of one [`Log::merge`] of a one-entry delta
/// into (a clone of) `log`, with the entry sorting below the tail
/// (`below`: the general-case splice) or above it (the suffix append).
/// Shared by every workload that leaves replica logs behind.
pub fn merge_cost_us<Op: Clone>(log: &Log<Op>, below: bool) -> f64 {
    let (Some(first), Some(tail)) = (log.entries().first(), log.max_timestamp()) else {
        return 0.0;
    };
    let op = first.op.clone();
    let mut target = log.clone();
    // Sites no client uses, so every probe entry is new to the log.
    let probe_site = 1 << 20;
    let middle = log.entries()[log.len() / 2].ts.counter;
    let below_counter = if middle < tail.counter { middle } else { 0 };
    let samples: Vec<f64> = (0..MERGE_SAMPLES)
        .map(|k| {
            let ts = if below {
                Timestamp::new(below_counter, probe_site + k)
            } else {
                Timestamp::new(tail.counter + 1 + k as u64, probe_site)
            };
            let mut delta = Log::new();
            delta.insert(Entry::new(ts, op.clone()));
            let t = Instant::now();
            target.merge(black_box(&delta));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    black_box(&target);
    median(&samples)
}

/// Set-ups a run times at least (extra ones beyond its episodes are
/// built, timed and dropped), so `setup_s` is a median of many: one
/// set-up takes milliseconds at most, and single timings that short
/// swing with the host.
pub const SETUP_SAMPLES: usize = 64;

/// Median of unordered values (0 when empty); the mean of the middle
/// two for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Which episodes of a run a statistic covers.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// Every episode.
    All,
    /// Episodes that recorded spans.
    Traced,
    /// Episodes that did not.
    Untraced,
}

/// An episode that knows whether it recorded spans.
pub trait Traced {
    /// Did this episode record spans?
    fn traced(&self) -> bool;
}

/// Median of `f` over the picked episodes.
pub fn median_of<E: Traced>(episodes: &[E], pick: Pick, f: impl Fn(&E) -> f64) -> f64 {
    let values: Vec<f64> = episodes
        .iter()
        .filter(|e| match pick {
            Pick::All => true,
            Pick::Traced => e.traced(),
            Pick::Untraced => !e.traced(),
        })
        .map(f)
        .collect();
    median(&values)
}

/// Mean of `f` over every episode (0 when there are none). End-to-end
/// metrics average over a run's episodes: the host's speed drifts over
/// seconds, and a mean follows that drift smoothly where a median of a
/// few episodes jumps between them.
pub fn mean_of<E>(episodes: &[E], f: impl Fn(&E) -> f64) -> f64 {
    if episodes.is_empty() {
        return 0.0;
    }
    episodes.iter().map(f).sum::<f64>() / episodes.len() as f64
}

/// A per-layer metric read off each episode: its name and how.
pub type Layer<'a, E> = (&'static str, &'a dyn Fn(&E) -> f64);

/// Sets each layer metric to its median over the traced episodes.
pub fn set_traced_medians<E: Traced>(res: &mut RunResult, episodes: &[E], layers: &[Layer<E>]) {
    for &(name, f) in layers {
        res.set(name, median_of(episodes, Pick::Traced, f));
    }
}

/// Which episodes of a traced run record spans: an ABBA pattern (U T T
/// U, U T T U, …) so traced and untraced episodes see the same drift.
pub fn traced_episode(i: usize) -> bool {
    matches!(i % 4, 1 | 2)
}

/// Tracing overhead from traced and untraced throughputs: how much
/// slower the traced episodes ran, in percent of the traced rate.
pub fn overhead_pct(untraced_ops_per_sec: f64, traced_ops_per_sec: f64) -> f64 {
    if traced_ops_per_sec > 0.0 {
        (untraced_ops_per_sec / traced_ops_per_sec - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Merges folded-stack text (`path count` lines) by summing counts per
/// path, so several episodes' profiles export as one file.
pub fn merge_folded(into: &mut BTreeMap<String, u64>, folded: &str) -> Result<(), String> {
    for (path, n) in relax_trace::parse_folded(folded)? {
        *into.entry(path).or_insert(0) += n;
    }
    Ok(())
}

/// Renders merged folded stacks back to text.
pub fn render_folded(stacks: &BTreeMap<String, u64>) -> String {
    stacks
        .iter()
        .map(|(path, n)| format!("{path} {n}\n"))
        .collect()
}
