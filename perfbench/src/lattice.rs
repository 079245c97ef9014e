//! `lattice_verify`: bounded verification of the whole taxi lattice.
//!
//! Each episode runs [`verify_taxi_lattice`] over five items and
//! histories of length ≤ 11 — one shared multi-point walk of the
//! `relax-automata` engines for all four lattice points — and checks
//! that every point holds. The seed picks the five item values (distinct,
//! from 1..=1000): the languages are the same up to relabeling, so
//! language sizes must not change, while the engines' hash tables see
//! different keys. Set-up is a small-bound warm-up verification (the
//! three smallest items, length ≤ 8), so allocator and page-fault
//! warm-up stay out of the timed call.

use std::time::Instant;

use relax_automata::{EngineProbe, SplitMix64};
use relax_core::{verify_taxi_lattice, verify_taxi_lattice_probed, TaxiVerification};
use relax_trace::{Histogram, Probe, ProfileReport, SpanNode};

use crate::measure::{
    median, median_of, merge_folded, nproc, overhead_pct, peak_rss_mb, render_folded,
    set_traced_medians, traced_episode, Pick, RunResult, Traced, Usage, SETUP_SAMPLES,
};

/// Items in the verified alphabet.
const ITEMS: usize = 5;
/// The history-length bound.
const MAX_LEN: usize = 11;
/// The warm-up verification's item count and bound.
const WARMUP: (usize, usize) = (3, 8);
/// Episodes a run makes at least.
const MIN_EPISODES: usize = 4;

/// What one episode measured.
#[derive(Debug, Default)]
struct Episode {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    usage: Usage,
    walk_s: f64,
    points_s: f64,
    frontier_peak: f64,
    frontier_nodes_total: f64,
    arena_mb: f64,
    cons_load_pct: f64,
}

impl Traced for Episode {
    fn traced(&self) -> bool {
        self.traced
    }
}

/// The seeded alphabet: [`ITEMS`] distinct values from 1..=1000,
/// ascending.
fn alphabet(seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut items = std::collections::BTreeSet::new();
    while items.len() < ITEMS {
        items.insert(rng.range_u64(1, 1000) as i64);
    }
    items.into_iter().collect()
}

/// The set-up step: a small-bound verification over the smallest items.
/// Returns its wall seconds.
fn warm_up(items: &[i64], res: &mut RunResult) -> f64 {
    let t = Instant::now();
    let warm = verify_taxi_lattice(&items[..WARMUP.0], WARMUP.1);
    let secs = t.elapsed().as_secs_f64();
    if !warm.holds() {
        res.violation("warm-up verification failed");
    }
    secs
}

/// Sums `total_ns` over every span named `name` in the subtree.
fn span_ns(node: &SpanNode, name: &str) -> u64 {
    let own = if node.name == name { node.total_ns } else { 0 };
    own + node.children.iter().map(|c| span_ns(c, name)).sum::<u64>()
}

/// Folds a report's span trees and gauges into the episode's engine
/// metrics.
fn engine_metrics(report: &ProfileReport, ep: &mut Episode) {
    let total = |name: &str| report.roots.iter().map(|r| span_ns(r, name)).sum::<u64>();
    ep.walk_s = total("shared_walk") as f64 / 1e9;
    ep.points_s = ["point_11", "point_10", "point_01", "point_00"]
        .iter()
        .map(|p| total(p))
        .sum::<u64>() as f64
        / 1e9;
    let gauge = |name: &str| report.gauge(name).unwrap_or(&[]).to_vec();
    let frontier = gauge("frontier_nodes");
    ep.frontier_peak = frontier.iter().copied().max().unwrap_or(0) as f64;
    ep.frontier_nodes_total = frontier.iter().sum::<i64>() as f64;
    ep.arena_mb = gauge("arena_bytes").into_iter().max().unwrap_or(0) as f64 / 1e6;
    ep.cons_load_pct = gauge("cons_load_pct").into_iter().max().unwrap_or(0) as f64;
}

/// Checks one verification: all four points hold, and the per-point
/// language sizes repeat the first episode's exactly.
fn check(v: &TaxiVerification, reference: &mut Option<Vec<usize>>, res: &mut RunResult) -> bool {
    let sizes: Vec<usize> = v.points.iter().map(|p| p.language_size).collect();
    let mut ok = true;
    if v.points.len() != 4 || !v.holds() {
        res.violation("a taxi lattice point failed to verify");
        ok = false;
    }
    match reference {
        None => *reference = Some(sizes),
        Some(r) if *r != sizes => {
            res.violation(format!(
                "language sizes changed between episodes: {r:?} vs {sizes:?}"
            ));
            ok = false;
        }
        Some(_) => {}
    }
    ok
}

/// Runs the workload for about `seconds` (at least [`MIN_EPISODES`]
/// verifications; none starts that the last one's duration says would
/// end past `seconds`). Returns the traced episodes' folded stacks.
pub fn run(seed: u64, seconds: f64, traced: bool, res: &mut RunResult) -> String {
    let items = alphabet(seed);
    let mut episodes: Vec<Episode> = Vec::new();
    let mut sizes = None;
    let mut folded = std::collections::BTreeMap::new();
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut last_s = 0.0;
    while episodes.len() < MIN_EPISODES || start.elapsed().as_secs_f64() + last_s <= seconds {
        let began = Instant::now();
        let mut ep = Episode {
            traced: traced && traced_episode(episodes.len()),
            ..Episode::default()
        };
        // Two set-ups per episode, so the `setup_s` samples spread over
        // the whole run like the verifications do.
        setups.push(warm_up(&items, res));
        ep.setup_s = warm_up(&items, res);
        setups.push(ep.setup_s);

        let before = Usage::now();
        let t = Instant::now();
        let verification = if ep.traced {
            let mut probe = Probe::enabled();
            probe.enter("verify");
            let v = verify_taxi_lattice_probed(&items, MAX_LEN, &mut probe);
            probe.exit("verify");
            ep.wall_s = t.elapsed().as_secs_f64();
            match probe.report() {
                Ok(report) => {
                    engine_metrics(&report, &mut ep);
                    if let Err(e) = merge_folded(&mut folded, &report.to_folded()) {
                        res.violation(format!("folded stacks: {e}"));
                    }
                }
                Err(e) => res.violation(format!("unbalanced engine spans: {e}")),
            }
            v
        } else {
            let v = verify_taxi_lattice(&items, MAX_LEN);
            ep.wall_s = t.elapsed().as_secs_f64();
            v
        };
        ep.usage = Usage::now().since(before);
        if !check(&verification, &mut sizes, res) {
            res.failed += 1;
        }
        episodes.push(ep);
        last_s = began.elapsed().as_secs_f64();
    }

    res.attempted = episodes.len() as u64;
    res.note(format!(
        "nproc {} | items {:?} max_len {MAX_LEN} | latency samples: {} verifications | language sizes {:?}",
        nproc(),
        items,
        episodes.len(),
        sizes.unwrap_or_default()
    ));
    res.note(format!(
        "verification wall s: {:?}",
        episodes
            .iter()
            .map(|e| (e.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    if !traced {
        let n = episodes.len() as f64;
        // Verifications over timed seconds: the host's speed averaged
        // over the run, where a median would pick one verification's.
        res.set(
            "ops_per_sec",
            n / episodes.iter().map(|e| e.wall_s).sum::<f64>(),
        );
        res.set(
            "latency_p50_us",
            median_of(&episodes, Pick::All, |e| e.wall_s * 1e6),
        );
        res.set(
            "available_frac",
            (res.attempted - res.failed) as f64 / res.attempted as f64,
        );
        res.set(
            "cpu_us_per_op",
            episodes
                .iter()
                .map(|e| e.usage.cpu.as_secs_f64())
                .sum::<f64>()
                * 1e6
                / n,
        );
        res.set("peak_rss_mb", peak_rss_mb());
        // A short run tops the samples up, so `setup_s` is a median of
        // many.
        while setups.len() < SETUP_SAMPLES {
            setups.push(warm_up(&items, res));
        }
        res.set("setup_s", median(&setups));
        return String::new();
    }
    let untraced = median_of(&episodes, Pick::Untraced, |e| 1.0 / e.wall_s);
    let traced_rate = median_of(&episodes, Pick::Traced, |e| 1.0 / e.wall_s);
    res.set("host.nproc", nproc() as f64);
    // Tail percentiles over the traced episodes. Nearest rank: with
    // fewer than 20 verifications both are the slowest one.
    let mut walls_ns = Histogram::new();
    for e in episodes.iter().filter(|e| e.traced) {
        walls_ns.record((e.wall_s * 1e9) as u64);
    }
    let mut tail_us = |q: f64| walls_ns.quantile(q).unwrap_or(0) as f64 / 1e3;
    res.set("latency.p95_us", tail_us(0.95));
    res.set("latency.p99_us", tail_us(0.99));
    res.set("latency.samples", walls_ns.len() as f64);
    res.set("trace.untraced_ops_per_sec", untraced);
    res.set("trace.traced_ops_per_sec", traced_rate);
    res.set("trace.overhead_pct", overhead_pct(untraced, traced_rate));
    set_traced_medians(
        res,
        &episodes,
        &[
            ("setup.build_s", &|e| e.setup_s),
            ("theorem4.walk_s", &|e| e.walk_s),
            ("theorem4.points_s", &|e| e.points_s),
            ("multiwalk.frontier_peak", &|e| e.frontier_peak),
            ("multiwalk.frontier_nodes_total", &|e| {
                e.frontier_nodes_total
            }),
            ("multiwalk.arena_mb", &|e| e.arena_mb),
            ("multiwalk.cons_load_pct", &|e| e.cons_load_pct),
        ],
    );
    render_folded(&folded)
}
