//! Shared-walk and orbit-reduction scaling on the Theorem-4 workloads.
//!
//! Three row families, one JSON payload (`BENCH_symmetry_scaling.json`):
//!
//! * **Common rows** — [`verify_taxi_lattice_perpoint`] (the PR-3
//!   engine: four independent product walks over the raw QCA) against
//!   [`verify_taxi_lattice`] (Rep-view quotient + one shared multi-point
//!   walk) at bounds both can reach. The deepest common bound (items
//!   `{1,2,3}`, length ≤ 8) is the CI gate: the shared walk must be at
//!   least [`TARGET_SPEEDUP`]× faster with every language size equal.
//! * **Frontier rows** — bounds the per-point engine cannot reasonably
//!   reach, verified by the shared walk alone and recorded with their
//!   per-point language sizes (the new entries for EXPERIMENTS.md).
//! * **Orbit rows** — the SSqueue join check (`L(Stuttering_2 ∩
//!   Semiqueue_2) = L(SSqueue_{2,2})`) run unreduced and with
//!   item-permutation orbit reduction, comparing peak frontier widths
//!   (counts must match exactly; these types are equality-based, so the
//!   reduction is sound — see `relax_queues::relabel`).
//!
//! [`verify_taxi_lattice_perpoint`]: relax_core::theorem4::verify_taxi_lattice_perpoint
//! [`verify_taxi_lattice`]: relax_core::theorem4::verify_taxi_lattice

use relax_automata::subset::IntersectionAutomaton;
use relax_automata::{compare_upto_modulo, compare_upto_probed, CompareOptions};
use relax_queues::{
    queue_alphabet, QueueItemSymmetry, SemiqueueAutomaton, SsQueueAutomaton, StutteringAutomaton,
};

use crate::experiments::profile::{probed, profiled_perpoint, profiled_shared};
use crate::table::Table;

/// The gate: shared-walk speedup over the per-point engine required at
/// the deepest common bound.
pub const TARGET_SPEEDUP: f64 = 5.0;

/// One bound both engines can reach.
#[derive(Debug, Clone)]
pub struct CommonRow {
    /// The item alphabet used.
    pub items: Vec<i64>,
    /// The history-length bound.
    pub max_len: usize,
    /// Per-point engine wall time.
    pub perpoint_ns: u128,
    /// Shared-walk wall time.
    pub shared_ns: u128,
    /// `perpoint_ns / shared_ns`.
    pub speedup: f64,
    /// Widest per-point product level, in nodes.
    pub perpoint_peak: usize,
    /// Widest shared tuple level, in nodes.
    pub shared_peak: usize,
    /// Did both paths verify every lattice point?
    pub holds: bool,
    /// Did both paths report identical per-point language sizes?
    pub agree: bool,
}

/// One bound only the shared walk reaches.
#[derive(Debug, Clone)]
pub struct FrontierRow {
    /// The item alphabet used.
    pub items: Vec<i64>,
    /// The history-length bound.
    pub max_len: usize,
    /// Shared-walk wall time.
    pub shared_ns: u128,
    /// Widest shared tuple level, in nodes.
    pub shared_peak: usize,
    /// Did every lattice point verify?
    pub holds: bool,
    /// Per-point language sizes, strongest point first.
    pub sizes: Vec<usize>,
}

/// One orbit-reduction measurement of the SSqueue join check.
#[derive(Debug, Clone)]
pub struct OrbitRow {
    /// The item alphabet used.
    pub items: Vec<i64>,
    /// The history-length bound.
    pub max_len: usize,
    /// Unreduced product-walk wall time.
    pub full_ns: u128,
    /// Orbit-reduced product-walk wall time.
    pub reduced_ns: u128,
    /// Widest unreduced product level, in nodes.
    pub full_peak: usize,
    /// Widest orbit-reduced product level, in nodes.
    pub reduced_peak: usize,
    /// Did both walks agree (same verdicts, identical per-length counts)?
    pub agree: bool,
}

/// Measures one common bound with both taxi-verification paths, each
/// timed by the flight recorder (wall time = `theorem4` root span
/// total) instead of a separate hand-rolled `Instant`.
pub fn measure_common(items: &[i64], max_len: usize) -> CommonRow {
    let perpoint_run = profiled_perpoint(items, max_len);
    let perpoint_ns = perpoint_run.wall_ns();
    let perpoint = perpoint_run.result;

    let shared_run = profiled_shared(items, max_len);
    let shared_ns = shared_run.wall_ns();
    let shared = shared_run.result;

    let agree = perpoint
        .points
        .iter()
        .zip(&shared.points)
        .all(|(p, s)| p.language_size == s.language_size && p.holds() == s.holds());
    CommonRow {
        items: items.to_vec(),
        max_len,
        perpoint_ns,
        shared_ns,
        speedup: perpoint_ns as f64 / shared_ns.max(1) as f64,
        perpoint_peak: perpoint.peak_frontier(),
        shared_peak: shared.peak_frontier(),
        holds: perpoint.holds() && shared.holds(),
        agree,
    }
}

/// Verifies one frontier bound with the shared walk alone.
pub fn measure_frontier(items: &[i64], max_len: usize) -> FrontierRow {
    let shared_run = profiled_shared(items, max_len);
    let shared_ns = shared_run.wall_ns();
    let shared = shared_run.result;
    FrontierRow {
        items: items.to_vec(),
        max_len,
        shared_ns,
        shared_peak: shared.peak_frontier(),
        holds: shared.holds(),
        sizes: shared.points.iter().map(|p| p.language_size).collect(),
    }
}

/// Measures the SSqueue join check unreduced and orbit-reduced.
pub fn measure_orbit(items: &[i64], max_len: usize) -> OrbitRow {
    let alphabet = queue_alphabet(items);
    let join = IntersectionAutomaton::new(StutteringAutomaton::new(2), SemiqueueAutomaton::new(2));
    let ssq = SsQueueAutomaton::new(2, 2);
    let sym = QueueItemSymmetry::new(items);

    let full_run = probed(|p| {
        compare_upto_probed(
            &join,
            &ssq,
            &alphabet,
            max_len,
            CompareOptions::counting(),
            p,
        )
    });
    let full_ns = full_run.wall_ns();
    let full = full_run.result;

    let reduced_run = probed(|p| {
        compare_upto_modulo(
            &join,
            &ssq,
            &alphabet,
            max_len,
            CompareOptions::counting(),
            &sym,
            p,
        )
    });
    let reduced_ns = reduced_run.wall_ns();
    let reduced = reduced_run.result;

    let agree = full.left_sizes == reduced.left_sizes
        && full.right_sizes == reduced.right_sizes
        && full.left_not_in_right.is_some() == reduced.left_not_in_right.is_some()
        && full.right_not_in_left.is_some() == reduced.right_not_in_left.is_some();
    OrbitRow {
        items: items.to_vec(),
        max_len,
        full_ns,
        reduced_ns,
        full_peak: full.peak_level_width,
        reduced_peak: reduced.peak_level_width,
        agree,
    }
}

/// Runs all three row families and renders their tables.
#[allow(clippy::type_complexity)]
pub fn run(
    common_bounds: &[(Vec<i64>, usize)],
    frontier_bounds: &[(Vec<i64>, usize)],
    orbit_bounds: &[(Vec<i64>, usize)],
) -> (Vec<Table>, Vec<CommonRow>, Vec<FrontierRow>, Vec<OrbitRow>) {
    let common: Vec<CommonRow> = common_bounds
        .iter()
        .map(|(items, len)| measure_common(items, *len))
        .collect();
    let frontier: Vec<FrontierRow> = frontier_bounds
        .iter()
        .map(|(items, len)| measure_frontier(items, *len))
        .collect();
    let orbit: Vec<OrbitRow> = orbit_bounds
        .iter()
        .map(|(items, len)| measure_orbit(items, *len))
        .collect();

    let mut t1 = Table::new([
        "items",
        "len ≤",
        "per-point (ms)",
        "shared (ms)",
        "speedup",
        "per-point peak",
        "shared peak",
        "verdict",
    ]);
    for r in &common {
        t1.row([
            format!("{:?}", r.items),
            r.max_len.to_string(),
            format!("{:.1}", r.perpoint_ns as f64 / 1e6),
            format!("{:.1}", r.shared_ns as f64 / 1e6),
            format!("{:.2}x", r.speedup),
            r.perpoint_peak.to_string(),
            r.shared_peak.to_string(),
            if r.holds && r.agree {
                "OK".to_string()
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }
    let mut t2 = Table::new(["items", "len ≤", "shared (ms)", "peak", "holds", "sizes"]);
    for r in &frontier {
        t2.row([
            format!("{:?}", r.items),
            r.max_len.to_string(),
            format!("{:.1}", r.shared_ns as f64 / 1e6),
            r.shared_peak.to_string(),
            r.holds.to_string(),
            format!("{:?}", r.sizes),
        ]);
    }
    let mut t3 = Table::new([
        "items",
        "len ≤",
        "full (ms)",
        "reduced (ms)",
        "full peak",
        "reduced peak",
        "agree",
    ]);
    for r in &orbit {
        t3.row([
            format!("{:?}", r.items),
            r.max_len.to_string(),
            format!("{:.1}", r.full_ns as f64 / 1e6),
            format!("{:.1}", r.reduced_ns as f64 / 1e6),
            r.full_peak.to_string(),
            r.reduced_peak.to_string(),
            r.agree.to_string(),
        ]);
    }
    (vec![t1, t2, t3], common, frontier, orbit)
}

/// Renders all rows as the `BENCH_symmetry_scaling.json` payload; the
/// last common row carries the gate.
pub fn to_json(common: &[CommonRow], frontier: &[FrontierRow], orbit: &[OrbitRow]) -> String {
    let gate = common.last().expect("at least one common bound");
    let common_json: Vec<String> = common
        .iter()
        .map(|r| {
            format!(
                "{{\"items\":{},\"max_len\":{},\"perpoint_ns\":{},\"shared_ns\":{},\
                 \"speedup\":{:.3},\"perpoint_peak\":{},\"shared_peak\":{},\
                 \"holds\":{},\"agree\":{}}}",
                r.items.len(),
                r.max_len,
                r.perpoint_ns,
                r.shared_ns,
                r.speedup,
                r.perpoint_peak,
                r.shared_peak,
                r.holds,
                r.agree
            )
        })
        .collect();
    let frontier_json: Vec<String> = frontier
        .iter()
        .map(|r| {
            format!(
                "{{\"items\":{},\"max_len\":{},\"shared_ns\":{},\"shared_peak\":{},\
                 \"holds\":{},\"sizes\":{:?}}}",
                r.items.len(),
                r.max_len,
                r.shared_ns,
                r.shared_peak,
                r.holds,
                r.sizes
            )
        })
        .collect();
    let orbit_json: Vec<String> = orbit
        .iter()
        .map(|r| {
            format!(
                "{{\"items\":{},\"max_len\":{},\"full_ns\":{},\"reduced_ns\":{},\
                 \"full_peak\":{},\"reduced_peak\":{},\"agree\":{}}}",
                r.items.len(),
                r.max_len,
                r.full_ns,
                r.reduced_ns,
                r.full_peak,
                r.reduced_peak,
                r.agree
            )
        })
        .collect();
    let frontier_ok = frontier.iter().all(|r| r.holds);
    let orbit_ok = orbit.iter().all(|r| r.agree);
    format!(
        "{{\"bench\":\"symmetry_scaling\",\"workload\":\"taxi_lattice_shared_walk\",\
         \"common_rows\":[{}],\"frontier_rows\":[{}],\"orbit_rows\":[{}],\
         \"gate_items\":{},\"gate_max_len\":{},\"gate_speedup\":{:.3},\
         \"target_speedup\":{TARGET_SPEEDUP:.1},\"within_target\":{}}}\n",
        common_json.join(","),
        frontier_json.join(","),
        orbit_json.join(","),
        gate.items.len(),
        gate.max_len,
        gate.speedup,
        gate.speedup >= TARGET_SPEEDUP && gate.holds && gate.agree && frontier_ok && orbit_ok
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_rows_agree_at_small_bounds() {
        let row = measure_common(&[1, 2], 4);
        assert!(row.holds);
        assert!(row.agree);
        assert!(row.shared_peak <= row.perpoint_peak);
    }

    #[test]
    fn frontier_rows_record_sizes() {
        let row = measure_frontier(&[1, 2], 4);
        assert!(row.holds);
        assert_eq!(row.sizes.len(), 4);
    }

    #[test]
    fn orbit_rows_agree_and_shrink() {
        let row = measure_orbit(&[1, 2], 5);
        assert!(row.agree);
        assert!(row.reduced_peak <= row.full_peak);
    }

    #[test]
    fn json_payload_carries_the_gate() {
        let common = vec![measure_common(&[1, 2], 3)];
        let frontier = vec![measure_frontier(&[1, 2], 3)];
        let orbit = vec![measure_orbit(&[1, 2], 3)];
        let json = to_json(&common, &frontier, &orbit);
        assert!(json.contains("\"bench\":\"symmetry_scaling\""));
        assert!(json.contains("\"within_target\":"));
    }
}
