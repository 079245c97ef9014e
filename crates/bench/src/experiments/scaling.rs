//! Old-vs-new language-engine scaling on the taxi-lattice verification.
//!
//! Times [`verify_taxi_lattice_naive`] (the retained pre-engine path:
//! two-pass naive `equal_upto` plus a full language enumeration per
//! point) against [`verify_taxi_lattice_perpoint`] (one
//! product-subset-graph walk per point — the engine this experiment has
//! always measured; the newer shared-walk path is benchmarked separately
//! by `exp_symmetry_scaling`) at increasing bounds, recording
//! wall-clock time and the
//! peak working-set width of each — histories in the widest naive
//! frontier vs nodes in the widest product level.
//!
//! The deepest bound is the CI gate: the engine must verify it at least
//! [`TARGET_SPEEDUP`]× faster than the naive path.
//!
//! [`verify_taxi_lattice_perpoint`]: relax_core::theorem4::verify_taxi_lattice_perpoint

use std::time::Instant;

use relax_core::theorem4::verify_taxi_lattice_naive;

use crate::experiments::profile::profiled_perpoint;
use crate::table::Table;

/// The gate: engine speedup over naive required at the deepest bound.
pub const TARGET_SPEEDUP: f64 = 5.0;

/// One measured bound.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// The item alphabet used.
    pub items: Vec<i64>,
    /// The history-length bound.
    pub max_len: usize,
    /// Naive-path wall time.
    pub naive_ns: u128,
    /// Engine wall time.
    pub engine_ns: u128,
    /// `naive_ns / engine_ns`.
    pub speedup: f64,
    /// Widest naive frontier, in histories.
    pub naive_peak_frontier: usize,
    /// Widest engine product level, in nodes.
    pub engine_peak_frontier: usize,
    /// Did both paths verify every lattice point?
    pub holds: bool,
    /// Did both paths report identical language sizes?
    pub agree: bool,
}

/// Measures one bound with both paths. The naive side keeps its
/// hand-rolled `Instant` (it is not instrumented); the engine side is
/// timed by the flight recorder — `engine_ns` is the `theorem4` root
/// span's total, so the same clock that feeds `trace_analyze --profile`
/// feeds this table.
pub fn measure(items: &[i64], max_len: usize) -> ScalingRow {
    let start = Instant::now();
    let naive = verify_taxi_lattice_naive(items, max_len);
    let naive_ns = start.elapsed().as_nanos();

    let engine_run = profiled_perpoint(items, max_len);
    let engine_ns = engine_run.wall_ns();
    let engine = engine_run.result;

    let agree = naive
        .points
        .iter()
        .zip(&engine.points)
        .all(|(n, e)| n.language_size == e.language_size && n.holds() == e.holds());
    ScalingRow {
        items: items.to_vec(),
        max_len,
        naive_ns,
        engine_ns,
        speedup: naive_ns as f64 / engine_ns.max(1) as f64,
        naive_peak_frontier: naive.peak_frontier(),
        engine_peak_frontier: engine.peak_frontier(),
        holds: naive.holds() && engine.holds(),
        agree,
    }
}

/// Measures every bound and renders the comparison table. The last bound
/// is the gate row.
pub fn run(bounds: &[(Vec<i64>, usize)]) -> (Table, Vec<ScalingRow>) {
    let rows: Vec<ScalingRow> = bounds
        .iter()
        .map(|(items, max_len)| measure(items, *max_len))
        .collect();
    let mut t = Table::new([
        "items",
        "len ≤",
        "naive (ms)",
        "engine (ms)",
        "speedup",
        "naive peak (hist)",
        "engine peak (nodes)",
        "verdict",
    ]);
    for r in &rows {
        t.row([
            format!("{:?}", r.items),
            r.max_len.to_string(),
            format!("{:.1}", r.naive_ns as f64 / 1e6),
            format!("{:.1}", r.engine_ns as f64 / 1e6),
            format!("{:.2}x", r.speedup),
            r.naive_peak_frontier.to_string(),
            r.engine_peak_frontier.to_string(),
            if r.holds && r.agree {
                "OK".to_string()
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }
    (t, rows)
}

/// Renders the rows as the `BENCH_language_scaling.json` payload; the
/// last row carries the gate.
pub fn to_json(rows: &[ScalingRow]) -> String {
    let gate = rows.last().expect("at least one bound");
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"items\":{},\"max_len\":{},\"naive_ns\":{},\"engine_ns\":{},\
                 \"speedup\":{:.3},\"naive_peak_frontier\":{},\
                 \"engine_peak_frontier\":{},\"holds\":{},\"agree\":{}}}",
                r.items.len(),
                r.max_len,
                r.naive_ns,
                r.engine_ns,
                r.speedup,
                r.naive_peak_frontier,
                r.engine_peak_frontier,
                r.holds,
                r.agree
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"language_scaling\",\"workload\":\"taxi_lattice_verification\",\
         \"rows\":[{}],\
         \"gate_items\":{},\"gate_max_len\":{},\"gate_speedup\":{:.3},\
         \"target_speedup\":{TARGET_SPEEDUP:.1},\"within_target\":{}}}\n",
        row_json.join(","),
        gate.items.len(),
        gate.max_len,
        gate.speedup,
        gate.speedup >= TARGET_SPEEDUP && gate.holds && gate.agree
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_agrees_at_small_bounds() {
        let row = measure(&[1, 2], 3);
        assert!(row.holds);
        assert!(row.agree);
        assert!(row.naive_peak_frontier > 0);
        assert!(row.engine_peak_frontier > 0);
        // Hash-consing keeps the product level narrower than the naive
        // per-history frontier even at tiny bounds.
        assert!(row.engine_peak_frontier <= row.naive_peak_frontier);
    }

    #[test]
    fn json_payload_carries_the_gate() {
        let (_, rows) = run(&[(vec![1, 2], 2), (vec![1, 2], 3)]);
        let json = to_json(&rows);
        assert!(json.contains("\"bench\":\"language_scaling\""));
        assert!(json.contains("\"gate_max_len\":3"));
        assert!(json.contains("\"within_target\":"));
    }
}
