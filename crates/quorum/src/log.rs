//! Replica logs: timestamped operation records.
//!
//! "The queue's current value … can be reconstructed by merging the
//! entries in timestamp order, discarding duplicates" (§3.1). A [`Log`]
//! keeps entries sorted by timestamp with no duplicates, so `merge` is a
//! sorted-set union; `to_history` reads the operations back out in
//! timestamp order.
//!
//! Beyond the entry vector, a log maintains three indices that the
//! delta-replication runtime relies on:
//!
//! * a per-site [`SiteSummary`] table (count, max counter, XOR set hash)
//!   from which [`Log::frontier`] is read off in O(sites);
//! * a prefix-XOR array of mixed timestamps, giving [`Log::prefix_hash`]
//!   in O(1) — the validity check behind memoized view evaluation and
//!   the suffix fast paths of merge and delta;
//! * a per-site counter index (each site's counters in ascending order,
//!   aligned with the summary table), against which
//!   [`Log::delta_above_with`] computes the exact set of entries a peer
//!   advertising a frontier is missing in O(sites + delta) rather than
//!   O(log length). Like the Merkle index it is built lazily on first
//!   use and maintained incrementally from then on; each site's counters
//!   are minted by one monotone clock, so maintenance is an amortized
//!   O(1) append. Delta payloads, views and clones never build it.
//!
//! All indices are deterministic functions of the entry set, so
//! equality and hashing remain defined by the entries alone.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use relax_automata::History;

use crate::frontier::{mix_ts, Frontier, SiteSummary};
use crate::merkle::MerkleIndex;
use crate::timestamp::Timestamp;

/// A timestamped record of an operation execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Entry<Op> {
    /// The entry's logical timestamp (unique per operation).
    pub ts: Timestamp,
    /// The recorded operation execution.
    pub op: Op,
}

impl<Op> Entry<Op> {
    /// Creates an entry.
    pub fn new(ts: Timestamp, op: Op) -> Self {
        Entry { ts, op }
    }
}

impl<Op: fmt::Display> fmt::Display for Entry<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.ts, self.op)
    }
}

/// A log: entries sorted by timestamp, duplicates (same timestamp)
/// discarded.
#[derive(Debug)]
pub struct Log<Op> {
    entries: Vec<Entry<Op>>,
    /// `prefix[i]` = XOR of [`mix_ts`] over `entries[..=i]`.
    prefix: Vec<u64>,
    /// Per-site summaries, sorted by site id; only sites with entries.
    sites: Vec<SiteSummary>,
    /// `counters[i]` = the counters of `sites[i].site`'s entries, in
    /// ascending order. Built on the first [`Log::delta_above_with`]
    /// call that misses its suffix fast path and maintained
    /// incrementally from then on; `None` on logs that never answer a
    /// frontier (delta payloads, views) and on every clone.
    counters: Option<Vec<Vec<u64>>>,
    /// Per-site Merkle tree over the timestamp set, built lazily on the
    /// first [`Log::merkle_index`] call and maintained incrementally
    /// from then on. `None` for logs that never sync via Merkle
    /// anti-entropy (delta payloads, full-log mode), so those paths pay
    /// nothing for it.
    merkle: Option<Box<MerkleIndex>>,
}

// Clones leave the counter index behind: they are payloads and views,
// which never answer a frontier, and copying it would cost a vector per
// site on every full-log read.
impl<Op: Clone> Clone for Log<Op> {
    fn clone(&self) -> Self {
        Log {
            entries: self.entries.clone(),
            prefix: self.prefix.clone(),
            sites: self.sites.clone(),
            counters: None,
            merkle: self.merkle.clone(),
        }
    }
}

// The indices are functions of the entry set: identity is the entries.
impl<Op: PartialEq> PartialEq for Log<Op> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}
impl<Op: Eq> Eq for Log<Op> {}
impl<Op: Hash> Hash for Log<Op> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries.hash(state);
    }
}

impl<Op> Default for Log<Op> {
    fn default() -> Self {
        Log {
            entries: Vec::new(),
            prefix: Vec::new(),
            sites: Vec::new(),
            counters: None,
            merkle: None,
        }
    }
}

/// Reusable buffers for [`Log::diff_with`] / [`Log::delta_above_with`],
/// so the gossip and client write hot loops do not allocate fresh
/// working vectors on every call. All buffers are cleared, never
/// shrunk: at steady state a scratch owned by a client or replica stops
/// allocating entirely (pinned by `tests/diff_alloc.rs`).
#[derive(Debug, Clone, Default)]
pub struct DiffScratch {
    /// The timestamps a delta ships, collected per site from the
    /// counter index, then sorted into log order.
    wanted: Vec<Timestamp>,
    /// Per own entry: whether it is absent from the other log.
    missing: Vec<bool>,
}

impl<Op: Clone> Log<Op> {
    /// An empty log.
    pub fn new() -> Self {
        Log::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in timestamp order.
    pub fn entries(&self) -> &[Entry<Op>] {
        &self.entries
    }

    /// XOR of [`mix_ts`] over the first `len` entries, in O(1) — an
    /// order-independent hash of the length-`len` prefix *set*.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the log's length.
    pub fn prefix_hash(&self, len: usize) -> u64 {
        if len == 0 {
            0
        } else {
            self.prefix[len - 1]
        }
    }

    /// Folds a new timestamp into the site-summary table and into every
    /// index that is built.
    fn note(&mut self, ts: Timestamp) {
        let row = match self.sites.binary_search_by_key(&ts.site, |s| s.site) {
            Ok(i) => {
                let s = &mut self.sites[i];
                s.count += 1;
                s.max = s.max.max(ts.counter);
                s.hash ^= mix_ts(ts);
                i
            }
            Err(i) => {
                self.sites.insert(
                    i,
                    SiteSummary {
                        site: ts.site,
                        count: 1,
                        max: ts.counter,
                        hash: mix_ts(ts),
                    },
                );
                if let Some(counters) = &mut self.counters {
                    counters.insert(i, Vec::new());
                }
                i
            }
        };
        if let Some(counters) = &mut self.counters {
            let run = &mut counters[row];
            match run.last() {
                // A late entry below the site's maximum (a healed hole).
                Some(&last) if last > ts.counter => {
                    let at = run.partition_point(|&c| c < ts.counter);
                    run.insert(at, ts.counter);
                }
                _ => run.push(ts.counter),
            }
        }
        if let Some(m) = &mut self.merkle {
            m.note(ts);
        }
    }

    /// A log with exact capacity reserved for its vectors — together
    /// with [`Log::push_back`] this gives allocation-exact construction
    /// (at most one allocation per vector, none when `entries == 0`).
    fn with_capacity_for(entries: usize, sites: usize) -> Log<Op> {
        Log {
            entries: Vec::with_capacity(entries),
            prefix: Vec::with_capacity(entries),
            sites: Vec::with_capacity(if entries == 0 { 0 } else { sites }),
            counters: None,
            merkle: None,
        }
    }

    /// Appends an entry known to sort strictly above everything present.
    fn push_back(&mut self, entry: Entry<Op>) {
        debug_assert!(self.entries.last().is_none_or(|e| e.ts < entry.ts));
        let acc = self.prefix.last().copied().unwrap_or(0) ^ mix_ts(entry.ts);
        self.note(entry.ts);
        self.prefix.push(acc);
        self.entries.push(entry);
    }

    /// Inserts an entry, keeping timestamp order; an entry with an
    /// already-present timestamp is discarded as a duplicate.
    pub fn insert(&mut self, entry: Entry<Op>) {
        match self.entries.binary_search_by_key(&entry.ts, |e| e.ts) {
            Ok(_) => {} // duplicate timestamp: already recorded
            Err(pos) if pos == self.entries.len() => self.push_back(entry),
            Err(pos) => {
                let h = mix_ts(entry.ts);
                let base = if pos == 0 { 0 } else { self.prefix[pos - 1] };
                self.prefix.insert(pos, base ^ h);
                for p in &mut self.prefix[pos + 1..] {
                    *p ^= h;
                }
                self.note(entry.ts);
                self.entries.insert(pos, entry);
            }
        }
    }

    /// Merges another log into this one (sorted union, duplicates
    /// discarded) — the fundamental replica/view operation of §3.1.
    ///
    /// Fast paths for the common protocol shapes: a disjoint suffix
    /// (appending fresh entries), an exact prefix (one prefix-hash
    /// compare, same ≈2⁻⁶⁴ trust model as [`Log::delta_above`]), and a
    /// subset (anti-entropy at steady state, where nothing is new). The
    /// general case is a splice: our entries below `other`'s first
    /// timestamp and their prefix hashes stay where they are, and only
    /// the suffix from there is rebuilt by one sorted-union pass —
    /// O(log n + (n − pos) + m) rather than O(n + m).
    pub fn merge(&mut self, other: &Log<Op>) {
        let Some(first) = other.entries.first() else {
            return;
        };
        // A receiver with a built index keeps it: it takes the suffix
        // path below, which maintains every index entry by entry.
        if self.entries.is_empty() && self.counters.is_none() && self.merkle.is_none() {
            *self = other.clone();
            return;
        }
        // Disjoint-suffix fast path: everything in `other` sorts above us.
        if self.entries.last().is_none_or(|last| first.ts > last.ts) {
            for e in &other.entries {
                self.push_back(e.clone());
            }
            return;
        }
        // Prefix fast path: `other` is exactly our first `m` entries
        // (one hash compare — the steady-state view merge, where the
        // second initial-quorum log repeats what the first delivered).
        let m = other.entries.len();
        if m <= self.entries.len() && self.prefix_hash(m) == other.prefix_hash(m) {
            return;
        }
        // Subset fast path: nothing new (gossip at steady state).
        if self.contains_log(other) {
            return;
        }
        // General case: splice at the first entry `other` can affect.
        let pos = self.entries.partition_point(|e| e.ts < first.ts);
        let tail = self.entries.split_off(pos);
        self.prefix.truncate(pos);
        self.entries.reserve(tail.len() + m);
        self.prefix.reserve(tail.len() + m);
        let mut acc = self.prefix_hash(pos);
        let mut ours = tail.into_iter().peekable();
        let mut theirs = other.entries.iter().peekable();
        loop {
            let order = match (ours.peek(), theirs.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(a), Some(b)) => a.ts.cmp(&b.ts),
            };
            if order == Ordering::Equal {
                theirs.next(); // duplicate: keep ours
            }
            let e = if order == Ordering::Greater {
                let e = theirs.next().expect("peeked").clone();
                self.note(e.ts);
                e
            } else {
                ours.next().expect("peeked")
            };
            acc ^= mix_ts(e.ts);
            self.prefix.push(acc);
            self.entries.push(e);
        }
    }

    /// A merged copy of two logs.
    #[must_use]
    pub fn merged(&self, other: &Log<Op>) -> Log<Op> {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// The per-site summary table behind [`Log::frontier`], borrowed
    /// without the copy (sorted by site id; only sites with entries).
    #[must_use]
    pub fn site_summaries(&self) -> &[SiteSummary] {
        &self.sites
    }

    /// The per-site summary of this log's entry set (O(sites)).
    #[must_use]
    pub fn frontier(&self) -> Frontier {
        Frontier::from_summaries(self.sites.clone())
    }

    /// The entries a peer advertising frontier `f` is missing, such that
    /// merging the result into *any* superset `K` of the summarized set
    /// (with `K ⊆ self`) yields exactly `K ∪ self` — in the runtime's
    /// use, exactly `self`.
    ///
    /// Per site: if our entries with counters up to the advertised
    /// maximum match the advertised (count, max, hash) summary exactly,
    /// only entries above the maximum are included; otherwise (the peer
    /// has per-site holes we cannot see through the summary, or claims
    /// entries we lack) the site's entries are included wholesale —
    /// redundancy is safe because merge is idempotent.
    #[must_use]
    pub fn delta_above(&mut self, f: &Frontier) -> Log<Op> {
        self.delta_above_with(f, &mut DiffScratch::default())
    }

    /// [`Log::delta_above`] with caller-owned scratch buffers, answered
    /// from the per-site counter index (built on the first call that
    /// needs it, hence `&mut self`) in O(sites + delta) — the whole log
    /// is never walked. The scratch is reused across calls, and the
    /// output log's vectors are reserved to exact size, so a warm call
    /// performs at most three allocations (zero for an empty delta).
    #[must_use]
    pub fn delta_above_with(&mut self, f: &Frontier, scratch: &mut DiffScratch) -> Log<Op> {
        if f.is_empty() || self.is_empty() {
            return self.clone();
        }
        let fsites = f.sites();
        // Suffix fast path (one hash compare): when the advertised set
        // is exactly our first `claimed` entries, every advertised site
        // is confirmed — timestamps sort by (counter, site), so a site's
        // entries above its advertised max are precisely its entries
        // past the prefix — and the delta is our suffix, O(delta). This
        // is the steady-state gossip shape: the peer trails us by a
        // contiguous batch or not at all.
        let claimed: usize = fsites.iter().map(|s| s.count as usize).sum();
        let claimed_hash = fsites.iter().fold(0u64, |h, s| h ^ s.hash);
        if claimed <= self.entries.len() && self.prefix_hash(claimed) == claimed_hash {
            let suffix = &self.entries[claimed..];
            let mut out = Log::with_capacity_for(suffix.len(), self.sites.len());
            for e in suffix {
                out.push_back(e.clone());
            }
            return out;
        }
        // Per site, from the counter index: our entries at-or-below the
        // advertised maximum are a prefix of the site's counters, and
        // their hash is the site's hash with the entries above it
        // XORed back out — so confirming a site costs only the entries
        // the delta ships from it anyway.
        if self.counters.is_none() {
            self.counters = Some(self.build_counters());
        }
        let counters = self.counters.as_deref().expect("just built");
        scratch.wanted.clear();
        for (ours, run) in self.sites.iter().zip(counters) {
            let from = match f.summary(ours.site) {
                None => 0, // unknown to the peer: the whole site
                Some(claim) => {
                    let below = run.partition_point(|&c| c <= claim.max);
                    let below_max = below.checked_sub(1).map_or(0, |i| run[i]);
                    let confirmed = below as u64 == claim.count
                        && below_max == claim.max
                        && run[below..]
                            .iter()
                            .fold(ours.hash, |h, &c| h ^ mix_ts(Timestamp::new(c, ours.site)))
                            == claim.hash;
                    if confirmed {
                        below
                    } else {
                        0
                    }
                }
            };
            scratch
                .wanted
                .extend(run[from..].iter().map(|&c| Timestamp::new(c, ours.site)));
        }
        scratch.wanted.sort_unstable();
        // Fetch the entries by forward binary search: each one sorts
        // above the last, so the search window only shrinks.
        let mut out = Log::with_capacity_for(scratch.wanted.len(), self.sites.len());
        let mut lo = 0;
        for &ts in &scratch.wanted {
            lo += self.entries[lo..].partition_point(|e| e.ts < ts);
            out.push_back(self.entries[lo].clone());
            lo += 1;
        }
        out
    }

    /// The per-site counter index of the current entries, from scratch
    /// (O(n)); [`Log::delta_above_with`] builds it on first use.
    fn build_counters(&self) -> Vec<Vec<u64>> {
        let mut counters: Vec<Vec<u64>> = self
            .sites
            .iter()
            .map(|s| Vec::with_capacity(s.count as usize))
            .collect();
        for e in &self.entries {
            let row = self
                .sites
                .binary_search_by_key(&e.ts.site, |s| s.site)
                .expect("every entry's site is summarized");
            counters[row].push(e.ts.counter);
        }
        counters
    }

    /// The whole-log scan [`Log::delta_above_with`] replaced: one pass
    /// summarizing, per advertised site, our entries at-or-below its
    /// maximum, then one filtering pass. Kept as the test oracle.
    #[cfg(test)]
    fn delta_above_scan(&self, f: &Frontier) -> Log<Op> {
        let fsites = f.sites();
        let mut below: Vec<SiteSummary> = fsites
            .iter()
            .map(|s| SiteSummary {
                site: s.site,
                count: 0,
                max: 0,
                hash: 0,
            })
            .collect();
        for e in &self.entries {
            if let Some(ix) = f.index_of(e.ts.site) {
                if e.ts.counter <= fsites[ix].max {
                    let b = &mut below[ix];
                    b.count += 1;
                    b.max = b.max.max(e.ts.counter);
                    b.hash ^= mix_ts(e.ts);
                }
            }
        }
        let confirmed: Vec<bool> = fsites
            .iter()
            .zip(&below)
            .map(|(s, b)| b.count == s.count && b.max == s.max && b.hash == s.hash)
            .collect();
        self.entries
            .iter()
            .filter(|e| match f.index_of(e.ts.site) {
                None => true,
                Some(ix) => !confirmed[ix] || e.ts.counter > fsites[ix].max,
            })
            .cloned()
            .collect()
    }

    /// The entries of `self` absent from `other` (two-pointer set
    /// difference; both logs are sorted).
    #[must_use]
    pub fn diff(&self, other: &Log<Op>) -> Log<Op> {
        self.diff_with(other, &mut DiffScratch::default())
    }

    /// [`Log::diff`] with caller-owned scratch: one two-pointer pass
    /// marks missing entries in a reused flag buffer, then the output is
    /// built with exact capacity — at most three allocations on a warm
    /// scratch, zero when nothing is missing.
    #[must_use]
    pub fn diff_with(&self, other: &Log<Op>, scratch: &mut DiffScratch) -> Log<Op> {
        // Prefix fast path (one hash compare): `other` is exactly our
        // first `m` entries, so the difference is our suffix — the
        // steady-state write shape, where the replica already holds
        // everything but the entry being recorded.
        let m = other.entries.len();
        if m <= self.entries.len() && self.prefix_hash(m) == other.prefix_hash(m) {
            let suffix = &self.entries[m..];
            let mut out = Log::with_capacity_for(suffix.len(), self.sites.len());
            for e in suffix {
                out.push_back(e.clone());
            }
            return out;
        }
        scratch.missing.clear();
        let mut n = 0usize;
        let mut j = 0;
        for e in &self.entries {
            while j < other.entries.len() && other.entries[j].ts < e.ts {
                j += 1;
            }
            let missing = !(j < other.entries.len() && other.entries[j].ts == e.ts);
            if !missing {
                j += 1;
            }
            n += usize::from(missing);
            scratch.missing.push(missing);
        }
        let mut out = Log::with_capacity_for(n, self.sites.len());
        for (e, &missing) in self.entries.iter().zip(&scratch.missing) {
            if missing {
                out.push_back(e.clone());
            }
        }
        out
    }

    /// The operations in timestamp order, as a history.
    pub fn to_history(&self) -> History<Op> {
        self.entries.iter().map(|e| e.op.clone()).collect()
    }

    /// The largest timestamp present, if any.
    pub fn max_timestamp(&self) -> Option<Timestamp> {
        self.entries.last().map(|e| e.ts)
    }

    /// The per-site Merkle index of this log's timestamp set, built
    /// from scratch on first use (O(n log n)) and maintained
    /// incrementally (O(log n) per new entry) from then on. Logs that
    /// never call this pay nothing.
    pub fn merkle_index(&mut self) -> &MerkleIndex {
        if self.merkle.is_none() {
            self.merkle = Some(Box::new(MerkleIndex::from_timestamps(
                self.entries.iter().map(|e| e.ts),
            )));
        }
        self.merkle.as_deref().expect("just built")
    }

    /// The entries of `site` with counters in `[lo, hi)` as a log — the
    /// payload for one divergent Merkle leaf. Counter ranges are
    /// contiguous in the (counter, site) sort order, so this is two
    /// binary searches plus a scan of the range.
    #[must_use]
    pub fn entries_in_range(&self, site: usize, lo: u64, hi: u64) -> Log<Op> {
        let start = self.entries.partition_point(|e| e.ts.counter < lo);
        let end = self.entries.partition_point(|e| e.ts.counter < hi);
        let slice = &self.entries[start..end];
        let n = slice.iter().filter(|e| e.ts.site == site).count();
        let mut out = Log::with_capacity_for(n, 1);
        for e in slice.iter().filter(|e| e.ts.site == site) {
            out.push_back(e.clone());
        }
        out
    }

    /// True if this log contains every entry of `other`.
    pub fn contains_log(&self, other: &Log<Op>) -> bool {
        other
            .entries
            .iter()
            .all(|e| self.entries.binary_search_by_key(&e.ts, |x| x.ts).is_ok())
    }
}

impl<Op: Clone> FromIterator<Entry<Op>> for Log<Op> {
    fn from_iter<I: IntoIterator<Item = Entry<Op>>>(iter: I) -> Self {
        let mut log = Log::new();
        for e in iter {
            log.insert(e);
        }
        log
    }
}

impl<Op: fmt::Display> fmt::Display for Log<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "log[")?;
        for e in &self.entries {
            writeln!(f, "  {e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(counter: u64, site: usize, op: &str) -> Entry<String> {
        Entry::new(Timestamp::new(counter, site), op.to_string())
    }

    /// The pre-optimization merge (repeated inserts), kept as the oracle.
    fn naive_merged(a: &Log<String>, b: &Log<String>) -> Log<String> {
        let mut out = a.clone();
        for entry in b.entries() {
            out.insert(entry.clone());
        }
        out
    }

    /// Recomputes the indices from scratch and checks them against the
    /// incrementally maintained ones.
    fn check_indices(log: &Log<String>) {
        let mut acc = 0u64;
        let mut sites: Vec<SiteSummary> = Vec::new();
        let mut counters: Vec<Vec<u64>> = Vec::new();
        for (i, entry) in log.entries().iter().enumerate() {
            let ts = entry.ts;
            acc ^= mix_ts(ts);
            assert_eq!(log.prefix_hash(i + 1), acc, "prefix[{i}]");
            let row = match sites.binary_search_by_key(&ts.site, |s| s.site) {
                Ok(row) => row,
                Err(row) => {
                    let empty = SiteSummary {
                        site: ts.site,
                        count: 0,
                        max: 0,
                        hash: 0,
                    };
                    sites.insert(row, empty);
                    counters.insert(row, Vec::new());
                    row
                }
            };
            let s = &mut sites[row];
            s.count += 1;
            s.max = s.max.max(ts.counter);
            s.hash ^= mix_ts(ts);
            counters[row].push(ts.counter);
        }
        assert_eq!(log.sites, sites, "site summaries");
        if let Some(maintained) = &log.counters {
            assert_eq!(maintained, &counters, "incrementally maintained site index");
        }
        if log.merkle.is_some() {
            let rebuilt = MerkleIndex::from_timestamps(log.entries().iter().map(|e| e.ts));
            assert_eq!(
                log.merkle.as_deref(),
                Some(&rebuilt),
                "incrementally maintained merkle index"
            );
        }
    }

    /// Builds both lazy indices, so later mutations must maintain them.
    fn build_indices(log: &mut Log<String>) {
        let _ = log.merkle_index();
        log.counters = Some(log.build_counters());
    }

    fn log_of(v: &[(u64, usize)]) -> Log<String> {
        v.iter()
            .map(|&(ct, s)| Entry::new(Timestamp::new(ct, s), format!("op{ct}:{s}")))
            .collect()
    }

    #[test]
    fn merkle_index_is_maintained_through_insert_and_merge() {
        let mut log: Log<String> = [e(1, 0, "a"), e(9, 1, "b")].into_iter().collect();
        let _ = log.merkle_index(); // build; from here on it is incremental
        log.insert(e(40, 0, "c")); // push_back path (grows the tree)
        log.insert(e(3, 0, "d")); // middle-insert path
        let other: Log<String> = [e(3, 0, "d"), e(5, 1, "x"), e(200, 2, "y")]
            .into_iter()
            .collect();
        log.merge(&other); // general merge path with a duplicate
        check_indices(&log);
        assert_eq!(log.merkle_index().roots().len(), 3);
    }

    #[test]
    fn entries_in_range_selects_one_site_counter_window() {
        let log: Log<String> = [e(1, 0, "a"), e(2, 1, "b"), e(2, 0, "c"), e(9, 0, "d")]
            .into_iter()
            .collect();
        let got = log.entries_in_range(0, 2, 9);
        assert_eq!(got.len(), 1);
        assert_eq!(got.entries()[0].op, "c");
        assert_eq!(log.entries_in_range(0, 0, 100).len(), 3);
        assert!(log.entries_in_range(2, 0, 100).is_empty());
    }

    #[test]
    fn paper_replicated_queue_example() {
        // The three-site schematic of §3.1: merging reconstructs
        // Enq(x) · Enq(y) · Enq(z) in timestamp order.
        let s1: Log<String> = [e(1, 1, "Enq(x)"), e(2, 2, "Enq(z)")].into_iter().collect();
        let s2: Log<String> = [e(1, 1, "Enq(x)"), e(1, 3, "Enq(y)")].into_iter().collect();
        let s3: Log<String> = [e(1, 3, "Enq(y)"), e(2, 2, "Enq(z)")].into_iter().collect();

        let merged = s1.merged(&s2).merged(&s3);
        assert_eq!(merged.len(), 3);
        let ops: Vec<String> = merged.to_history().into_ops();
        assert_eq!(ops, vec!["Enq(x)", "Enq(y)", "Enq(z)"]);
        check_indices(&merged);
    }

    #[test]
    fn insert_keeps_order_and_discards_duplicates() {
        let mut log = Log::new();
        log.insert(e(2, 1, "b"));
        log.insert(e(1, 1, "a"));
        log.insert(e(2, 1, "DUPLICATE"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries()[0].op, "a");
        assert_eq!(log.entries()[1].op, "b");
        check_indices(&log);
    }

    #[test]
    fn contains_log_relation() {
        let small: Log<String> = [e(1, 1, "a")].into_iter().collect();
        let big: Log<String> = [e(1, 1, "a"), e(2, 1, "b")].into_iter().collect();
        assert!(big.contains_log(&small));
        assert!(!small.contains_log(&big));
        assert!(big.contains_log(&big));
    }

    #[test]
    fn max_timestamp() {
        let log: Log<String> = [e(3, 0, "c"), e(1, 0, "a")].into_iter().collect();
        assert_eq!(log.max_timestamp(), Some(Timestamp::new(3, 0)));
        assert_eq!(Log::<String>::new().max_timestamp(), None);
    }

    #[test]
    fn delta_above_ships_only_the_missing_suffix() {
        let mut replica: Log<String> = [e(1, 0, "a"), e(2, 0, "b"), e(3, 1, "c"), e(4, 0, "d")]
            .into_iter()
            .collect();
        let known: Log<String> = [e(1, 0, "a"), e(2, 0, "b")].into_iter().collect();
        let delta = replica.delta_above(&known.frontier());
        // Site 0 confirmed up to counter 2 → only (4,0); site 1 unknown →
        // all of it.
        assert_eq!(delta.len(), 2);
        assert_eq!(known.merged(&delta), replica);
    }

    #[test]
    fn delta_above_detects_per_site_holes() {
        // The peer holds {1,5} of site 0 — a hole at 3. Its summary
        // (count 2, max 5) cannot match our below-set {1,3,5}, so the
        // whole site is resent and the merge still reconstructs us.
        let mut replica: Log<String> = [e(1, 0, "a"), e(3, 0, "h"), e(5, 0, "z")]
            .into_iter()
            .collect();
        let known: Log<String> = [e(1, 0, "a"), e(5, 0, "z")].into_iter().collect();
        let delta = replica.delta_above(&known.frontier());
        assert_eq!(delta.len(), 3, "hole forces a full-site resend");
        assert_eq!(known.merged(&delta), replica);

        // Without the hole the same maximum yields a minimal delta.
        let known: Log<String> = [e(1, 0, "a"), e(3, 0, "h")].into_iter().collect();
        let delta = replica.delta_above(&known.frontier());
        assert_eq!(delta.len(), 1);
        assert_eq!(known.merged(&delta), replica);
    }

    #[test]
    fn delta_against_empty_frontier_is_the_whole_log() {
        let mut replica: Log<String> = [e(1, 0, "a"), e(2, 1, "b")].into_iter().collect();
        assert_eq!(replica.delta_above(&Frontier::empty()), replica);
        assert_eq!(
            replica.delta_above(&Log::<String>::new().frontier()),
            replica
        );
    }

    #[test]
    fn diff_is_set_difference() {
        let a: Log<String> = [e(1, 0, "a"), e(2, 0, "b"), e(3, 1, "c")]
            .into_iter()
            .collect();
        let b: Log<String> = [e(2, 0, "b")].into_iter().collect();
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert_eq!(b.merged(&d), a);
        assert!(a.diff(&a).is_empty());
        assert_eq!(a.diff(&Log::new()), a);
    }

    proptest! {
        /// Merge is commutative and associative, and idempotent.
        #[test]
        fn merge_is_a_join(
            a in proptest::collection::vec((1u64..6, 0usize..3), 0..8),
            b in proptest::collection::vec((1u64..6, 0usize..3), 0..8),
            c in proptest::collection::vec((1u64..6, 0usize..3), 0..8),
        ) {
            let (la, lb, lc) = (log_of(&a), log_of(&b), log_of(&c));
            prop_assert_eq!(la.merged(&lb), lb.merged(&la));
            prop_assert_eq!(la.merged(&lb).merged(&lc), la.merged(&lb.merged(&lc)));
            prop_assert_eq!(la.merged(&la), la);
        }

        /// A merged log contains both inputs.
        #[test]
        fn merge_is_upper_bound(
            a in proptest::collection::vec((1u64..6, 0usize..3), 0..8),
            b in proptest::collection::vec((1u64..6, 0usize..3), 0..8),
        ) {
            let (la, lb) = (log_of(&a), log_of(&b));
            let m = la.merged(&lb);
            prop_assert!(m.contains_log(&la));
            prop_assert!(m.contains_log(&lb));
        }

        /// The splice merge agrees with the repeated-insert oracle, and
        /// the incremental indices (built before the merge, or not)
        /// agree with a from-scratch rebuild.
        #[test]
        fn merge_matches_naive_and_indices_hold(
            a in proptest::collection::vec((1u64..10, 0usize..4), 0..16),
            b in proptest::collection::vec((1u64..10, 0usize..4), 0..16),
            indexed in any::<bool>(),
        ) {
            let (la, lb) = (log_of(&a), log_of(&b));
            let mut m = la.clone();
            if indexed {
                build_indices(&mut m);
            }
            m.merge(&lb);
            prop_assert_eq!(&m, &naive_merged(&la, &lb));
            prop_assert_eq!(m.counters.is_some(), indexed);
            prop_assert_eq!(m.merkle.is_some(), indexed);
            check_indices(&m);
            check_indices(&la);
        }

        /// The index-backed delta ships exactly what the whole-log scan
        /// ships, on replicas built by insert, suffix merge, general
        /// merge, merge into an (indexed) empty log and clone — with the
        /// index built before the last mutation, so its maintenance is
        /// what is tested — against frontiers with holes, sites the
        /// replica lacks, sites the peer lacks, and claimed entries the
        /// replica does not hold.
        #[test]
        fn indexed_delta_matches_the_whole_log_scan(
            a in proptest::collection::vec((1u64..12, 0usize..4), 0..20),
            b in proptest::collection::vec((1u64..12, 0usize..4), 0..20),
            build in 0u64..5,
            keep in proptest::collection::vec(any::<bool>(), 20),
            absent in proptest::collection::vec((1u64..14, 0usize..6), 0..3),
        ) {
            let mut replica = log_of(&a);
            build_indices(&mut replica);
            match build {
                0 => {
                    for entry in log_of(&b).entries() {
                        replica.insert(entry.clone());
                    }
                }
                1 => {
                    let shift = replica.max_timestamp().map_or(0, |t| t.counter);
                    let above: Vec<(u64, usize)> =
                        b.iter().map(|&(ct, s)| (ct + shift, s)).collect();
                    replica.merge(&log_of(&above));
                }
                2 => replica.merge(&log_of(&b)),
                3 => {
                    let mut empty = Log::new();
                    build_indices(&mut empty);
                    empty.merge(&replica.merged(&log_of(&b)));
                    prop_assert!(empty.counters.is_some(), "merge into empty kept the index");
                    replica = empty;
                }
                _ => {
                    replica.merge(&log_of(&b));
                    replica = replica.clone();
                    prop_assert!(replica.counters.is_none(), "clones carry no site index");
                }
            }
            check_indices(&replica);
            let mut known: Log<String> = replica
                .entries()
                .iter()
                .enumerate()
                .filter(|(i, _)| keep[*i % keep.len()])
                .map(|(_, entry)| entry.clone())
                .collect();
            known.merge(&log_of(&absent));
            let f = known.frontier();
            let oracle = replica.delta_above_scan(&f);
            let mut scratch = DiffScratch::default();
            let got = replica.delta_above_with(&f, &mut scratch);
            prop_assert_eq!(got.entries(), oracle.entries());
            check_indices(&got);
            prop_assert!(got.counters.is_none(), "payloads never build the index");
            // Warm scratch, built index: the same answer again.
            prop_assert_eq!(replica.delta_above_with(&f, &mut scratch), oracle);
            check_indices(&replica);
            // The suffix fast path agrees with the scan too.
            let prefix: Log<String> = replica.entries()[..replica.len() / 2].iter().cloned().collect();
            let pf = prefix.frontier();
            prop_assert_eq!(replica.delta_above_with(&pf, &mut scratch), replica.delta_above_scan(&pf));
        }

        /// Exactness of delta shipping: for any replica log and any
        /// subset the peer already knows, `known ∪ delta == replica`.
        #[test]
        fn delta_reconstructs_exactly(
            entries in proptest::collection::vec((1u64..12, 0usize..4), 0..20),
            keep in proptest::collection::vec(any::<bool>(), 20),
        ) {
            let mut replica: Log<String> = entries
                .iter()
                .map(|&(ct, s)| Entry::new(Timestamp::new(ct, s), format!("op{ct}:{s}")))
                .collect();
            let known: Log<String> = replica
                .entries()
                .iter()
                .enumerate()
                .filter(|(i, _)| keep[*i % keep.len()])
                .map(|(_, entry)| entry.clone())
                .collect();
            let delta = replica.delta_above(&known.frontier());
            prop_assert_eq!(&known.merged(&delta), &replica);
            // The scratch-threaded form is the same function, warm or cold.
            let mut scratch = DiffScratch::default();
            let d1 = replica.delta_above_with(&known.frontier(), &mut scratch);
            let d2 = replica.delta_above_with(&known.frontier(), &mut scratch);
            prop_assert_eq!(&d1, &delta);
            prop_assert_eq!(d2, delta);
            // The delta never ships entries the peer provably has: every
            // confirmed site's below-max entries are excluded, so the
            // delta is disjoint from `known` on confirmed sites. At
            // minimum it is never larger than the replica log.
            prop_assert!(delta.len() <= replica.len());
        }

        /// diff is exact: `other ∪ (self \ other) == self ∪ other`.
        #[test]
        fn diff_reconstructs(
            a in proptest::collection::vec((1u64..10, 0usize..3), 0..16),
            b in proptest::collection::vec((1u64..10, 0usize..3), 0..16),
        ) {
            let (la, lb) = (log_of(&a), log_of(&b));
            prop_assert_eq!(lb.merged(&la.diff(&lb)), lb.merged(&la));
            let mut scratch = DiffScratch::default();
            let d1 = la.diff_with(&lb, &mut scratch);
            let d2 = la.diff_with(&lb, &mut scratch);
            prop_assert_eq!(&d1, &la.diff(&lb));
            prop_assert_eq!(d1, d2);
        }
    }
}
