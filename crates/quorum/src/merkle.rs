//! Merkle anti-entropy: a hash tree over the timestamp space that
//! *localizes* log divergence instead of merely detecting it.
//!
//! The PR 5 frontier scheme ([`crate::frontier`]) summarizes each site
//! by one (count, max, XOR-hash) triple: a clean suffix is recognized in
//! O(1), but any *splice* — entries landing below a peer's claimed
//! maximum, exactly what the paper's small-final-quorum + partition
//! interleavings produce — degrades to a full per-site resend. This
//! module refines the summary into a fixed-arity hash tree per site:
//! leaves cover [`LEAF_WIDTH`]-wide counter ranges, internal nodes
//! cover [`ARITY`] children, and every node stores the entry count and
//! the XOR of [`mix_ts`] over its range. Because XOR is commutative and
//! invertible, the tree is maintained *incrementally* — an insert
//! touches one node per level, O(log n) total — and two replicas can
//! walk mismatched nodes root-to-leaf, exchanging O(log n) node
//! summaries over multiple rounds, to localize divergence to leaf
//! ranges and ship only the entries in mismatched leaves.
//!
//! Soundness rides on the same collision trust model as
//! [`mix_ts`]-based frontiers: a false hash *mismatch* only causes a
//! redundant leaf resend (merge is idempotent), while a false *match*
//! requires an XOR collision between distinct timestamp sets with equal
//! counts (probability ≈ 2⁻⁶⁴ per node comparison).

use crate::frontier::mix_ts;
use crate::timestamp::Timestamp;

/// Counters covered by one leaf bucket.
pub const LEAF_WIDTH: u64 = 16;
/// Children per internal node.
pub const ARITY: u64 = 8;

/// Counters covered by one node at `level` (leaves are level 0).
#[must_use]
pub fn span(level: u8) -> u64 {
    LEAF_WIDTH.saturating_mul(ARITY.saturating_pow(u32::from(level)))
}

/// One advertised tree node: identity plus its (count, hash) summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MerkleNode {
    /// Generating site of the covered timestamps.
    pub site: usize,
    /// Tree level; leaves are 0.
    pub level: u8,
    /// Bucket index at that level: covers counters
    /// `[index * span(level), (index + 1) * span(level))`.
    pub index: u64,
    /// Entries in the covered range.
    pub count: u64,
    /// XOR of [`mix_ts`] over them.
    pub hash: u64,
}

impl MerkleNode {
    /// The covered counter range as `(lo, hi)` with `hi` exclusive.
    #[must_use]
    pub fn range(&self) -> (u64, u64) {
        let w = span(self.level);
        let lo = self.index.saturating_mul(w);
        (lo, lo.saturating_add(w))
    }
}

/// A node's identity without its summary — what a peer asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRange {
    /// Generating site.
    pub site: usize,
    /// Tree level; leaves are 0.
    pub level: u8,
    /// Bucket index at that level.
    pub index: u64,
}

impl NodeRange {
    /// The covered counter range as `(lo, hi)` with `hi` exclusive.
    #[must_use]
    pub fn range(&self) -> (u64, u64) {
        let w = span(self.level);
        let lo = self.index.saturating_mul(w);
        (lo, lo.saturating_add(w))
    }
}

/// A node's aggregate: entry count and XOR set hash over its range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    count: u64,
    hash: u64,
}

impl Cell {
    fn note(&mut self, h: u64) {
        self.count += 1;
        self.hash ^= h;
    }
}

/// The tree for one site. `levels[0]` are the leaves; the root level
/// always has a single bucket (index 0) covering every counter seen,
/// growing taller lazily as counters exceed the current root span.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SiteTree {
    site: usize,
    levels: Vec<Vec<Cell>>,
}

impl SiteTree {
    fn new(site: usize) -> Self {
        SiteTree {
            site,
            levels: vec![Vec::new()],
        }
    }

    fn height(&self) -> u8 {
        self.levels.len() as u8
    }

    /// The root aggregate (the whole site's entry set).
    fn root_cell(&self) -> Cell {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or_default()
    }

    fn note(&mut self, ts: Timestamp) {
        debug_assert_eq!(ts.site, self.site);
        // Grow the tree until the root bucket covers the counter; the
        // new top level's single bucket aggregates the old root.
        while ts.counter >= span(self.height() - 1) {
            let top = self.root_cell();
            self.levels.push(vec![top]);
        }
        let h = mix_ts(ts);
        for (level, cells) in self.levels.iter_mut().enumerate() {
            let idx = (ts.counter / span(level as u8)) as usize;
            if cells.len() <= idx {
                cells.resize(idx + 1, Cell::default());
            }
            cells[idx].note(h);
        }
    }

    /// The aggregate of node `(level, index)`. Levels at or above the
    /// tree's height are *virtual* ancestors of the root: bucket 0
    /// covers every entry (all counters are below the root span), every
    /// other bucket is empty. This lets trees of different heights
    /// compare correctly without materializing the taller shape.
    fn node(&self, level: u8, index: u64) -> Cell {
        if level < self.height() {
            self.levels[level as usize]
                .get(index as usize)
                .copied()
                .unwrap_or_default()
        } else if index == 0 {
            self.root_cell()
        } else {
            Cell::default()
        }
    }
}

/// The per-site Merkle index of a log's timestamp set, maintained
/// incrementally by [`crate::log::Log`] alongside its frontier table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MerkleIndex {
    sites: Vec<SiteTree>,
}

impl MerkleIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        MerkleIndex::default()
    }

    /// Builds the index of a timestamp set from scratch.
    pub fn from_timestamps<I: IntoIterator<Item = Timestamp>>(iter: I) -> Self {
        let mut idx = MerkleIndex::new();
        for ts in iter {
            idx.note(ts);
        }
        idx
    }

    /// Folds one (new, never-seen) timestamp into the index: O(height)
    /// XOR updates, one node per level.
    pub fn note(&mut self, ts: Timestamp) {
        let i = match self.sites.binary_search_by_key(&ts.site, |t| t.site) {
            Ok(i) => i,
            Err(i) => {
                self.sites.insert(i, SiteTree::new(ts.site));
                i
            }
        };
        self.sites[i].note(ts);
    }

    fn tree(&self, site: usize) -> Option<&SiteTree> {
        self.sites
            .binary_search_by_key(&site, |t| t.site)
            .ok()
            .map(|i| &self.sites[i])
    }

    /// The (count, hash) aggregate of node `(site, level, index)`;
    /// `(0, 0)` for ranges holding no entries. Handles levels above this
    /// tree's height (see `SiteTree::node`), so a shorter tree answers
    /// a taller peer's probes correctly.
    #[must_use]
    pub fn node(&self, site: usize, level: u8, index: u64) -> (u64, u64) {
        match self.tree(site) {
            None => (0, 0),
            Some(t) => {
                let c = t.node(level, index);
                (c.count, c.hash)
            }
        }
    }

    /// One root node per non-empty site — the probe a replica
    /// broadcasts to start a sync round.
    #[must_use]
    pub fn roots(&self) -> Vec<MerkleNode> {
        self.sites
            .iter()
            .filter(|t| t.root_cell().count > 0)
            .map(|t| {
                let c = t.root_cell();
                MerkleNode {
                    site: t.site,
                    level: t.height() - 1,
                    index: 0,
                    count: c.count,
                    hash: c.hash,
                }
            })
            .collect()
    }

    /// Appends the non-empty children of `(site, level, index)` to
    /// `out` — the expansion step of the localization walk.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 (leaves have no children).
    pub fn children_into(&self, site: usize, level: u8, index: u64, out: &mut Vec<MerkleNode>) {
        assert!(level > 0, "leaves have no children");
        for c in 0..ARITY {
            let ci = index * ARITY + c;
            let (count, hash) = self.node(site, level - 1, ci);
            if count > 0 {
                out.push(MerkleNode {
                    site,
                    level: level - 1,
                    index: ci,
                    count,
                    hash,
                });
            }
        }
    }

    /// True when no site holds entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.iter().all(|t| t.root_cell().count == 0)
    }
}

/// The outcome of running [`localize`] to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncPlan {
    /// Sender leaves whose covered entries must ship (hash mismatch).
    pub leaves: Vec<MerkleNode>,
    /// Probe/expand rounds taken (root broadcast counts as one).
    pub rounds: usize,
    /// Total node summaries exchanged across all rounds.
    pub nodes_exchanged: usize,
}

/// Runs the full localization walk between a sender's index and a
/// receiver's, offline: starting from the sender's roots, the receiver
/// compares each advertised node against its own aggregate, expands
/// mismatched internal nodes, and collects mismatched leaves. The
/// returned leaves cover every sender entry the receiver lacks (under
/// the XOR collision trust model), so shipping exactly those ranges
/// makes the receiver a superset of the sender on divergent ranges.
///
/// The runtime plays the same walk over the wire one round per message
/// exchange; this pure form is the oracle its tests and the
/// `merkle_sync` proptests check against.
#[must_use]
pub fn localize(sender: &MerkleIndex, receiver: &MerkleIndex) -> SyncPlan {
    let mut frontier = sender.roots();
    let mut leaves = Vec::new();
    let mut rounds = 0;
    let mut nodes_exchanged = 0;
    while !frontier.is_empty() {
        rounds += 1;
        nodes_exchanged += frontier.len();
        let mut next = Vec::new();
        for n in frontier {
            if receiver.node(n.site, n.level, n.index) == (n.count, n.hash) {
                continue;
            }
            if n.level == 0 {
                leaves.push(n);
            } else {
                sender.children_into(n.site, n.level, n.index, &mut next);
            }
        }
        frontier = next;
    }
    SyncPlan {
        leaves,
        rounds,
        nodes_exchanged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(counter: u64, site: usize) -> Timestamp {
        Timestamp::new(counter, site)
    }

    /// The naive aggregate over an explicit timestamp set.
    fn naive_node(set: &[Timestamp], site: usize, level: u8, index: u64) -> (u64, u64) {
        let w = span(level);
        let (lo, hi) = (index * w, (index + 1) * w);
        set.iter()
            .filter(|t| t.site == site && t.counter >= lo && t.counter < hi)
            .fold((0, 0), |(c, h), t| (c + 1, h ^ mix_ts(*t)))
    }

    #[test]
    fn incremental_matches_naive_on_every_node() {
        let set: Vec<Timestamp> = [
            (1, 0),
            (2, 0),
            (17, 0),
            (300, 0),
            (1500, 0),
            (3, 1),
            (900, 1),
        ]
        .map(|(c, s)| ts(c, s))
        .to_vec();
        let idx = MerkleIndex::from_timestamps(set.iter().copied());
        for site in 0..3 {
            for level in 0..6u8 {
                for index in 0..(2048 / span(level)).max(1) {
                    assert_eq!(
                        idx.node(site, level, index),
                        naive_node(&set, site, level, index),
                        "site {site} level {level} index {index}"
                    );
                }
            }
        }
    }

    #[test]
    fn tree_grows_taller_as_counters_grow() {
        let mut idx = MerkleIndex::new();
        idx.note(ts(1, 0));
        assert_eq!(idx.roots()[0].level, 0, "counters < 16 fit in one leaf");
        idx.note(ts(20, 0));
        assert_eq!(idx.roots()[0].level, 1);
        idx.note(ts(5000, 0));
        assert_eq!(idx.roots()[0].level, 3, "span(3) = 8192 covers 5000");
        // The root still aggregates everything seen before the growth.
        let root = idx.roots()[0];
        assert_eq!(root.count, 3);
        assert_eq!(
            root.hash,
            mix_ts(ts(1, 0)) ^ mix_ts(ts(20, 0)) ^ mix_ts(ts(5000, 0))
        );
    }

    #[test]
    fn virtual_levels_answer_taller_probes() {
        // A short tree (height 1) must answer probes phrased at a taller
        // peer's root level as if it had grown.
        let mut short = MerkleIndex::new();
        short.note(ts(3, 0));
        assert_eq!(short.node(0, 4, 0), (1, mix_ts(ts(3, 0))));
        assert_eq!(short.node(0, 4, 1), (0, 0));
    }

    #[test]
    fn children_tile_their_parent() {
        let set: Vec<Timestamp> = (1..200).map(|c| ts(c * 7 % 1000 + 1, 0)).collect();
        let idx = MerkleIndex::from_timestamps(set.iter().copied());
        let root = idx.roots()[0];
        let mut kids = Vec::new();
        idx.children_into(0, root.level, root.index, &mut kids);
        let count: u64 = kids.iter().map(|k| k.count).sum();
        let hash: u64 = kids.iter().fold(0, |h, k| h ^ k.hash);
        assert_eq!((count, hash), (root.count, root.hash));
    }

    #[test]
    fn localize_on_equal_indices_is_one_root_round() {
        let set: Vec<Timestamp> = (1..100).map(|c| ts(c, c as usize % 3)).collect();
        let a = MerkleIndex::from_timestamps(set.iter().copied());
        let plan = localize(&a, &a.clone());
        assert!(plan.leaves.is_empty());
        assert_eq!(plan.rounds, 1, "roots match, walk stops immediately");
    }

    #[test]
    fn localize_finds_a_single_missing_entry_in_log_rounds() {
        // 1024 counters, receiver missing exactly one: the walk must
        // descend one path, exchanging O(arity * height) nodes, and name
        // exactly the leaf holding the hole.
        let full: Vec<Timestamp> = (1..=1024).map(|c| ts(c, 0)).collect();
        let sender = MerkleIndex::from_timestamps(full.iter().copied());
        let receiver =
            MerkleIndex::from_timestamps(full.iter().copied().filter(|t| t.counter != 777));
        let plan = localize(&sender, &receiver);
        assert_eq!(plan.leaves.len(), 1);
        let (lo, hi) = plan.leaves[0].range();
        assert!(lo <= 777 && 777 < hi);
        assert!(plan.rounds <= 5, "root + one expansion per level");
        assert!(
            plan.nodes_exchanged <= 1 + (ARITY as usize) * 4,
            "one path of children, not the whole tree: {}",
            plan.nodes_exchanged
        );
    }

    #[test]
    fn localize_covers_every_divergent_entry() {
        let a_set: Vec<Timestamp> = (1..300).filter(|c| c % 3 != 0).map(|c| ts(c, 1)).collect();
        let b_set: Vec<Timestamp> = (1..300).filter(|c| c % 4 != 0).map(|c| ts(c, 1)).collect();
        let a = MerkleIndex::from_timestamps(a_set.iter().copied());
        let b = MerkleIndex::from_timestamps(b_set.iter().copied());
        let plan = localize(&a, &b);
        for t in a_set.iter().filter(|t| !b_set.contains(t)) {
            assert!(
                plan.leaves.iter().any(|l| {
                    let (lo, hi) = l.range();
                    l.site == t.site && t.counter >= lo && t.counter < hi
                }),
                "divergent {t:?} not covered by any shipped leaf"
            );
        }
    }
}
