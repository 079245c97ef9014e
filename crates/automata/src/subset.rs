//! The determinized subset-graph language engine.
//!
//! The naive enumerators in [`crate::language::naive`] carry a cloned
//! [`History`] and a cloned `HashSet<State>` per frontier entry, so two
//! histories that reach the *same* set of states are explored twice. This
//! module determinizes on the fly instead: every reachable state set is
//! canonicalized (sorted, deduplicated) and hash-consed into an arena with
//! a stable [`SubsetId`], and the bounded exploration becomes a layered
//! graph whose nodes are `(depth, SubsetId)` pairs annotated with
//!
//! * a **multiplicity** — how many distinct accepted histories of length
//!   `depth` reach this state set (languages of object automata are
//!   prefix-closed, so accepted histories correspond bijectively to paths
//!   from the root and per-node multiplicities give *exact* distinct
//!   history counts), and
//! * a **parent pointer** `(node index in previous level, alphabet
//!   index)` — enough to reconstruct one concrete history per node
//!   without storing any history during the walk.
//!
//! Inclusion and equality checks run on the **product** subset graph
//! (pairs of left/right `SubsetId`s): a node with a nonempty left set and
//! an empty right set witnesses `L(left) ⊄ L(right)` and its history is
//! reconstructed from parent pointers only then.
//!
//! Frontier expansion can run in parallel: the current level is chunked
//! over scoped threads, each worker resolves successor sets against the
//! *frozen* arena and collects unknown sets in a per-thread interner
//! delta, and the main thread merges the deltas in deterministic chunk
//! order — results are identical for every thread count.
//!
//! Both walk shapes take a [`SymmetryPolicy`] ([`SubsetGraph::explore_modulo`],
//! [`compare_upto_modulo`]): workers canonicalize each successor set to
//! its orbit representative before resolving it, so orbit reduction rides
//! the same chunked expansion (see [`crate::symmetry`]). The plain entry
//! points pass [`TrivialSymmetry`], for which canonicalization is free.

use std::collections::hash_map::{self, DefaultHasher};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::automaton::ObjectAutomaton;
use crate::cons::{ConsTable, Entry};
use crate::history::History;
use crate::language::LanguageDifference;
use crate::probe::{EngineProbe, NoopProbe};
use crate::small::SmallVec;
use crate::symmetry::{
    canonical_pair, canonical_rep, check_group_laws, child_frame, SymmetryPolicy, TrivialSymmetry,
};

/// Stable identifier of a canonical state set in a [`SubsetArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubsetId(u32);

impl SubsetId {
    /// The id of the empty state set (interned by every arena at birth).
    pub const EMPTY: SubsetId = SubsetId(0);

    /// Is this the empty state set?
    pub fn is_empty(self) -> bool {
        self == SubsetId::EMPTY
    }
}

/// A hash-consing arena of canonical (sorted, deduplicated) state sets.
///
/// Interning the same set twice returns the same [`SubsetId`], so set
/// equality is id equality and per-level deduplication is a small-key
/// hash-map lookup instead of a set comparison.
///
/// Interning is **single-probe**: each candidate set is hashed exactly
/// once and the [`ConsTable`] entry API either returns the existing id
/// or hands back the vacant slot — the old `HashMap`-based arena hashed
/// a miss twice (lookup, then insert).
#[derive(Debug, Clone)]
pub struct SubsetArena<S> {
    sets: Vec<Arc<[S]>>,
    table: ConsTable,
}

impl<S: Clone + Eq + Ord + Hash> SubsetArena<S> {
    /// An arena holding only the empty set ([`SubsetId::EMPTY`]).
    pub fn new() -> Self {
        let mut arena = SubsetArena {
            sets: Vec::new(),
            table: ConsTable::new(),
        };
        arena.intern(Vec::new());
        arena
    }

    /// Sorts and deduplicates a raw state collection into canonical form.
    pub fn canonicalize(mut states: Vec<S>) -> Vec<S> {
        states.sort_unstable();
        states.dedup();
        states
    }

    /// The hash under which a canonical set is interned (the engine's
    /// single hashing point: callers reuse the value across an arena
    /// lookup and a delta-table probe).
    pub(crate) fn hash_slice(set: &[S]) -> u64 {
        let mut h = DefaultHasher::new();
        set.hash(&mut h);
        h.finish()
    }

    /// The id of an already-interned canonical set, if known.
    pub fn lookup(&self, set: &[S]) -> Option<SubsetId> {
        self.lookup_hashed(Self::hash_slice(set), set)
    }

    /// [`SubsetArena::lookup`] with a precomputed [`SubsetArena::hash_slice`] hash.
    pub(crate) fn lookup_hashed(&self, hash: u64, set: &[S]) -> Option<SubsetId> {
        self.table
            .get(hash, |id| &*self.sets[id as usize] == set)
            .map(SubsetId)
    }

    /// Interns a canonical (sorted, deduplicated) set, returning its
    /// stable id. Re-interning returns the existing id. One hash, one
    /// probe.
    pub fn intern(&mut self, set: Vec<S>) -> SubsetId {
        let hash = Self::hash_slice(&set);
        let sets = &self.sets;
        match self.table.entry(hash, |id| *sets[id as usize] == set) {
            Entry::Occupied(id) => SubsetId(id),
            Entry::Vacant(slot) => {
                let id = u32::try_from(self.sets.len()).expect("arena exceeds u32 ids");
                slot.insert(id);
                self.sets.push(set.into());
                // Ids are positions in `sets`: stable across table growth
                // (growth rehashes stored hashes only) and re-interning.
                debug_assert_eq!(self.sets.len(), id as usize + 1);
                debug_assert_eq!(self.lookup(&self.sets[id as usize]), Some(SubsetId(id)));
                SubsetId(id)
            }
        }
    }

    /// The states of an interned set.
    pub fn get(&self, id: SubsetId) -> &[S] {
        &self.sets[id.0 as usize]
    }

    /// Number of distinct interned sets (including the empty set).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Always false: the empty *set of states* is itself interned.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Approximate heap bytes held by the arena: set payloads, the
    /// `Arc` handles, and the cons table. States owning further heap
    /// memory count only their inline size.
    pub fn approx_bytes(&self) -> usize {
        let payload: usize = self
            .sets
            .iter()
            .map(|s| s.len() * std::mem::size_of::<S>())
            .sum();
        payload + self.sets.capacity() * std::mem::size_of::<Arc<[S]>>() + self.table.approx_bytes()
    }

    /// `(occupied, slots)` of the cons table, for load-factor reporting.
    pub fn table_load(&self) -> (usize, usize) {
        (self.table.len(), self.table.capacity())
    }
}

impl<S: Clone + Eq + Ord + Hash> Default for SubsetArena<S> {
    fn default() -> Self {
        SubsetArena::new()
    }
}

/// One node of a subset graph level: a state set reached by
/// `multiplicity` distinct histories of the level's length.
#[derive(Debug, Clone, Copy)]
pub struct SubsetNode {
    /// The canonical reachable state set (an orbit representative under
    /// a nontrivial [`SymmetryPolicy`]).
    pub set: SubsetId,
    /// Number of distinct accepted histories of this length reaching
    /// `set`, or any set in its orbit (exact — see module docs).
    pub multiplicity: u64,
    /// Index of one predecessor node in the previous level (`u32::MAX`
    /// for the root).
    pub parent: u32,
    /// Alphabet index of the edge from `parent` to this node, in the
    /// original (unrelabeled) frame.
    pub op: u16,
    /// The group element mapping `set` to the state set that
    /// [`SubsetGraph::history_of`] really reaches (`perm·set`); always 0
    /// under [`TrivialSymmetry`].
    pub perm: u16,
}

const NO_PARENT: u32 = u32::MAX;

// `perm` fits in the padding after `op`: nodes stay 24 bytes.
const _: () = assert!(std::mem::size_of::<SubsetNode>() == 24);
const _: () = assert!(std::mem::size_of::<ProductNode>() == 24);

/// How a worker refers to a successor set: already interned in the frozen
/// arena, or position `u32` in the worker's own delta table.
#[derive(Debug, Clone, Copy)]
enum SetRef {
    Known(SubsetId),
    Local(u32),
}

impl SetRef {
    /// The interned id, given the arena ids the chunk's delta received.
    fn id(self, globals: &[SubsetId]) -> SubsetId {
        match self {
            SetRef::Known(id) => id,
            SetRef::Local(local) => globals[local as usize],
        }
    }
}

impl Default for SetRef {
    fn default() -> Self {
        SetRef::Known(SubsetId::EMPTY)
    }
}

/// Inline capacity of per-node successor lists: one slot per alphabet
/// symbol covers the queue alphabets (4–8 symbols) without spilling.
const SUCC_INLINE: usize = 8;

/// Per-worker expansion output for one chunk of the frontier: for each
/// node of the chunk, the nonempty successors per alphabet index with the
/// group element that canonicalized each, plus the chunk's interner delta
/// (canonical sets missing from the frozen arena, deduplicated within the
/// chunk).
struct ChunkExpansion<S> {
    succs: Vec<SmallVec<(u16, SetRef, u16), SUCC_INLINE>>,
    delta: Vec<Vec<S>>,
}

/// A local interner for sets not present in the frozen arena. Each
/// candidate is hashed once; the hash is shared between the frozen-arena
/// lookup and the local single-probe table.
struct DeltaInterner<'a, S> {
    arena: &'a SubsetArena<S>,
    delta: Vec<Vec<S>>,
    local: ConsTable,
}

impl<'a, S: Clone + Eq + Ord + Hash> DeltaInterner<'a, S> {
    fn new(arena: &'a SubsetArena<S>) -> Self {
        DeltaInterner {
            arena,
            delta: Vec::new(),
            local: ConsTable::new(),
        }
    }

    fn resolve(&mut self, set: Vec<S>) -> SetRef {
        let hash = SubsetArena::hash_slice(&set);
        if let Some(id) = self.arena.lookup_hashed(hash, &set) {
            return SetRef::Known(id);
        }
        let delta = &self.delta;
        match self.local.entry(hash, |i| delta[i as usize] == set) {
            Entry::Occupied(local) => SetRef::Local(local),
            Entry::Vacant(slot) => {
                let local = u32::try_from(self.delta.len()).expect("delta exceeds u32 ids");
                slot.insert(local);
                self.delta.push(set);
                SetRef::Local(local)
            }
        }
    }
}

/// Canonical successor sets of one state set, indexed by alphabet
/// position (an empty vec means `δ` is undefined there). Calls
/// [`ObjectAutomaton::step_all`] once per member state so automata with
/// batched transitions amortize their per-state work.
pub(crate) fn canonical_successors<A: ObjectAutomaton>(
    automaton: &A,
    alphabet: &[A::Op],
    set: &[A::State],
) -> Vec<Vec<A::State>> {
    let mut per_op: Vec<Vec<A::State>> = vec![Vec::new(); alphabet.len()];
    for state in set {
        for (i, mut succ) in automaton.step_all(state, alphabet).into_iter().enumerate() {
            per_op[i].append(&mut succ);
        }
    }
    per_op.into_iter().map(SubsetArena::canonicalize).collect()
}

/// Splits `level` into at most `threads` contiguous chunks and maps
/// `expand` over them (on scoped threads when more than one), returning
/// chunk results in deterministic chunk order.
fn expand_chunks<N: Sync, T: Send>(
    level: &[N],
    threads: usize,
    expand: impl Fn(&[N]) -> T + Sync,
) -> Vec<T> {
    let threads = threads.max(1).min(level.len().max(1));
    if threads == 1 {
        return vec![expand(level)];
    }
    let chunk_size = level.len().div_ceil(threads);
    let expand = &expand;
    std::thread::scope(|scope| {
        let handles: Vec<_> = level
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || expand(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("subset-walk worker panicked"))
            .collect()
    })
}

/// Frontier width (in nodes) below which levels are expanded inline —
/// thread spawn/merge overhead dominates on small frontiers.
const PARALLEL_THRESHOLD: usize = 1024;

/// The number of worker threads to use for a frontier of `width` nodes.
fn auto_threads(width: usize) -> usize {
    if width < PARALLEL_THRESHOLD {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The bounded determinized subset graph of one automaton: level `d`
/// holds the distinct reachable state sets (or orbit representatives,
/// see [`SubsetGraph::explore_modulo`]) after accepted histories of
/// length exactly `d`.
#[derive(Debug, Clone)]
pub struct SubsetGraph<A: ObjectAutomaton> {
    arena: SubsetArena<A::State>,
    alphabet: Vec<A::Op>,
    levels: Vec<Vec<SubsetNode>>,
    max_len: usize,
}

impl<A> SubsetGraph<A>
where
    A: ObjectAutomaton + Sync,
    A::State: Send + Sync,
    A::Op: Sync,
{
    /// Explores the subset graph of `automaton` up to histories of length
    /// `max_len` over `alphabet`, picking a thread count automatically.
    pub fn explore(automaton: &A, alphabet: &[A::Op], max_len: usize) -> Self {
        Self::explore_modulo(automaton, alphabet, max_len, &TrivialSymmetry, None)
    }

    /// [`SubsetGraph::explore`] with an explicit worker-thread count
    /// (`None` = automatic). The result is identical for every thread
    /// count; this entry point exists so tests can exercise the parallel
    /// merge on any machine.
    pub fn explore_with_threads(
        automaton: &A,
        alphabet: &[A::Op],
        max_len: usize,
        threads: Option<usize>,
    ) -> Self {
        Self::explore_modulo(automaton, alphabet, max_len, &TrivialSymmetry, threads)
    }

    /// Explores the subset graph with every state set canonicalized to
    /// its orbit representative under `policy` (`threads` as in
    /// [`SubsetGraph::explore_with_threads`]). Per-length sizes equal the
    /// unreduced graph's exactly; the frontier is up to `|G|` narrower.
    /// Under [`TrivialSymmetry`] this is the plain walk.
    ///
    /// `policy` must be equivariant for `automaton`
    /// ([`crate::symmetry::check_equivariance`]); debug builds verify the
    /// group laws at entry.
    pub fn explore_modulo<P>(
        automaton: &A,
        alphabet: &[A::Op],
        max_len: usize,
        policy: &P,
        threads: Option<usize>,
    ) -> Self
    where
        P: SymmetryPolicy<A> + Sync,
    {
        debug_assert_eq!(check_group_laws::<A, P>(policy, alphabet.len()), Ok(()));
        let mut arena = SubsetArena::new();
        let (root_rep, root_canon) = canonical_rep(policy, vec![automaton.initial_state()]);
        let mut levels = vec![vec![SubsetNode {
            set: arena.intern(root_rep),
            multiplicity: 1,
            parent: NO_PARENT,
            op: 0,
            perm: policy.inverse(root_canon as usize) as u16,
        }]];

        for _ in 0..max_len {
            let current = levels.last().expect("levels never empty");
            let nthreads = threads.unwrap_or_else(|| auto_threads(current.len()));
            let chunks = expand_chunks(current, nthreads, |chunk| {
                let mut interner = DeltaInterner::new(&arena);
                let succs = chunk
                    .iter()
                    .map(|node| {
                        canonical_successors(automaton, alphabet, arena.get(node.set))
                            .into_iter()
                            .enumerate()
                            .filter(|(_, set)| !set.is_empty())
                            .map(|(i, set)| {
                                let (rep, canon) = canonical_rep(policy, set);
                                (i as u16, interner.resolve(rep), canon)
                            })
                            .collect()
                    })
                    .collect();
                ChunkExpansion {
                    succs,
                    delta: interner.delta,
                }
            });

            let mut next: Vec<SubsetNode> = Vec::new();
            let mut index_of: HashMap<SubsetId, u32> = HashMap::new();
            let mut parent = 0u32;
            for chunk in chunks {
                let globals: Vec<SubsetId> =
                    chunk.delta.into_iter().map(|s| arena.intern(s)).collect();
                for per_node in chunk.succs {
                    let from = current[parent as usize];
                    for &(op, succ, canon) in per_node.iter() {
                        let set = succ.id(&globals);
                        match index_of.entry(set) {
                            hash_map::Entry::Occupied(e) => {
                                next[*e.get() as usize].multiplicity += from.multiplicity;
                            }
                            hash_map::Entry::Vacant(e) => {
                                e.insert(
                                    u32::try_from(next.len()).expect("level exceeds u32 nodes"),
                                );
                                let (op, perm) = child_frame(policy, from.perm, op, canon);
                                next.push(SubsetNode {
                                    set,
                                    multiplicity: from.multiplicity,
                                    parent,
                                    op,
                                    perm,
                                });
                            }
                        }
                    }
                    parent += 1;
                }
            }
            if next.is_empty() {
                break;
            }
            levels.push(next);
        }

        SubsetGraph {
            arena,
            alphabet: alphabet.to_vec(),
            levels,
            max_len,
        }
    }
}

impl<A: ObjectAutomaton> SubsetGraph<A> {
    /// Distinct accepted histories per length: `result[n]` counts
    /// histories of length exactly `n`, for `n = 0..=max_len` (padded
    /// with zeros past any dead end).
    pub fn sizes(&self) -> Vec<u64> {
        let mut sizes: Vec<u64> = self
            .levels
            .iter()
            .map(|level| level.iter().map(|n| n.multiplicity).sum())
            .collect();
        sizes.resize(self.max_len + 1, 0);
        sizes
    }

    /// Total distinct accepted histories of length ≤ `max_len`.
    pub fn total_size(&self) -> u64 {
        self.sizes().iter().sum()
    }

    /// The levels of the graph; `levels()[d][i]` is node `i` at depth `d`.
    pub fn levels(&self) -> &[Vec<SubsetNode>] {
        &self.levels
    }

    /// The states of an interned set.
    pub fn set(&self, id: SubsetId) -> &[A::State] {
        self.arena.get(id)
    }

    /// The widest level, in nodes — the peak memory driver.
    pub fn peak_level_width(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total distinct interned state sets.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Reconstructs one concrete history of the original automaton
    /// reaching node `index` of level `depth` (it reaches `perm·set`), by
    /// following parent pointers to the root — O(depth), no level scans.
    pub fn history_of(&self, depth: usize, index: usize) -> History<A::Op> {
        reconstruct_path(
            &self.levels,
            |n| (n.parent, n.op),
            &self.alphabet,
            depth,
            index,
        )
    }
}

/// Shared O(depth) witness reconstruction: walks `(parent, alphabet
/// index)` edges from `(depth, index)` to the root. Every layered walk in
/// the engine (single graph, product walk, multi-point walk) stores the
/// same two fields per node, with alphabet indices already in the
/// original frame, and reconstructs through this helper.
pub(crate) fn reconstruct_path<Op: Clone, N>(
    levels: &[Vec<N>],
    edge: impl Fn(&N) -> (u32, u16),
    alphabet: &[Op],
    depth: usize,
    index: usize,
) -> History<Op> {
    let mut ops = Vec::with_capacity(depth);
    let mut d = depth;
    let mut i = index;
    while d > 0 {
        let (parent, op) = edge(&levels[d][i]);
        ops.push(alphabet[op as usize].clone());
        i = parent as usize;
        d -= 1;
    }
    ops.reverse();
    History::from(ops)
}

/// When a product walk may stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// As soon as either direction has a violation (inclusion/equality
    /// checks that only need one counterexample).
    AnyViolation,
    /// Once both directions have violations, or the frontier dies out
    /// (strict-inclusion checks need a verdict for each direction).
    BothViolations,
    /// Never — walk the whole bounded product (exact per-length counts).
    Never,
}

/// Options for [`compare_upto`].
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Also explore histories accepted only by the right automaton.
    /// Required to detect `L(right) ⊄ L(left)`; plain one-direction
    /// inclusion checks leave it off and prune right-only nodes.
    pub walk_right_only: bool,
    /// When the walk may stop.
    pub stop: StopWhen,
    /// Worker-thread count (`None` = automatic).
    pub threads: Option<usize>,
}

impl CompareOptions {
    /// Options for a one-direction `L(left) ⊆ L(right)` check.
    pub fn inclusion() -> Self {
        CompareOptions {
            walk_right_only: false,
            stop: StopWhen::AnyViolation,
            threads: None,
        }
    }

    /// Options for an equality check (stop at the first difference).
    pub fn equality() -> Self {
        CompareOptions {
            walk_right_only: true,
            stop: StopWhen::AnyViolation,
            threads: None,
        }
    }

    /// Options for a strict-inclusion check (needs both verdicts).
    pub fn strictness() -> Self {
        CompareOptions {
            walk_right_only: true,
            stop: StopWhen::BothViolations,
            threads: None,
        }
    }

    /// Options for an exhaustive walk with exact per-length counts.
    pub fn counting() -> Self {
        CompareOptions {
            walk_right_only: true,
            stop: StopWhen::Never,
            threads: None,
        }
    }
}

/// The outcome of a product-subset-graph walk.
#[derive(Debug, Clone)]
pub struct LanguageComparison<Op> {
    /// A shallowest history in `L(left) ∖ L(right)` within the bound, if
    /// any was found before the walk stopped.
    pub left_not_in_right: Option<History<Op>>,
    /// A shallowest history in `L(right) ∖ L(left)` within the bound, if
    /// any was found before the walk stopped (always `None` when
    /// [`CompareOptions::walk_right_only`] is off).
    pub right_not_in_left: Option<History<Op>>,
    /// Distinct histories of `L(left)` per length. Exact only for walks
    /// that ran to completion with [`StopWhen::Never`] and
    /// `walk_right_only` on (early stops undercount the tail).
    pub left_sizes: Vec<u64>,
    /// Distinct histories of `L(right)` per length (same caveats).
    pub right_sizes: Vec<u64>,
    /// Widest product level reached, in nodes.
    pub peak_level_width: usize,
    /// The history-length bound walked.
    pub max_len: usize,
}

impl<Op> LanguageComparison<Op> {
    /// Did the two languages agree on everything the walk saw?
    pub fn agree(&self) -> bool {
        self.left_not_in_right.is_none() && self.right_not_in_left.is_none()
    }

    /// Total distinct histories of `L(left)` within the bound.
    pub fn left_total(&self) -> u64 {
        self.left_sizes.iter().sum()
    }

    /// Total distinct histories of `L(right)` within the bound.
    pub fn right_total(&self) -> u64 {
        self.right_sizes.iter().sum()
    }

    /// The difference the walk found, if any: the shallower of the two
    /// witnesses, preferring `left_not_in_right` on ties.
    pub fn difference(&self) -> Option<LanguageDifference<Op>>
    where
        Op: Clone,
    {
        match (&self.left_not_in_right, &self.right_not_in_left) {
            (Some(l), Some(r)) if r.len() < l.len() => {
                Some(LanguageDifference::RightNotInLeft(r.clone()))
            }
            (Some(l), _) => Some(LanguageDifference::LeftNotInRight(l.clone())),
            (None, r) => r.clone().map(LanguageDifference::RightNotInLeft),
        }
    }
}

/// A node of the product subset graph (fields as in [`SubsetNode`]).
#[derive(Debug, Clone, Copy)]
struct ProductNode {
    l: SubsetId,
    r: SubsetId,
    multiplicity: u64,
    parent: u32,
    op: u16,
    perm: u16,
}

/// Per-chunk expansion output for the product walk.
struct ProductChunk<LS, RS> {
    succs: Vec<SmallVec<(u16, SetRef, SetRef, u16), SUCC_INLINE>>,
    left_delta: Vec<Vec<LS>>,
    right_delta: Vec<Vec<RS>>,
}

/// Walks the product subset graph of `left` and `right` up to `max_len`
/// over `alphabet`, per `options` (see [`CompareOptions`] constructors
/// for the standard configurations).
pub fn compare_upto<L, R>(
    left: &L,
    right: &R,
    alphabet: &[L::Op],
    max_len: usize,
    options: CompareOptions,
) -> LanguageComparison<L::Op>
where
    L: ObjectAutomaton + Sync,
    R: ObjectAutomaton<Op = L::Op> + Sync,
    L::State: Send + Sync,
    R::State: Send + Sync,
    L::Op: Sync,
{
    compare_upto_probed(left, right, alphabet, max_len, options, &mut NoopProbe)
}

/// [`compare_upto`] with an [`EngineProbe`] watching the walk: a
/// `product_walk` span around the whole walk, one `depth` span per
/// level, and per-depth gauges for frontier width (`frontier_nodes`),
/// interned sets per side (`left_sets`/`right_sets`), arena memory
/// (`arena_bytes`), and cons-table occupancy (`cons_used`,
/// `cons_slots`, `cons_load_pct`). With [`NoopProbe`] (which
/// [`compare_upto`] passes) this monomorphizes to the plain walk.
pub fn compare_upto_probed<L, R, P>(
    left: &L,
    right: &R,
    alphabet: &[L::Op],
    max_len: usize,
    options: CompareOptions,
    probe: &mut P,
) -> LanguageComparison<L::Op>
where
    L: ObjectAutomaton + Sync,
    R: ObjectAutomaton<Op = L::Op> + Sync,
    L::State: Send + Sync,
    R::State: Send + Sync,
    L::Op: Sync,
    P: EngineProbe,
{
    compare_upto_modulo(
        left,
        right,
        alphabet,
        max_len,
        options,
        &TrivialSymmetry,
        probe,
    )
}

/// [`compare_upto_probed`] with joint orbit canonicalization under
/// `policy`: product nodes that are relabeled images of one another
/// collapse into one. Verdicts, per-length counts, and witness depths are
/// identical to the unreduced walk; witnesses are genuine histories of
/// the original automata. Under [`TrivialSymmetry`] this is the plain
/// walk. A nontrivial policy adds per-depth `orbit_folds` /
/// `orbit_nodes` counters to the probe output — an edge whose canonical
/// pair already has a node this level is a *fold* (its multiplicity
/// merges into that node), so `folds / (folds + nodes)` is the orbit hit
/// rate the policy is buying.
///
/// `policy` must be equivariant for **both** automata
/// ([`crate::symmetry::check_equivariance`]); debug builds verify the
/// group laws at entry.
#[allow(clippy::too_many_arguments)]
pub fn compare_upto_modulo<L, R, G, P>(
    left: &L,
    right: &R,
    alphabet: &[L::Op],
    max_len: usize,
    options: CompareOptions,
    policy: &G,
    probe: &mut P,
) -> LanguageComparison<L::Op>
where
    L: ObjectAutomaton + Sync,
    R: ObjectAutomaton<Op = L::Op> + Sync,
    L::State: Send + Sync,
    R::State: Send + Sync,
    L::Op: Sync,
    G: SymmetryPolicy<L> + SymmetryPolicy<R> + Sync,
    P: EngineProbe,
{
    debug_assert_eq!(check_group_laws::<L, G>(policy, alphabet.len()), Ok(()));
    let orbits = SymmetryPolicy::<L>::order(policy) > 1;
    probe.enter("product_walk");
    let mut left_arena: SubsetArena<L::State> = SubsetArena::new();
    let mut right_arena: SubsetArena<R::State> = SubsetArena::new();
    let (l_rep, r_rep, root_canon) = canonical_pair::<L, R, G>(
        policy,
        vec![left.initial_state()],
        vec![right.initial_state()],
    );

    let mut levels = vec![vec![ProductNode {
        l: left_arena.intern(l_rep),
        r: right_arena.intern(r_rep),
        multiplicity: 1,
        parent: NO_PARENT,
        op: 0,
        perm: SymmetryPolicy::<L>::inverse(policy, root_canon as usize) as u16,
    }]];
    let mut left_sizes = vec![1u64];
    let mut right_sizes = vec![1u64];
    let mut peak = 1usize;
    // (depth, node index) of the shallowest violation per direction.
    let mut l_violation: Option<(usize, usize)> = None;
    let mut r_violation: Option<(usize, usize)> = None;

    'walk: for depth in 0..max_len {
        probe.enter("depth");
        let current = &levels[depth];
        let nthreads = options
            .threads
            .unwrap_or_else(|| auto_threads(current.len()));
        let chunks = expand_chunks(current, nthreads, |chunk| {
            let mut l_interner = DeltaInterner::new(&left_arena);
            let mut r_interner = DeltaInterner::new(&right_arena);
            let succs = chunk
                .iter()
                .map(|node| {
                    let lnext = if node.l.is_empty() {
                        vec![Vec::new(); alphabet.len()]
                    } else {
                        canonical_successors(left, alphabet, left_arena.get(node.l))
                    };
                    let rnext = if node.r.is_empty() {
                        vec![Vec::new(); alphabet.len()]
                    } else {
                        canonical_successors(right, alphabet, right_arena.get(node.r))
                    };
                    lnext
                        .into_iter()
                        .zip(rnext)
                        .enumerate()
                        .filter(|(_, (ls, rs))| {
                            !ls.is_empty() || (options.walk_right_only && !rs.is_empty())
                        })
                        .map(|(i, (ls, rs))| {
                            let (lc, rc, canon) = canonical_pair::<L, R, G>(policy, ls, rs);
                            let (lref, rref) = (l_interner.resolve(lc), r_interner.resolve(rc));
                            (i as u16, lref, rref, canon)
                        })
                        .collect()
                })
                .collect();
            ProductChunk {
                succs,
                left_delta: l_interner.delta,
                right_delta: r_interner.delta,
            }
        });

        let mut next: Vec<ProductNode> = Vec::new();
        let mut index_of: HashMap<(SubsetId, SubsetId), u32> = HashMap::new();
        let mut l_level = 0u64;
        let mut r_level = 0u64;
        let mut orbit_folds = 0u64;
        let mut parent = 0u32;
        for chunk in chunks {
            let l_globals: Vec<SubsetId> = chunk
                .left_delta
                .into_iter()
                .map(|s| left_arena.intern(s))
                .collect();
            let r_globals: Vec<SubsetId> = chunk
                .right_delta
                .into_iter()
                .map(|s| right_arena.intern(s))
                .collect();
            for per_node in chunk.succs {
                let from = current[parent as usize];
                let mult = from.multiplicity;
                for &(op, lsucc, rsucc, canon) in per_node.iter() {
                    let l = lsucc.id(&l_globals);
                    let r = rsucc.id(&r_globals);
                    if !l.is_empty() {
                        l_level += mult;
                    }
                    if !r.is_empty() {
                        r_level += mult;
                    }
                    let index = match index_of.entry((l, r)) {
                        hash_map::Entry::Occupied(e) => {
                            orbit_folds += 1;
                            next[*e.get() as usize].multiplicity += mult;
                            *e.get() as usize
                        }
                        hash_map::Entry::Vacant(e) => {
                            let index = next.len();
                            e.insert(u32::try_from(index).expect("level exceeds u32 nodes"));
                            let (op, perm) = child_frame::<L, G>(policy, from.perm, op, canon);
                            next.push(ProductNode {
                                l,
                                r,
                                multiplicity: mult,
                                parent,
                                op,
                                perm,
                            });
                            index
                        }
                    };
                    if !l.is_empty() && r.is_empty() && l_violation.is_none() {
                        l_violation = Some((depth + 1, index));
                    }
                    if l.is_empty() && !r.is_empty() && r_violation.is_none() {
                        r_violation = Some((depth + 1, index));
                    }
                }
                parent += 1;
            }
        }

        left_sizes.push(l_level);
        right_sizes.push(r_level);
        peak = peak.max(next.len());
        if probe.is_enabled() {
            if orbits {
                probe.add("orbit_folds", orbit_folds);
                probe.add("orbit_nodes", next.len() as u64);
            }
            probe.gauge("frontier_nodes", next.len() as i64);
            probe.gauge("left_sets", left_arena.len() as i64);
            probe.gauge("right_sets", right_arena.len() as i64);
            let bytes = left_arena.approx_bytes() + right_arena.approx_bytes();
            probe.gauge("arena_bytes", bytes as i64);
            let (lu, ls) = left_arena.table_load();
            let (ru, rs) = right_arena.table_load();
            probe.gauge("cons_used", (lu + ru) as i64);
            probe.gauge("cons_slots", (ls + rs) as i64);
            probe.gauge("cons_load_pct", (100 * (lu + ru) / (ls + rs)) as i64);
        }
        probe.exit("depth");
        let dead = next.is_empty();
        levels.push(next);

        let stop = match options.stop {
            StopWhen::AnyViolation => l_violation.is_some() || r_violation.is_some(),
            StopWhen::BothViolations => {
                l_violation.is_some() && (r_violation.is_some() || !options.walk_right_only)
            }
            StopWhen::Never => false,
        };
        if stop || dead {
            break 'walk;
        }
    }

    let reconstruct = |violation: Option<(usize, usize)>| {
        violation.map(|(depth, index)| {
            reconstruct_path(
                &levels,
                |n: &ProductNode| (n.parent, n.op),
                alphabet,
                depth,
                index,
            )
        })
    };

    left_sizes.resize(max_len + 1, 0);
    right_sizes.resize(max_len + 1, 0);
    probe.exit("product_walk");
    LanguageComparison {
        left_not_in_right: reconstruct(l_violation),
        right_not_in_left: reconstruct(r_violation),
        left_sizes,
        right_sizes,
        peak_level_width: peak,
        max_len,
    }
}

/// An automaton accepting exactly `L(A) ∩ L(B)`: the synchronized
/// product. `δ*((a0,b0), H) = δ*_A(H) × δ*_B(H)`, so `H` is accepted iff
/// both components accept it — which is what lets the lattice checks test
/// join preservation (`L(φ(c ∨ d)) = L(φ(c)) ∩ L(φ(d))`) without
/// materializing either language.
#[derive(Debug, Clone)]
pub struct IntersectionAutomaton<A, B> {
    left: A,
    right: B,
}

impl<A, B> IntersectionAutomaton<A, B> {
    /// Builds the synchronized product of two automata over a shared
    /// alphabet.
    pub fn new(left: A, right: B) -> Self {
        IntersectionAutomaton { left, right }
    }
}

impl<A, B> ObjectAutomaton for IntersectionAutomaton<A, B>
where
    A: ObjectAutomaton,
    B: ObjectAutomaton<Op = A::Op>,
{
    type State = (A::State, B::State);
    type Op = A::Op;

    fn initial_state(&self) -> Self::State {
        (self.left.initial_state(), self.right.initial_state())
    }

    fn step(&self, state: &Self::State, op: &Self::Op) -> Vec<Self::State> {
        let lefts = self.left.step(&state.0, op);
        if lefts.is_empty() {
            return Vec::new();
        }
        let rights = self.right.step(&state.1, op);
        let mut out = Vec::with_capacity(lefts.len() * rights.len());
        for l in &lefts {
            for r in &rights {
                out.push((l.clone(), r.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::naive;

    /// FIFO queue over two items.
    #[derive(Debug, Clone)]
    struct Fifo;
    /// Bag over the same alphabet.
    #[derive(Debug, Clone)]
    struct Bag;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Op {
        Enq(u8),
        Deq(u8),
    }

    fn alphabet() -> Vec<Op> {
        vec![Op::Enq(1), Op::Enq(2), Op::Deq(1), Op::Deq(2)]
    }

    impl ObjectAutomaton for Fifo {
        type State = Vec<u8>;
        type Op = Op;
        fn initial_state(&self) -> Vec<u8> {
            Vec::new()
        }
        fn step(&self, s: &Vec<u8>, op: &Op) -> Vec<Vec<u8>> {
            match op {
                Op::Enq(x) => {
                    let mut s2 = s.clone();
                    s2.push(*x);
                    vec![s2]
                }
                Op::Deq(x) => {
                    if s.first() == Some(x) {
                        vec![s[1..].to_vec()]
                    } else {
                        vec![]
                    }
                }
            }
        }
    }

    impl ObjectAutomaton for Bag {
        type State = Vec<u8>;
        type Op = Op;
        fn initial_state(&self) -> Vec<u8> {
            Vec::new()
        }
        fn step(&self, s: &Vec<u8>, op: &Op) -> Vec<Vec<u8>> {
            match op {
                Op::Enq(x) => {
                    let mut s2 = s.clone();
                    s2.push(*x);
                    s2.sort_unstable();
                    vec![s2]
                }
                Op::Deq(x) => match s.iter().position(|y| y == x) {
                    Some(i) => {
                        let mut s2 = s.clone();
                        s2.remove(i);
                        vec![s2]
                    }
                    None => vec![],
                },
            }
        }
    }

    #[test]
    fn arena_hash_conses() {
        let mut arena: SubsetArena<u8> = SubsetArena::new();
        let a = arena.intern(vec![1, 2, 3]);
        let b = arena.intern(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(arena.len(), 2); // empty + {1,2,3}
        assert_eq!(arena.lookup(&[1, 2, 3]), Some(a));
        assert!(arena.lookup(&[9]).is_none());
        assert_eq!(arena.get(SubsetId::EMPTY), &[] as &[u8]);
    }

    #[test]
    fn arena_ids_stay_stable_across_growth() {
        // Interning enough sets to force several table growths must not
        // move any id: ids are positions in the dense set store, and
        // growth rehashes the index only.
        let mut arena: SubsetArena<u32> = SubsetArena::new();
        let ids: Vec<SubsetId> = (0..500u32).map(|i| arena.intern(vec![i, i + 1])).collect();
        assert_eq!(arena.len(), 501); // empty set + 500
        for (i, &id) in ids.iter().enumerate() {
            let i = i as u32;
            assert_eq!(arena.intern(vec![i, i + 1]), id, "re-intern moved an id");
            assert_eq!(arena.lookup(&[i, i + 1]), Some(id), "lookup moved an id");
            assert_eq!(arena.get(id), &[i, i + 1]);
        }
        assert_eq!(arena.len(), 501);
    }

    #[test]
    fn graph_sizes_match_naive_language() {
        let graph = SubsetGraph::explore(&Bag, &alphabet(), 5);
        let naive_lang = naive::language_upto(&Bag, &alphabet(), 5);
        assert_eq!(graph.total_size() as usize, naive_lang.len());
        for (n, size) in graph.sizes().iter().enumerate() {
            let count = naive_lang.iter().filter(|h| h.len() == n).count();
            assert_eq!(*size as usize, count, "length {n}");
        }
    }

    #[test]
    fn graph_collapses_merged_state_sets() {
        // In the bag, Enq(1)·Enq(2) and Enq(2)·Enq(1) reach the same
        // multiset: one node, multiplicity ≥ 2.
        let graph = SubsetGraph::explore(&Bag, &alphabet(), 2);
        let level2 = &graph.levels()[2];
        assert!(level2.iter().any(|n| n.multiplicity >= 2));
        // The naive frontier would hold one entry per history instead.
        let per_history: u64 = graph.sizes()[2];
        assert!((level2.len() as u64) < per_history);
    }

    #[test]
    fn histories_reconstruct_through_parent_pointers() {
        let graph = SubsetGraph::explore(&Fifo, &alphabet(), 4);
        for (depth, level) in graph.levels().iter().enumerate() {
            for (i, node) in level.iter().enumerate() {
                let h = graph.history_of(depth, i);
                assert_eq!(h.len(), depth);
                // The reconstructed history really reaches this node's set.
                let reached =
                    SubsetArena::canonicalize(Fifo.delta_star(&h).into_iter().collect::<Vec<_>>());
                assert_eq!(reached.as_slice(), graph.set(node.set));
            }
        }
    }

    #[test]
    fn parallel_exploration_matches_sequential() {
        let seq = SubsetGraph::explore_with_threads(&Bag, &alphabet(), 5, Some(1));
        for threads in [2, 3, 7] {
            let par = SubsetGraph::explore_with_threads(&Bag, &alphabet(), 5, Some(threads));
            assert_eq!(seq.sizes(), par.sizes(), "threads={threads}");
            assert_eq!(seq.levels().len(), par.levels().len(), "threads={threads}");
            for (d, (ls, lp)) in seq.levels().iter().zip(par.levels()).enumerate() {
                assert_eq!(ls.len(), lp.len(), "level {d}, threads={threads}");
            }
        }
    }

    #[test]
    fn product_walk_finds_shallowest_violation() {
        let cmp = compare_upto(&Bag, &Fifo, &alphabet(), 5, CompareOptions::inclusion());
        let witness = cmp.left_not_in_right.expect("bag not included in fifo");
        // Shallowest possible out-of-FIFO-order history has length 3.
        assert_eq!(witness.len(), 3);
        assert!(Bag.accepts(&witness));
        assert!(!Fifo.accepts(&witness));
        assert!(cmp.right_not_in_left.is_none());
    }

    #[test]
    fn counting_walk_counts_both_sides() {
        let cmp = compare_upto(&Fifo, &Bag, &alphabet(), 4, CompareOptions::counting());
        assert_eq!(
            cmp.left_total() as usize,
            naive::language_upto(&Fifo, &alphabet(), 4).len()
        );
        assert_eq!(
            cmp.right_total() as usize,
            naive::language_upto(&Bag, &alphabet(), 4).len()
        );
        assert!(cmp.left_not_in_right.is_none());
        assert!(cmp.right_not_in_left.is_some());
    }

    #[test]
    fn intersection_automaton_accepts_common_language() {
        let inter = IntersectionAutomaton::new(Fifo, Bag);
        let lang = naive::language_upto(&inter, &alphabet(), 4);
        let fifo_lang = naive::language_upto(&Fifo, &alphabet(), 4);
        let bag_lang = naive::language_upto(&Bag, &alphabet(), 4);
        let expected: std::collections::HashSet<_> =
            fifo_lang.intersection(&bag_lang).cloned().collect();
        assert_eq!(lang, expected);
    }
}
