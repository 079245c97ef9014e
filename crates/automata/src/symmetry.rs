//! Orbit canonicalization ("symmetry reduction") for the subset-graph
//! walks.
//!
//! Many of the paper's bounded checks are *symmetric in the item
//! alphabet*: relabeling the items of a history by any permutation maps
//! accepted histories to accepted histories. The determinized subset
//! graph then explores up to `|G|` relabeled copies of every state set
//! (`G` the relabeling group). Passing a [`SymmetryPolicy`] to
//! [`SubsetGraph::explore_modulo`] or [`compare_upto_modulo`] collapses
//! each successor set to a canonical **orbit representative** — the
//! lexicographic minimum over the group — so the frontier shrinks by up
//! to `|G|` while per-length history counts stay **exact**: orbit-merged
//! nodes sum the multiplicities of all their members' root paths, and
//! equivariance makes those path sets bijective images of one another.
//!
//! This module holds only the policy, its canonicalization and its
//! checks; the level loops are the ones in [`crate::subset`], which
//! canonicalize inside their chunked (parallel) expansion. Under
//! [`TrivialSymmetry`] canonicalization returns its input untouched, so
//! the plain walks pay nothing for it.
//!
//! # Soundness contract
//!
//! A [`SymmetryPolicy`] is only valid for an automaton it is
//! **equivariant** for:
//!
//! ```text
//! δ(g·s, g·op) = g·δ(s, op)        for every group element g
//! ```
//!
//! This is a real restriction, not a formality. Item permutation is
//! equivariant for the *equality-based* queue family (FIFO, Bag,
//! Semiqueue, Stuttering, SSqueue: transitions compare items only for
//! equality) but **not** for the priority-order-dependent family (PQ,
//! MPQ, OPQ, DegenPQ and their QCAs): `L(PQ)` contains
//! `Enq(1)·Enq(2)·Deq(2)` but not its swap image `Enq(2)·Enq(1)·Deq(1)`,
//! because `best` consults the item *order* that a permutation does not
//! preserve. [`check_equivariance`] verifies the contract exhaustively up
//! to a depth; the taxi-lattice verification therefore does **not** use
//! orbit reduction — it gets its sharing from the Rep-view quotient and
//! the shared multi-point walk in [`crate::multiwalk`] instead.
//!
//! # Witnesses
//!
//! Each walk node stores `perm`, the group element mapping its
//! representative to the state set its first-seen root path really
//! reaches, and the alphabet index of its edge relabeled into that
//! original frame. `child_frame` composes the relabeling once, when a
//! node is created, so witness reconstruction is the plain O(depth)
//! parent-pointer walk and returns genuine histories of the **original**
//! automata — not of some relabeled shadow.
//!
//! [`SubsetGraph::explore_modulo`]: crate::subset::SubsetGraph::explore_modulo
//! [`compare_upto_modulo`]: crate::subset::compare_upto_modulo

use crate::automaton::ObjectAutomaton;
use crate::subset::SubsetArena;

/// A finite group of state/alphabet relabelings under which an automaton
/// is equivariant (see the module docs for the exact contract).
///
/// Group elements are indices `0..order()`, with **element 0 the
/// identity**. The same policy type may implement this trait for several
/// automata (it must, to drive a product walk over two of them) — the
/// alphabet action is shared, the state action is per-automaton.
pub trait SymmetryPolicy<A: ObjectAutomaton> {
    /// Group order, including the identity. Must be ≥ 1 and ≤ `u16::MAX`.
    fn order(&self) -> usize;

    /// The image of a state under group element `g`.
    fn relabel_state(&self, g: usize, s: &A::State) -> A::State;

    /// The image of alphabet index `i` under `g`, as an alphabet index
    /// (the alphabet is closed under the group action).
    fn relabel_op(&self, g: usize, i: usize) -> usize;

    /// Group composition: `compose(g, h)` acts as `h` **then** `g`.
    fn compose(&self, g: usize, h: usize) -> usize;

    /// The inverse group element.
    fn inverse(&self, g: usize) -> usize;
}

/// The one-element group: every automaton is trivially equivariant, and
/// a walk under it is the plain, unreduced walk.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrivialSymmetry;

impl<A: ObjectAutomaton> SymmetryPolicy<A> for TrivialSymmetry {
    fn order(&self) -> usize {
        1
    }
    fn relabel_state(&self, _g: usize, s: &A::State) -> A::State {
        s.clone()
    }
    fn relabel_op(&self, _g: usize, i: usize) -> usize {
        i
    }
    fn compose(&self, _g: usize, _h: usize) -> usize {
        0
    }
    fn inverse(&self, _g: usize) -> usize {
        0
    }
}

/// Exhaustively checks the equivariance contract of `policy` for
/// `automaton` on every state reachable within `depth` steps, plus the
/// group laws on the alphabet action. Returns a human-readable
/// description of the first violation.
///
/// This is the executable form of "the policy is sound here": tests call
/// it positively for the equality-based queue types and *negatively* for
/// the priority-ordered ones (see module docs).
pub fn check_equivariance<A, P>(
    automaton: &A,
    alphabet: &[A::Op],
    policy: &P,
    depth: usize,
) -> Result<(), String>
where
    A: ObjectAutomaton,
    P: SymmetryPolicy<A>,
{
    check_group_laws::<A, P>(policy, alphabet.len())?;
    let order = policy.order();
    // Equivariance of δ on every reachable state.
    let mut frontier = vec![automaton.initial_state()];
    let mut seen: Vec<A::State> = frontier.clone();
    for _ in 0..=depth {
        let mut next = Vec::new();
        for s in &frontier {
            for (i, op) in alphabet.iter().enumerate() {
                let direct = SubsetArena::<A::State>::canonicalize(automaton.step(s, op));
                for g in 0..order {
                    let gs = policy.relabel_state(g, s);
                    let gop = &alphabet[policy.relabel_op(g, i)];
                    let lhs = SubsetArena::canonicalize(automaton.step(&gs, gop));
                    let rhs = SubsetArena::canonicalize(
                        direct.iter().map(|t| policy.relabel_state(g, t)).collect(),
                    );
                    if lhs != rhs {
                        return Err(format!(
                            "δ(g·s, g·op) ≠ g·δ(s, op) at g={g}, op index {i}: \
                             {lhs:?} vs {rhs:?} from state {s:?}"
                        ));
                    }
                }
                for t in direct {
                    if !seen.contains(&t) {
                        seen.push(t.clone());
                        next.push(t);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    Ok(())
}

/// The group laws on the alphabet action alone (no automaton walk):
/// order in range, element 0 the identity, inverses undo, and
/// composition is "`h` then `g`". Cheap enough for debug asserts at walk
/// entry.
pub(crate) fn check_group_laws<A, P>(policy: &P, alphabet_len: usize) -> Result<(), String>
where
    A: ObjectAutomaton,
    P: SymmetryPolicy<A>,
{
    let order = policy.order();
    if order == 0 || order > u16::MAX as usize {
        return Err(format!("group order {order} out of range 1..=65535"));
    }
    for i in 0..alphabet_len {
        if policy.relabel_op(0, i) != i {
            return Err(format!("element 0 is not the identity on op {i}"));
        }
        for g in 0..order {
            let gi = policy.relabel_op(g, i);
            if gi >= alphabet_len {
                return Err(format!("op {i} leaves the alphabet under g={g}"));
            }
            if policy.relabel_op(policy.inverse(g), gi) != i {
                return Err(format!("inverse({g}) does not undo g={g} on op {i}"));
            }
            for h in 0..order {
                let lhs = policy.relabel_op(policy.compose(g, h), i);
                let rhs = policy.relabel_op(g, policy.relabel_op(h, i));
                if lhs != rhs {
                    return Err(format!("compose({g},{h}) is not '{h} then {g}' on op {i}"));
                }
            }
        }
    }
    Ok(())
}

/// The canonical orbit representative of a canonical state set: the
/// lexicographic minimum of its relabeled images, together with the group
/// element `g` mapping the input to the representative (`rep = g·set`).
/// Element 0 is the identity, so the input is its own image under it and
/// a one-element group returns it without cloning, sorting or allocating.
#[inline]
pub(crate) fn canonical_rep<A, P>(policy: &P, set: Vec<A::State>) -> (Vec<A::State>, u16)
where
    A: ObjectAutomaton,
    P: SymmetryPolicy<A>,
{
    let mut best: Option<(Vec<A::State>, u16)> = None;
    for g in 1..policy.order() {
        let image =
            SubsetArena::canonicalize(set.iter().map(|s| policy.relabel_state(g, s)).collect());
        if image.as_slice() < best.as_ref().map_or(set.as_slice(), |(b, _)| b.as_slice()) {
            best = Some((image, g as u16));
        }
    }
    best.unwrap_or((set, 0))
}

/// The canonical orbit representative of a *pair* of state sets under a
/// **joint** relabeling (the same group element on both sides, as a
/// product walk requires): the lexicographically minimal relabeled pair,
/// plus the witnessing group element. Free for a one-element group, like
/// [`canonical_rep`].
#[allow(clippy::type_complexity)]
#[inline]
pub(crate) fn canonical_pair<L, R, P>(
    policy: &P,
    lset: Vec<L::State>,
    rset: Vec<R::State>,
) -> (Vec<L::State>, Vec<R::State>, u16)
where
    L: ObjectAutomaton,
    R: ObjectAutomaton<Op = L::Op>,
    P: SymmetryPolicy<L> + SymmetryPolicy<R>,
{
    let mut best: Option<(Vec<L::State>, Vec<R::State>, u16)> = None;
    for g in 1..SymmetryPolicy::<L>::order(policy) {
        let l = SubsetArena::canonicalize(
            lset.iter()
                .map(|s| SymmetryPolicy::<L>::relabel_state(policy, g, s))
                .collect(),
        );
        let r = SubsetArena::canonicalize(
            rset.iter()
                .map(|s| SymmetryPolicy::<R>::relabel_state(policy, g, s))
                .collect(),
        );
        let current = best
            .as_ref()
            .map_or((lset.as_slice(), rset.as_slice()), |(bl, br, _)| {
                (bl.as_slice(), br.as_slice())
            });
        if (l.as_slice(), r.as_slice()) < current {
            best = Some((l, r, g as u16));
        }
    }
    best.unwrap_or((lset, rset, 0))
}

/// The one routine that composes relabelings. A node's frame `perm` maps
/// its representative to the state set its root path really reaches
/// (`real = perm·rep`). Given the parent's frame, the edge's alphabet
/// index `op` in the parent representative's frame, and the element
/// `canon` that canonicalized the child (`rep' = canon·δ(rep, op)`),
/// returns the edge's alphabet index in the original frame and the
/// child's frame: `perm·op` and `perm ∘ canon⁻¹`. Under
/// [`TrivialSymmetry`] this is `(op, 0)`.
#[inline]
pub(crate) fn child_frame<A, P>(policy: &P, parent_perm: u16, op: u16, canon: u16) -> (u16, u16)
where
    A: ObjectAutomaton,
    P: SymmetryPolicy<A>,
{
    let perm = parent_perm as usize;
    let real_op = policy.relabel_op(perm, op as usize);
    let child = policy.compose(perm, policy.inverse(canon as usize));
    (real_op as u16, child as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::probe::NoopProbe;
    use crate::subset::{compare_upto, compare_upto_modulo, CompareOptions, SubsetGraph};

    /// A bag over items {0, 1}: equality-based, hence item-symmetric.
    #[derive(Debug, Clone)]
    struct Bag2;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum Op {
        Put(u8),
        Take(u8),
    }

    /// Alphabet [Put(0), Put(1), Take(0), Take(1)].
    fn alphabet() -> Vec<Op> {
        vec![Op::Put(0), Op::Put(1), Op::Take(0), Op::Take(1)]
    }

    impl ObjectAutomaton for Bag2 {
        type State = Vec<u8>; // sorted multiset
        type Op = Op;
        fn initial_state(&self) -> Vec<u8> {
            Vec::new()
        }
        fn step(&self, s: &Vec<u8>, op: &Op) -> Vec<Vec<u8>> {
            match op {
                Op::Put(x) => {
                    let mut s2 = s.clone();
                    s2.push(*x);
                    s2.sort_unstable();
                    vec![s2]
                }
                Op::Take(x) => match s.iter().position(|y| y == x) {
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

    /// A "first item wins" automaton: accepts Take(x) only when x is the
    /// *smallest* item present — order-dependent, NOT equivariant.
    #[derive(Debug, Clone)]
    struct MinFirst;

    impl ObjectAutomaton for MinFirst {
        type State = Vec<u8>;
        type Op = Op;
        fn initial_state(&self) -> Vec<u8> {
            Vec::new()
        }
        fn step(&self, s: &Vec<u8>, op: &Op) -> Vec<Vec<u8>> {
            match op {
                Op::Put(x) => {
                    let mut s2 = s.clone();
                    s2.push(*x);
                    s2.sort_unstable();
                    vec![s2]
                }
                Op::Take(x) => {
                    if s.first() == Some(x) {
                        vec![s[1..].to_vec()]
                    } else {
                        vec![]
                    }
                }
            }
        }
    }

    /// The swap group {id, 0↔1} acting on Bag2/MinFirst states and the
    /// 4-symbol alphabet.
    #[derive(Debug, Clone, Copy)]
    struct Swap;

    fn swap_item(g: usize, x: u8) -> u8 {
        if g == 1 {
            1 - x
        } else {
            x
        }
    }

    macro_rules! impl_swap {
        ($a:ty) => {
            impl SymmetryPolicy<$a> for Swap {
                fn order(&self) -> usize {
                    2
                }
                fn relabel_state(&self, g: usize, s: &Vec<u8>) -> Vec<u8> {
                    let mut out: Vec<u8> = s.iter().map(|&x| swap_item(g, x)).collect();
                    out.sort_unstable();
                    out
                }
                fn relabel_op(&self, g: usize, i: usize) -> usize {
                    if g == 1 {
                        i ^ 1 // swaps Put(0)↔Put(1) and Take(0)↔Take(1)
                    } else {
                        i
                    }
                }
                fn compose(&self, g: usize, h: usize) -> usize {
                    g ^ h
                }
                fn inverse(&self, g: usize) -> usize {
                    g
                }
            }
        };
    }
    impl_swap!(Bag2);
    impl_swap!(MinFirst);

    #[test]
    fn equivariance_holds_for_the_bag_and_fails_for_min_first() {
        assert!(check_equivariance(&Bag2, &alphabet(), &Swap, 4).is_ok());
        // The order-dependent automaton must be REJECTED: this is the
        // soundness boundary (see module docs).
        let err = check_equivariance(&MinFirst, &alphabet(), &Swap, 4);
        assert!(err.is_err(), "MinFirst wrongly passed equivariance");
    }

    #[test]
    fn reduced_sizes_match_unreduced_exactly() {
        let full = SubsetGraph::explore(&Bag2, &alphabet(), 6);
        let reduced = SubsetGraph::explore_modulo(&Bag2, &alphabet(), 6, &Swap, None);
        assert_eq!(full.sizes(), reduced.sizes());
        // And the frontier really shrank.
        assert!(reduced.peak_level_width() < full.peak_level_width());
    }

    #[test]
    fn reduced_histories_are_real_histories() {
        let reduced = SubsetGraph::explore_modulo(&Bag2, &alphabet(), 5, &Swap, None);
        for (depth, level) in reduced.levels().iter().enumerate() {
            for (i, node) in level.iter().enumerate() {
                let h = reduced.history_of(depth, i);
                assert_eq!(h.len(), depth);
                assert!(Bag2.accepts(&h), "reconstructed {h:?} rejected");
                // The history reaches the node's frame image of its
                // representative: δ*(h) = perm·set.
                let reached: Vec<Vec<u8>> =
                    SubsetArena::canonicalize(Bag2.delta_star(&h).into_iter().collect());
                let image = SubsetArena::canonicalize(
                    reduced
                        .set(node.set)
                        .iter()
                        .map(|s| {
                            SymmetryPolicy::<Bag2>::relabel_state(&Swap, node.perm as usize, s)
                        })
                        .collect(),
                );
                assert_eq!(reached, image, "{h:?}");
            }
        }
    }

    #[test]
    fn reduced_compare_matches_unreduced_verdicts_and_counts() {
        // Bag2 vs MinFirst: the bag accepts out-of-min-order takes.
        let full = compare_upto(&Bag2, &MinFirst, &alphabet(), 5, CompareOptions::counting());
        let reduced = compare_upto_modulo(
            &Bag2,
            &MinFirst,
            &alphabet(),
            5,
            CompareOptions::counting(),
            &Swap,
            &mut NoopProbe,
        );
        assert_eq!(full.left_sizes, reduced.left_sizes);
        assert_eq!(full.right_sizes, reduced.right_sizes);
        assert_eq!(
            full.left_not_in_right.is_some(),
            reduced.left_not_in_right.is_some()
        );
        assert_eq!(
            full.left_not_in_right.as_ref().map(History::len),
            reduced.left_not_in_right.as_ref().map(History::len),
            "witness depths differ"
        );
        // The reduced witness is genuine for the ORIGINAL automata.
        let w = reduced.left_not_in_right.expect("bag ⊄ min-first");
        assert!(Bag2.accepts(&w));
        assert!(!MinFirst.accepts(&w));
    }
}
