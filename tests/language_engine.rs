//! Differential tests: the subset-graph language engine vs the retained
//! naive enumerators, on seeded random automata.
//!
//! The naive module is the executable specification: it materializes
//! every accepted history, so disagreement at any bound is an engine
//! bug. Random automata cover shapes the hand-written queue examples
//! never reach — unreachable operations, dead-end states, heavy
//! nondeterministic fan-out.

use std::collections::HashSet;

use relaxation_lattice::automata::language::naive;
use relaxation_lattice::automata::subset::{compare_upto, CompareOptions, SubsetGraph};
use relaxation_lattice::automata::{
    equal_upto, included_upto, language_sizes, LanguageDifference, ObjectAutomaton, SplitMix64,
};

/// A random nondeterministic automaton over states `0..states` and
/// operations `0..ops`, with a fixed transition table drawn from a seed.
#[derive(Debug, Clone)]
struct RandomAutomaton {
    states: u8,
    /// `table[s][op]` = successor states of `δ(s, op)` (possibly empty).
    table: Vec<Vec<Vec<u8>>>,
}

impl RandomAutomaton {
    /// Draws a table where each `(state, op)` pair gets each successor
    /// independently with probability `density` (so δ is partial and
    /// nondeterministic in roughly equal measure).
    fn generate(seed: u64, states: u8, ops: u8, density: f64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let table = (0..states)
            .map(|_| {
                (0..ops)
                    .map(|_| {
                        (0..states)
                            .filter(|_| rng.gen_bool(density))
                            .collect::<Vec<u8>>()
                    })
                    .collect()
            })
            .collect();
        RandomAutomaton { states, table }
    }

    fn alphabet(&self) -> Vec<u8> {
        (0..self.table[0].len() as u8).collect()
    }
}

impl ObjectAutomaton for RandomAutomaton {
    type State = u8;
    type Op = u8;

    fn initial_state(&self) -> u8 {
        0
    }

    fn step(&self, s: &u8, op: &u8) -> Vec<u8> {
        debug_assert!(*s < self.states);
        self.table[*s as usize][*op as usize].clone()
    }
}

/// A seeded pair of random automata over a shared alphabet.
fn random_pair(seed: u64) -> (RandomAutomaton, RandomAutomaton, Vec<u8>) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let states = 2 + (rng.next_u64() % 4) as u8; // 2..=5
    let ops = 2 + (rng.next_u64() % 2) as u8; // 2..=3
    let density = 0.15 + rng.next_f64() * 0.35;
    let a = RandomAutomaton::generate(rng.next_u64(), states, ops, density);
    let b = RandomAutomaton::generate(rng.next_u64(), states, ops, density);
    let alphabet = a.alphabet();
    (a, b, alphabet)
}

const SEEDS: u64 = 60;
const MAX_LEN: usize = 5;

#[test]
fn engine_sizes_match_naive_enumeration() {
    for seed in 0..SEEDS {
        let (a, _, alphabet) = random_pair(seed);
        let lang = naive::language_upto(&a, &alphabet, MAX_LEN);
        let mut by_len = vec![0usize; MAX_LEN + 1];
        for h in &lang {
            by_len[h.len()] += 1;
        }
        assert_eq!(
            language_sizes(&a, &alphabet, MAX_LEN),
            by_len,
            "seed {seed}"
        );
    }
}

#[test]
fn engine_inclusion_matches_naive_and_witnesses_are_real() {
    for seed in 0..SEEDS {
        let (a, b, alphabet) = random_pair(seed);
        let engine = included_upto(&a, &b, &alphabet, MAX_LEN);
        let naive_verdict = naive::included_upto(&a, &b, &alphabet, MAX_LEN);
        assert_eq!(
            engine.is_ok(),
            naive_verdict.is_ok(),
            "seed {seed}: engine {engine:?} vs naive {naive_verdict:?}"
        );
        if let Err(ce) = engine {
            assert!(ce.history.len() <= MAX_LEN, "seed {seed}");
            assert!(a.accepts(&ce.history), "seed {seed}: left rejects witness");
            assert!(
                !b.accepts(&ce.history),
                "seed {seed}: right accepts witness"
            );
        }
    }
}

#[test]
fn engine_equality_matches_naive_and_differences_are_real() {
    for seed in 0..SEEDS {
        let (a, b, alphabet) = random_pair(seed);
        let engine = equal_upto(&a, &b, &alphabet, MAX_LEN);
        let naive_verdict = naive::equal_upto(&a, &b, &alphabet, MAX_LEN);
        assert_eq!(engine.is_ok(), naive_verdict.is_ok(), "seed {seed}");
        match engine {
            Ok(()) => {}
            Err(LanguageDifference::LeftNotInRight(h)) => {
                assert!(a.accepts(&h) && !b.accepts(&h), "seed {seed}");
            }
            Err(LanguageDifference::RightNotInLeft(h)) => {
                assert!(b.accepts(&h) && !a.accepts(&h), "seed {seed}");
            }
        }
    }
}

#[test]
fn counting_walk_counts_match_naive_on_both_sides() {
    for seed in 0..SEEDS {
        let (a, b, alphabet) = random_pair(seed);
        let cmp = compare_upto(&a, &b, &alphabet, MAX_LEN, CompareOptions::counting());
        assert_eq!(
            cmp.left_total() as usize,
            naive::language_upto(&a, &alphabet, MAX_LEN).len(),
            "seed {seed}"
        );
        assert_eq!(
            cmp.right_total() as usize,
            naive::language_upto(&b, &alphabet, MAX_LEN).len(),
            "seed {seed}"
        );
    }
}

#[test]
fn subset_graph_is_prefix_closed_and_reaches_what_it_claims() {
    for seed in 0..SEEDS / 3 {
        let (a, _, alphabet) = random_pair(seed);
        let graph = SubsetGraph::explore(&a, &alphabet, MAX_LEN);
        let lang = naive::language_upto(&a, &alphabet, MAX_LEN);
        for (depth, level) in graph.levels().iter().enumerate() {
            for (i, node) in level.iter().enumerate() {
                let h = graph.history_of(depth, i);
                assert_eq!(h.len(), depth, "seed {seed}");
                // Prefix closure: the reconstructed history and all its
                // prefixes are accepted.
                for n in 0..=depth {
                    let prefix: Vec<u8> = h.ops()[..n].to_vec();
                    assert!(
                        lang.contains(&prefix.into()),
                        "seed {seed}: prefix of length {n} missing"
                    );
                }
                // The node's set is exactly δ*(H), and it is never empty.
                let reached: HashSet<u8> = a.delta_star(&h);
                assert!(!reached.is_empty(), "seed {seed}: empty set interned");
                let mut reached: Vec<u8> = reached.into_iter().collect();
                reached.sort_unstable();
                assert_eq!(reached.as_slice(), graph.set(node.set), "seed {seed}");
            }
        }
    }
}

#[test]
fn parallel_walks_match_sequential_on_random_automata() {
    for seed in 0..SEEDS / 3 {
        let (a, b, alphabet) = random_pair(seed);
        let seq = compare_upto(
            &a,
            &b,
            &alphabet,
            MAX_LEN,
            CompareOptions {
                threads: Some(1),
                ..CompareOptions::counting()
            },
        );
        for threads in [2, 5] {
            let par = compare_upto(
                &a,
                &b,
                &alphabet,
                MAX_LEN,
                CompareOptions {
                    threads: Some(threads),
                    ..CompareOptions::counting()
                },
            );
            assert_eq!(seq.left_sizes, par.left_sizes, "seed {seed} t{threads}");
            assert_eq!(seq.right_sizes, par.right_sizes, "seed {seed} t{threads}");
            assert_eq!(
                seq.left_not_in_right.is_some(),
                par.left_not_in_right.is_some(),
                "seed {seed} t{threads}"
            );
            assert_eq!(
                seq.peak_level_width, par.peak_level_width,
                "seed {seed} t{threads}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Symmetry-reduced walks: orbit canonicalization under an equivariant
// policy must be observationally identical to the unreduced engine (and
// hence to the naive enumerators), for every worker-thread count.
// ---------------------------------------------------------------------------

use relaxation_lattice::automata::subset::{compare_upto_modulo, IntersectionAutomaton};
use relaxation_lattice::automata::{History, NoopProbe};
use relaxation_lattice::queues::{
    queue_alphabet, QueueItemSymmetry, QueueOp, SemiqueueAutomaton, SsQueueAutomaton,
    StutteringAutomaton,
};

/// Forced worker-thread counts for the orbit-reduced walks: their
/// frontiers stay below the automatic parallel threshold, so the chunked
/// merge only runs when the count is forced.
const ORBIT_THREADS: [usize; 3] = [1, 2, 5];

#[test]
fn orbit_reduced_queue_graphs_match_naive_counts() {
    // Item permutation is equivariant for the equality-based queue
    // types; orbit-reduced per-length counts must equal the naive
    // enumeration's exactly while the frontier shrinks.
    let items = vec![1, 2, 3];
    let alphabet = queue_alphabet(&items);
    let sym = QueueItemSymmetry::new(&items);
    let max_len = 4;

    let stut = StutteringAutomaton::new(2);
    let lang = naive::language_upto(&stut, &alphabet, max_len);
    let mut by_len = vec![0u64; max_len + 1];
    for h in &lang {
        by_len[h.len()] += 1;
    }
    let full = SubsetGraph::explore(&stut, &alphabet, max_len);
    let mut first: Option<(usize, Vec<Vec<History<QueueOp>>>)> = None;
    for threads in ORBIT_THREADS {
        let reduced = SubsetGraph::explore_modulo(&stut, &alphabet, max_len, &sym, Some(threads));
        assert_eq!(reduced.sizes(), by_len, "threads={threads}");
        assert!(reduced.peak_level_width() < full.peak_level_width());

        // Reconstructed orbit histories are genuine histories of the
        // ORIGINAL automaton (relabelings composed away).
        let histories: Vec<Vec<History<QueueOp>>> = reduced
            .levels()
            .iter()
            .enumerate()
            .map(|(depth, level)| {
                (0..level.len())
                    .map(|i| reduced.history_of(depth, i))
                    .collect()
            })
            .collect();
        for h in histories.iter().flatten() {
            assert!(
                stut.accepts(h),
                "threads={threads}: reconstructed {h:?} rejected"
            );
        }
        let run = (reduced.peak_level_width(), histories);
        match &first {
            None => first = Some(run),
            Some(first) => assert_eq!(first, &run, "threads={threads} differs from threads=1"),
        }
    }
}

#[test]
fn ssqueue_join_check_survives_orbit_reduction() {
    // The PR-3 lattice finding in the SSqueue_{2,2} lattice: the join of
    // the Stuttering_2 and Semiqueue_2 constraint points is the full
    // constraint set, which φ maps to SSqueue_{1,1} = FIFO, yet
    // L(Stuttering_2) ∩ L(Semiqueue_2) strictly exceeds L(FIFO) from
    // length 5 — so the two-chain map stops preserving joins there. The
    // reduced product walk must reproduce the verdict, the exact counts,
    // and a genuine witness.
    let items = vec![1, 2];
    let alphabet = queue_alphabet(&items);
    let sym = QueueItemSymmetry::new(&items);
    let join = IntersectionAutomaton::new(StutteringAutomaton::new(2), SemiqueueAutomaton::new(2));
    let phi_of_join = SsQueueAutomaton::new(1, 1);

    let known = History::from(vec![
        QueueOp::Enq(1),
        QueueOp::Enq(2),
        QueueOp::Enq(1),
        QueueOp::Deq(1),
        QueueOp::Deq(1),
    ]);
    assert!(join.accepts(&known), "join must accept the PR-3 witness");
    assert!(
        !phi_of_join.accepts(&known),
        "φ(c ∨ d) = SSqueue_{{1,1}} must reject the PR-3 witness"
    );

    let full = compare_upto(
        &join,
        &phi_of_join,
        &alphabet,
        5,
        CompareOptions::counting(),
    );
    let mut first: Option<(usize, History<QueueOp>)> = None;
    for threads in ORBIT_THREADS {
        let reduced = compare_upto_modulo(
            &join,
            &phi_of_join,
            &alphabet,
            5,
            CompareOptions {
                threads: Some(threads),
                ..CompareOptions::counting()
            },
            &sym,
            &mut NoopProbe,
        );
        assert_eq!(full.left_sizes, reduced.left_sizes, "threads={threads}");
        assert_eq!(full.right_sizes, reduced.right_sizes, "threads={threads}");
        assert!(reduced.peak_level_width < full.peak_level_width);

        let witness = reduced
            .left_not_in_right
            .expect("join exceeds φ(c ∨ d) within length 5");
        assert_eq!(
            witness.len(),
            full.left_not_in_right
                .as_ref()
                .expect("unreduced finds it")
                .len(),
            "reduced witness must be as shallow as the unreduced one"
        );
        assert!(join.accepts(&witness), "reduced witness rejected by join");
        assert!(
            !phi_of_join.accepts(&witness),
            "reduced witness accepted by φ(c ∨ d)"
        );
        let run = (reduced.peak_level_width, witness);
        match &first {
            None => first = Some(run),
            Some(first) => assert_eq!(first, &run, "threads={threads} differs from threads=1"),
        }
    }
}

#[test]
fn shared_taxi_walk_matches_naive_at_small_bounds() {
    use relaxation_lattice::core::theorem4::{
        verify_taxi_lattice, verify_taxi_lattice_naive, verify_taxi_lattice_perpoint,
    };
    let shared = verify_taxi_lattice(&[1, 2], 4);
    let perpoint = verify_taxi_lattice_perpoint(&[1, 2], 4);
    let naive_v = verify_taxi_lattice_naive(&[1, 2], 4);
    for ((s, p), n) in shared
        .points
        .iter()
        .zip(&perpoint.points)
        .zip(&naive_v.points)
    {
        assert_eq!(s.point, p.point);
        assert_eq!(s.language_size, p.language_size, "{:?}", s.point);
        assert_eq!(s.language_size, n.language_size, "{:?}", s.point);
        assert!(s.holds() && p.holds() && n.holds(), "{:?}", s.point);
    }
}
