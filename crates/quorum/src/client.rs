//! The sans-IO client core: the per-client state and every rule of the
//! §3.1 client protocol, implemented once. It moves no message, arms no
//! timer and reads no clock; the sim client and the threaded shard drive
//! it over their own transports (see [`crate::backend`]).

use std::collections::VecDeque;

use crate::assignment::VotingAssignment;
use crate::calm::SchedulingPolicy;
use crate::log::Entry;
use crate::relation::HasKind;
use crate::runtime::{Outcome, ReplicatedType};
use crate::timestamp::{LogicalClock, Timestamp};

/// The operation-kind alphabet of `T`.
type Kind<T> = <<T as ReplicatedType>::Op as HasKind>::Kind;

/// What every client of one system shares: the replicated type, its
/// quorum assignment, and the CALM scheduling policy.
#[derive(Clone)]
pub(crate) struct Rules<T: ReplicatedType> {
    pub(crate) ttype: T,
    assignment: VotingAssignment<Kind<T>>,
    /// Which invocation kinds skip the quorum protocol (CALM-monotone
    /// kinds; empty by default, so scheduling is pure quorum).
    pub(crate) policy: SchedulingPolicy<Kind<T>>,
}

impl<T: ReplicatedType> Rules<T> {
    /// Rules with pure quorum scheduling.
    pub(crate) fn new(ttype: T, assignment: VotingAssignment<Kind<T>>) -> Self {
        Rules {
            ttype,
            assignment,
            policy: SchedulingPolicy::all_quorum(),
        }
    }

    /// The path `inv` takes: coordination-free when the policy frees its
    /// kind, otherwise the quorum protocol at the kind's quorum sizes.
    pub(crate) fn route(&self, inv: &T::Inv) -> Route {
        let kind = self.ttype.invocation_kind(inv);
        if self.policy.is_free(kind) {
            return Route::Free;
        }
        Route::Quorum {
            init: self.assignment.initial_size(kind),
            fin: self.assignment.final_size(kind),
        }
    }
}

/// How one invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The CALM fast path: respond against the initial value (sound by
    /// the analyzer's response-stability check — no reachable view
    /// changes the answer), never wait on any quorum.
    Free,
    /// The quorum protocol with these initial and final quorum sizes.
    Quorum { init: usize, fin: usize },
}

impl Route {
    /// Whether an initial quorum is read (a zero one responds against
    /// the empty view at once).
    pub(crate) fn reads(self) -> bool {
        matches!(self, Route::Quorum { init, .. } if init > 0)
    }

    /// Whether `responses` answers assemble the initial quorum.
    pub(crate) fn read_assembled(self, responses: usize) -> bool {
        match self {
            Route::Free => true,
            Route::Quorum { init, .. } => responses >= init,
        }
    }

    /// Whether `acks` write acknowledgements complete the operation: at
    /// least one for a quorum write, none for a free one.
    pub(crate) fn write_done(self, acks: usize) -> bool {
        match self {
            Route::Free => true,
            Route::Quorum { fin, .. } => acks >= fin.max(1),
        }
    }
}

/// One client's protocol state: its logical clock, backlog, outcome
/// table, and fast-path vs. quorum-path invocation counts.
pub(crate) struct ClientCore<T: ReplicatedType> {
    clock: LogicalClock,
    backlog: VecDeque<T::Inv>,
    /// Outcomes in submission order, pushed by the backend.
    pub(crate) outcomes: Vec<Outcome<T::Op>>,
    /// Invocations that took the coordination-free fast path.
    calm_fast: u64,
    /// Invocations that ran the quorum protocol.
    calm_quorum: u64,
}

impl<T: ReplicatedType> ClientCore<T> {
    /// A client minting timestamps at `site`.
    pub(crate) fn new(site: usize) -> Self {
        ClientCore {
            clock: LogicalClock::new(site),
            backlog: VecDeque::new(),
            outcomes: Vec::new(),
            calm_fast: 0,
            calm_quorum: 0,
        }
    }

    /// Queues an invocation.
    pub(crate) fn submit(&mut self, inv: T::Inv) {
        self.backlog.push_back(inv);
    }

    /// The next queued invocation, if any.
    pub(crate) fn peek(&self) -> Option<&T::Inv> {
        self.backlog.front()
    }

    /// Dequeues the next invocation, which [`Rules::route`] sent down
    /// `route`, and counts the path it takes.
    pub(crate) fn take(&mut self, route: Route) -> T::Inv {
        match route {
            Route::Free => self.calm_fast += 1,
            Route::Quorum { .. } => self.calm_quorum += 1,
        }
        self.backlog.pop_front().expect("non-empty backlog")
    }

    /// Dequeues and routes the next invocation, if any.
    pub(crate) fn next(&mut self, rules: &Rules<T>) -> Option<(T::Inv, Route)> {
        let route = rules.route(self.backlog.front()?);
        Some((self.take(route), route))
    }

    /// The response rule (§3.1 step 2). `view` is the assembled view's
    /// maximum timestamp and value: the clock observes the timestamp and
    /// the response is chosen against the value. A route that reads
    /// nothing — the fast path, a zero initial quorum — passes `None`,
    /// observes nothing and responds against the initial value. Returns
    /// the freshly timestamped entry to record, or `None` when no
    /// response is consistent (the invocation is refused; no tick).
    pub(crate) fn respond(
        &mut self,
        rules: &Rules<T>,
        inv: &T::Inv,
        view: Option<(Option<Timestamp>, &T::Value)>,
    ) -> Option<Entry<T::Op>> {
        let op = match view {
            Some((seen, value)) => {
                if let Some(ts) = seen {
                    self.clock.observe(ts);
                }
                rules.ttype.execute(value, inv)?
            }
            None => rules.ttype.execute(&rules.ttype.initial_value(), inv)?,
        };
        Some(Entry::new(self.clock.tick(), op))
    }
}

/// Fast-path vs. quorum-path invocation counts summed over `clients`, as
/// `(calm_fast, calm_quorum)`.
pub(crate) fn calm_op_counts<'a, T: ReplicatedType + 'a>(
    clients: impl Iterator<Item = &'a ClientCore<T>>,
) -> (u64, u64) {
    clients.fold((0, 0), |(f, q), c| (f + c.calm_fast, q + c.calm_quorum))
}
