//! The dynamic batching scheduler core: two lanes (latency-sensitive
//! decode, throughput-oriented prefill), max-batch-size and
//! max-wait-deadline coalescing, per-session FIFO ordering, and
//! SLO-aware dispatch order (EDF within priority class).
//!
//! Each lane keeps its queue sorted by `(priority rank, deadline,
//! arrival)`: higher classes dispatch first, earliest deadline first
//! within a class, and arrival order breaks ties. Legacy traffic — the
//! default SLO of high priority with no deadline — collapses every key
//! to the arrival counter, so pre-SLO FIFO behavior is reproduced
//! exactly.
//!
//! The batcher is a pure data structure driven by the scheduler thread —
//! no locks, no channels — so its policy is unit-testable in isolation.

use crate::config::BatchPolicy;
use crate::request::{Priority, Request, RequestKind, SessionId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// A request waiting to be batched, stamped with its submit time.
#[derive(Clone, Debug)]
pub struct Pending {
    /// The request.
    pub req: Request,
    /// When the client submitted it (latency accounting + wait deadline).
    pub submitted: Instant,
}

/// Which execution lane a batch belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Autoregressive decode steps (batched into one GEMM stack).
    Decode,
    /// Workload-inventory prefills (coalesced, executed back-to-back).
    Prefill,
}

/// A queued request with its dispatch-order key.
#[derive(Clone, Debug)]
pub(crate) struct Queued {
    /// `(priority rank, deadline or MAX, arrival seq)` — lanes stay
    /// sorted ascending by this key.
    key: (u8, u64, u64),
    /// The request.
    pub(crate) p: Pending,
}

/// Lane queues plus the dispatch policy.
#[derive(Debug)]
pub struct Batcher {
    policy: BatchPolicy,
    decode: Vec<Queued>,
    prefill: Vec<Queued>,
    /// Monotonic arrival counter: the EDF tie-breaker that preserves
    /// exact FIFO order for same-priority, same-deadline traffic.
    seq: u64,
    /// Sessions with a request already queued in `decode` or in flight;
    /// their later requests wait in `held` to preserve per-session order
    /// and the one-in-flight-batch-per-session invariant. Ordered maps:
    /// `shed_expired`/`drain_all` iterate these, and that order reaches
    /// response ordering — it must not depend on a hash seed.
    queued_or_busy: BTreeSet<SessionId>,
    held: BTreeMap<SessionId, VecDeque<Pending>>,
}

impl Batcher {
    /// An empty batcher with the given policy.
    pub fn new(policy: BatchPolicy) -> Self {
        Batcher {
            policy,
            decode: Vec::new(),
            prefill: Vec::new(),
            seq: 0,
            queued_or_busy: BTreeSet::new(),
            held: BTreeMap::new(),
        }
    }

    /// Requests waiting in both lanes (holdbacks included).
    pub fn depth(&self) -> usize {
        self.decode.len() + self.prefill.len() + self.held.values().map(|q| q.len()).sum::<usize>()
    }

    /// Whether nothing is waiting anywhere.
    pub fn is_empty(&self) -> bool {
        self.depth() == 0
    }

    fn insert(lane: &mut Vec<Queued>, item: Queued) {
        let at = lane.partition_point(|q| q.key <= item.key);
        lane.insert(at, item);
    }

    fn keyed(&mut self, p: Pending) -> Queued {
        let key = (
            p.req.slo.priority.rank() as u8,
            p.req.slo.deadline.unwrap_or(u64::MAX),
            self.seq,
        );
        self.seq += 1;
        Queued { key, p }
    }

    /// Enqueues an admitted request into its lane at its EDF position.
    /// Decode requests for a session that already has one queued or in
    /// flight are held back to preserve arrival order.
    pub fn push(&mut self, p: Pending) {
        match p.req.kind {
            RequestKind::Decode { session, .. } => {
                if self.queued_or_busy.contains(&session) {
                    self.held.entry(session).or_default().push_back(p);
                } else {
                    self.queued_or_busy.insert(session);
                    let item = self.keyed(p);
                    Self::insert(&mut self.decode, item);
                }
            }
            RequestKind::Prefill { .. } => {
                let item = self.keyed(p);
                Self::insert(&mut self.prefill, item);
            }
        }
    }

    /// Marks a session's in-flight batch complete, promoting its oldest
    /// held-back request (if any) into the decode lane.
    pub fn on_session_done(&mut self, session: SessionId) {
        self.queued_or_busy.remove(&session);
        let next = match self.held.get_mut(&session) {
            Some(q) => {
                let next = q.pop_front();
                if q.is_empty() {
                    self.held.remove(&session);
                }
                next
            }
            None => None,
        };
        if let Some(next) = next {
            self.queued_or_busy.insert(session);
            let item = self.keyed(next);
            Self::insert(&mut self.decode, item);
        }
    }

    /// Removes every queued or held request whose deadline has already
    /// passed at virtual tick `now` and returns them (for typed
    /// [`crate::ServeError::DeadlineExceeded`] responses). Shed decode
    /// requests release their session slot and promote any still-live
    /// held successor, so a late step never wedges its session.
    pub fn shed_expired(&mut self, now: u64) -> Vec<Pending> {
        let late = |p: &Pending| p.req.slo.deadline.is_some_and(|d| d < now);
        let mut shed = Vec::new();
        // Held-back requests first, so a successor promoted below is
        // known to still be live.
        for q in self.held.values_mut() {
            let mut keep = VecDeque::with_capacity(q.len());
            for p in q.drain(..) {
                if late(&p) {
                    shed.push(p);
                } else {
                    keep.push_back(p);
                }
            }
            *q = keep;
        }
        self.held.retain(|_, q| !q.is_empty());
        let mut done_sessions = Vec::new();
        for lane in [&mut self.decode, &mut self.prefill] {
            let mut i = 0;
            while i < lane.len() {
                if late(&lane[i].p) {
                    let item = lane.remove(i);
                    if let Some(session) = item.p.req.session() {
                        done_sessions.push(session);
                    }
                    shed.push(item.p);
                } else {
                    i += 1;
                }
            }
        }
        for session in done_sessions {
            self.on_session_done(session);
        }
        shed
    }

    /// Removes every queued prefill below (strictly lower-priority than)
    /// `keep` and returns them — the degradation ladder's
    /// shed-prefill-before-decode rung.
    pub fn shed_prefill_below(&mut self, keep: Priority) -> Vec<Pending> {
        let mut shed = Vec::new();
        let mut i = 0;
        while i < self.prefill.len() {
            if self.prefill[i].p.req.slo.priority.rank() > keep.rank() {
                shed.push(self.prefill.remove(i).p);
            } else {
                i += 1;
            }
        }
        shed
    }

    /// Drains **everything** — both lanes and all holdbacks — clearing
    /// the session-tracking state. Used at shutdown to answer stragglers
    /// with [`crate::ServeError::ShuttingDown`].
    pub fn drain_all(&mut self) -> Vec<Pending> {
        let mut all: Vec<Pending> = self.decode.drain(..).map(|q| q.p).collect();
        all.extend(self.prefill.drain(..).map(|q| q.p));
        // BTreeMap drains in session order — deterministic by type.
        for (_, q) in std::mem::take(&mut self.held) {
            all.extend(q);
        }
        self.queued_or_busy.clear();
        all
    }

    /// Whether `lane` should dispatch now: a full batch is ready, the
    /// head-of-line request has waited out the coalescing deadline, or
    /// the server is `draining`. Under
    /// [`BatchPolicy::continuous`](crate::BatchPolicy::continuous)
    /// batching any non-empty lane is dispatchable — there is no
    /// coalescing barrier, so work flows to an idle worker immediately.
    pub fn dispatchable(&self, lane: Lane, now: Instant, draining: bool) -> bool {
        let q = self.lane(lane);
        match q.first() {
            None => false,
            Some(_) if self.policy.continuous => true,
            Some(head) => {
                q.len() >= self.policy.max_batch
                    || draining
                    || now.duration_since(head.p.submitted) >= self.policy.max_wait
            }
        }
    }

    /// The lane to dispatch next, decode first (latency-sensitive).
    pub fn next_lane(&self, now: Instant, draining: bool) -> Option<Lane> {
        if self.dispatchable(Lane::Decode, now, draining) {
            Some(Lane::Decode)
        } else if self.dispatchable(Lane::Prefill, now, draining) {
            Some(Lane::Prefill)
        } else {
            None
        }
    }

    /// Earliest instant at which a currently-waiting partial batch becomes
    /// dispatchable by deadline — the scheduler's sleep bound. Continuous
    /// batching has no deadlines (anything pending dispatches as soon as
    /// a worker frees up), so this returns `None` there.
    pub fn next_deadline(&self) -> Option<Instant> {
        if self.policy.continuous {
            return None;
        }
        [&self.decode, &self.prefill]
            .into_iter()
            .filter_map(|q| q.first())
            .map(|item| item.p.submitted + self.policy.max_wait)
            .min()
    }

    /// Requests currently queued in `lane` (holdbacks excluded).
    pub fn lane_len(&self, lane: Lane) -> usize {
        self.lane(lane).len()
    }

    /// Pops up to `max_batch` requests from `lane` in dispatch order
    /// (priority, then deadline, then arrival). Decode batches contain at
    /// most one request per session by construction.
    pub fn take(&mut self, lane: Lane) -> Vec<Pending> {
        self.take_up_to(lane, self.policy.max_batch)
    }

    /// Pops up to `min(limit, max_batch)` requests from `lane` in
    /// dispatch order — the scheduler uses this to spread prefill work
    /// across idle workers instead of coalescing maximally.
    pub fn take_up_to(&mut self, lane: Lane, limit: usize) -> Vec<Pending> {
        self.take_keyed(lane, limit)
            .into_iter()
            .map(|item| item.p)
            .collect()
    }

    /// [`Self::take_up_to`] keeping each request's dispatch-order key, so
    /// a request the scheduler cannot serve yet can go back through
    /// [`Self::requeue`] exactly where it was.
    pub(crate) fn take_keyed(&mut self, lane: Lane, limit: usize) -> Vec<Queued> {
        let max = self.policy.max_batch.min(limit).max(1);
        let q = self.lane_mut(lane);
        let n = q.len().min(max);
        q.drain(..n).collect()
    }

    /// Returns a decode request taken by [`Self::take_keyed`] to the decode
    /// lane under its original key. Its session keeps its queued slot, so
    /// held-back successors stay behind it: EDF and per-session FIFO order
    /// are as if it had never been taken.
    pub(crate) fn requeue(&mut self, item: Queued) {
        debug_assert!(
            item.p.req.session().is_some(),
            "requeue of a prefill request"
        );
        Self::insert(&mut self.decode, item);
    }

    fn lane(&self, lane: Lane) -> &Vec<Queued> {
        match lane {
            Lane::Decode => &self.decode,
            Lane::Prefill => &self.prefill,
        }
    }

    fn lane_mut(&mut self, lane: Lane) -> &mut Vec<Queued> {
        match lane {
            Lane::Decode => &mut self.decode,
            Lane::Prefill => &mut self.prefill,
        }
    }
}

#[cfg(test)]
// Tests drive the pure batcher with real instants; nothing here is a
// scheduling decision inside the server.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::request::PrefillModel;
    use std::time::Duration;

    fn pending(req: Request) -> Pending {
        Pending {
            req,
            submitted: Instant::now(),
        }
    }

    fn batcher(max_batch: usize, max_wait: Duration) -> Batcher {
        Batcher::new(BatchPolicy {
            max_batch,
            max_wait,
            continuous: false,
        })
    }

    #[test]
    fn full_batch_dispatches_immediately_and_respects_cap() {
        let mut b = batcher(2, Duration::from_secs(3600));
        for i in 0..5 {
            b.push(pending(Request::decode(i, 100 + i, 0)));
        }
        let now = Instant::now();
        assert_eq!(b.next_lane(now, false), Some(Lane::Decode));
        let batch = b.take(Lane::Decode);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].req.id, 0);
        assert_eq!(batch[1].req.id, 1);
        // 3 left: still a full batch available.
        assert!(b.dispatchable(Lane::Decode, now, false));
        b.take(Lane::Decode);
        // 1 left: partial, long deadline, not draining => hold.
        assert!(!b.dispatchable(Lane::Decode, now, false));
        // Draining flushes partials.
        assert!(b.dispatchable(Lane::Decode, now, true));
    }

    #[test]
    fn expired_wait_dispatches_partial_batch() {
        let mut b = batcher(8, Duration::ZERO);
        b.push(pending(Request::decode(1, 1, 0)));
        assert_eq!(b.next_lane(Instant::now(), false), Some(Lane::Decode));
        assert_eq!(b.take(Lane::Decode).len(), 1);
    }

    #[test]
    fn same_session_requests_are_held_back_in_order() {
        let mut b = batcher(8, Duration::ZERO);
        b.push(pending(Request::decode(1, 7, 0)));
        b.push(pending(Request::decode(2, 7, 1))); // same session: held
        b.push(pending(Request::decode(3, 9, 0)));
        let batch = b.take(Lane::Decode);
        assert_eq!(
            batch.iter().map(|p| p.req.id).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(b.depth(), 1); // id 2 held
        assert!(b.take(Lane::Decode).is_empty());
        b.on_session_done(7);
        let batch = b.take(Lane::Decode);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].req.id, 2);
        b.on_session_done(9);
        b.on_session_done(7);
        assert!(b.is_empty());
    }

    #[test]
    fn requeued_request_keeps_its_dispatch_position_and_session_slot() {
        let mut b = batcher(8, Duration::ZERO);
        b.push(pending(Request::decode(1, 7, 0)));
        b.push(pending(Request::decode(2, 7, 1))); // held behind id 1
        b.push(pending(Request::decode(3, 9, 0)));
        let mut taken = b.take_keyed(Lane::Decode, 8);
        assert_eq!(taken.len(), 2);
        let first = taken.remove(0);
        assert_eq!(first.p.req.id, 1);
        // A later arrival must not overtake the requeued request.
        b.push(pending(Request::decode(4, 11, 0)));
        b.requeue(first);
        let order: Vec<_> = b.take(Lane::Decode).iter().map(|p| p.req.id).collect();
        assert_eq!(order, vec![1, 4]);
        // Session 7's successor stayed held the whole time.
        assert_eq!(b.depth(), 1);
        b.on_session_done(7);
        assert_eq!(b.take(Lane::Decode)[0].req.id, 2);
    }

    #[test]
    fn decode_lane_has_priority_over_prefill() {
        let mut b = batcher(4, Duration::ZERO);
        b.push(pending(Request::prefill(1, PrefillModel::BertBase128)));
        b.push(pending(Request::decode(2, 1, 0)));
        assert_eq!(b.next_lane(Instant::now(), false), Some(Lane::Decode));
        b.take(Lane::Decode);
        assert_eq!(b.next_lane(Instant::now(), false), Some(Lane::Prefill));
        assert_eq!(b.take(Lane::Prefill).len(), 1);
    }

    #[test]
    fn continuous_mode_dispatches_partials_without_a_deadline() {
        let mut b = Batcher::new(BatchPolicy::continuous(8));
        assert!(b.next_deadline().is_none());
        b.push(Pending {
            req: Request::decode(1, 1, 0),
            submitted: Instant::now() + Duration::from_secs(3600),
        });
        // One pending request, submitted "in the future": a barrier policy
        // would hold it for the coalescing window, continuous does not.
        assert!(b.dispatchable(Lane::Decode, Instant::now(), false));
        assert!(b.next_deadline().is_none());
        assert_eq!(b.take(Lane::Decode).len(), 1);
    }

    #[test]
    fn deadline_tracks_oldest_pending() {
        let wait = Duration::from_millis(50);
        let mut b = batcher(8, wait);
        assert!(b.next_deadline().is_none());
        let t0 = Instant::now();
        b.push(Pending {
            req: Request::decode(1, 1, 0),
            submitted: t0,
        });
        b.push(Pending {
            req: Request::decode(2, 2, 0),
            submitted: t0 + Duration::from_millis(10),
        });
        assert_eq!(b.next_deadline(), Some(t0 + wait));
    }

    #[test]
    fn dispatch_order_is_priority_then_deadline_then_arrival() {
        let mut b = batcher(8, Duration::ZERO);
        b.push(pending(
            Request::decode(1, 1, 0).with_priority(Priority::Low),
        ));
        b.push(pending(
            Request::decode(2, 2, 0)
                .with_priority(Priority::Normal)
                .with_deadline(9),
        ));
        b.push(pending(
            Request::decode(3, 3, 0)
                .with_priority(Priority::Normal)
                .with_deadline(4),
        ));
        b.push(pending(Request::decode(4, 4, 0))); // default High, no deadline
        b.push(pending(
            Request::decode(5, 5, 0)
                .with_priority(Priority::Normal)
                .with_deadline(4), // same key as id 3: arrival breaks tie
        ));
        let order: Vec<_> = b.take(Lane::Decode).iter().map(|p| p.req.id).collect();
        assert_eq!(order, vec![4, 3, 5, 2, 1]);
    }

    #[test]
    fn shed_expired_takes_late_work_and_unblocks_sessions() {
        let mut b = batcher(8, Duration::ZERO);
        b.push(pending(Request::decode(1, 7, 0).with_deadline(3)));
        b.push(pending(Request::decode(2, 7, 1).with_deadline(9))); // held behind id 1
        b.push(pending(Request::decode(3, 8, 0).with_deadline(9)));
        b.push(pending(
            Request::prefill(4, PrefillModel::BertBase128).with_deadline(2),
        ));
        let shed = b.shed_expired(5);
        let mut ids: Vec<_> = shed.iter().map(|p| p.req.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 4]);
        // Session 7's held successor was promoted by the shed.
        let order: Vec<_> = b.take(Lane::Decode).iter().map(|p| p.req.id).collect();
        assert_eq!(order, vec![3, 2]);
        assert!(b.shed_expired(5).is_empty());
    }

    #[test]
    fn shed_expired_purges_late_holdbacks() {
        let mut b = batcher(8, Duration::ZERO);
        b.push(pending(Request::decode(1, 7, 0).with_deadline(10)));
        b.push(pending(Request::decode(2, 7, 1).with_deadline(3))); // held, already late
        let shed = b.shed_expired(5);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].req.id, 2);
        assert_eq!(b.take(Lane::Decode)[0].req.id, 1);
        b.on_session_done(7);
        assert!(b.is_empty());
    }

    #[test]
    fn shed_prefill_below_keeps_decode_and_higher_classes() {
        let mut b = batcher(8, Duration::ZERO);
        b.push(pending(Request::prefill(1, PrefillModel::BertBase128))); // High
        b.push(pending(
            Request::prefill(2, PrefillModel::SegformerB0).with_priority(Priority::Normal),
        ));
        b.push(pending(
            Request::prefill(3, PrefillModel::BertBase128).with_priority(Priority::Low),
        ));
        b.push(pending(
            Request::decode(4, 1, 0).with_priority(Priority::Low),
        ));
        let shed = b.shed_prefill_below(Priority::Normal);
        let mut ids: Vec<_> = shed.iter().map(|p| p.req.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3]);
        assert_eq!(b.lane_len(Lane::Prefill), 2);
        assert_eq!(b.lane_len(Lane::Decode), 1, "decode is never prefill-shed");
    }

    #[test]
    fn drain_all_empties_lanes_and_holdbacks() {
        let mut b = batcher(8, Duration::ZERO);
        b.push(pending(Request::decode(1, 7, 0)));
        b.push(pending(Request::decode(2, 7, 1))); // held
        b.push(pending(Request::prefill(3, PrefillModel::BertBase128)));
        let drained = b.drain_all();
        let mut ids: Vec<_> = drained.iter().map(|p| p.req.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(b.is_empty());
        // Session state cleared: the session can queue again immediately.
        b.push(pending(Request::decode(9, 7, 2)));
        assert_eq!(b.lane_len(Lane::Decode), 1);
    }
}
