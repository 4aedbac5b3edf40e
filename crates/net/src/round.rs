//! The sans-IO round core: one campaign's evaluation round, with every
//! defense of the distributed path and none of its I/O.
//!
//! [`RoundCore`] is the single implementation of the round protocol
//! behind both the single-campaign [`crate::broker::Broker`] and the
//! multi-campaign `audit-fleet` pool. The drivers own sockets, threads,
//! clocks, and write-ahead logs; the core owns the decisions. Events go
//! in — [`RoundCore::open`], [`RoundCore::on_result`],
//! [`RoundCore::worker_lost`], [`RoundCore::tick`] at a caller-supplied
//! `now` — and [`Action`]s come out for the driver to carry out in
//! order. The core never touches a socket, a channel, a file, or the
//! wall clock, so every property below is testable without any of them.
//!
//! * **Content-addressed work.** Each job is keyed by
//!   [`genome_key`]; a worker computes a deterministic function of the
//!   genome, so *which* worker runs a job (or how many times it is re-run)
//!   cannot change the result.
//! * **Deterministic assignment.** A job's worker is chosen by FNV
//!   hashing `(seed, key, attempt, copy)` over the sorted live-worker
//!   list, with a linear probe for window slack.
//! * **Bounded in-flight window.** At most
//!   [`BrokerConfig::window`] evaluations of this core are outstanding
//!   per worker. The core owns that occupancy: a round's stragglers
//!   (copies still in flight when the round settles) release their slots
//!   when the round closes.
//! * **Loss, leases, quarantine.** A lost worker's jobs, and jobs
//!   unanswered for [`BrokerConfig::dead_after`], are re-queued at
//!   `attempt + 1`; a copy past [`BrokerConfig::retries`] quarantines its
//!   job at [`BrokerConfig::quarantine_fitness`]. A late answer for a
//!   superseded dispatch finds its request id retired and is ignored.
//! * **Cross-validation.** A pure-hash-selected
//!   [`BrokerConfig::verify_fraction`] of jobs needs two bit-identical
//!   answers; disagreeing voters are evicted once agreement forms, and a
//!   disagreement with nothing outstanding queues a tiebreak copy.
//!   Exactly one resilience delta is merged per job.
//! * **Chaos.** [`BrokerConfig::chaos`] decides each outbound frame's
//!   [`FrameFate`] and each inbound result's drop, corruption, stall, or
//!   lie, all as pure functions of `(key, attempt, copy)`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

use audit_core::ga::{Gene, Objectives};
use audit_core::resilient::genome_key;
use audit_core::ResilienceReport;
use audit_measure::fault::{mix, uniform, KeyHasher};

use crate::broker::BrokerConfig;
use crate::chaos::{Direction, FrameFate};
use crate::wal::Prefill;

/// Stream discriminator for the cross-validation selection hash.
const STREAM_VERIFY: u64 = 0x5645_5246; // "VERF"

/// Something the driver must do, in the order the core emitted it.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Append a WAL `dispatch` record for `(key, slot, attempt)`, then
    /// write `Eval { id, genome: population[slot] }` to `worker` under
    /// the chaos `fate` (see [`crate::session::send_eval`]). If the write
    /// fails, call [`RoundCore::unsend`] and treat the worker as lost.
    Send {
        /// The worker picked for this copy.
        worker: u64,
        /// The request id the worker echoes back.
        id: u64,
        /// Population slot whose genome is sent.
        slot: usize,
        /// The job's content key.
        key: u64,
        /// Re-dispatch attempt of this copy.
        attempt: u32,
        /// What the simulated network does to the frame.
        fate: FrameFate,
        /// Bit flipped when `fate` is [`FrameFate::Corrupt`].
        flip: u64,
    },
    /// A job's score is final: append a WAL `result` record. The core
    /// has already merged `resilience` into its report and recorded the
    /// score.
    Settled {
        /// The settled population slot.
        slot: usize,
        /// The job's content key.
        key: u64,
        /// The verdict.
        objectives: Objectives,
        /// The one resilience delta merged for this job.
        resilience: ResilienceReport,
        /// True when the retry budget ran out instead of votes agreeing.
        quarantined: bool,
    },
    /// `worker` voted against the settled majority on `key`: append a
    /// WAL `worker_evicted` record (counting the worker's in-flight jobs
    /// via [`RoundCore::held_by`], summed over every core it serves) and
    /// sever it like a lost worker.
    Evict {
        /// The byzantine worker.
        worker: u64,
        /// The job it was caught lying on.
        key: u64,
    },
}

/// What the front of the queue can do next (see [`RoundCore::ready`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ready {
    /// The front copy exhausted its retry budget.
    Quarantine,
    /// The front copy can go to this worker.
    Dispatch(u64),
}

/// How [`RoundCore::on_result`] treated a result frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Unknown request id (a replay, or a superseded dispatch): the
    /// payload is ignored, the frame still proves the sender alive.
    Retired,
    /// Chaos: the frame was lost or CRC-rejected on the wire. The
    /// dispatch lease recovers the job.
    Dropped,
    /// Chaos: the worker stalled instead of answering; the driver must
    /// treat it as lost.
    Stalled,
    /// The answer entered vote accounting.
    Admitted,
}

/// One queued dispatch: a copy of a job awaiting a worker.
#[derive(Debug, Clone, Copy)]
struct Pending {
    slot: usize,
    key: u64,
    attempt: u32,
    copy: u32,
}

/// One outstanding dispatch.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    job: Pending,
    worker: u64,
    sent_at: Instant,
}

/// One answer received for a job, pending settlement.
#[derive(Debug, Clone)]
struct Vote {
    id: u64,
    worker: u64,
    objectives: Objectives,
    resilience: ResilienceReport,
}

/// Per-job settlement state: how many bit-identical votes are needed
/// (1 normally, 2 under cross-validation) and the votes so far. Present
/// exactly while the job is open.
#[derive(Debug)]
struct KeyState {
    slot: usize,
    needed: usize,
    /// Copies issued so far (primary, verification, tiebreaks) — the
    /// next copy index, so chaos draws stay distinct per dispatch.
    dispatched: u32,
    votes: Vec<Vote>,
}

fn objective_bits(objectives: &Objectives) -> Vec<u64> {
    objectives.0.iter().map(|x| x.to_bits()).collect()
}

/// One campaign's round state machine. See the module docs.
#[derive(Debug)]
pub struct RoundCore {
    cfg: BrokerConfig,
    /// Objective-vector arity, so quarantine verdicts splat the fallback
    /// fitness across the same number of axes every worker reports.
    n_objectives: usize,
    prefill: Prefill,
    report: ResilienceReport,
    target: usize,
    scores: Vec<(usize, Objectives)>,
    pending: VecDeque<Pending>,
    /// Ordered by request id, so requeues after a loss or lease expiry
    /// are deterministic.
    in_flight: BTreeMap<u64, InFlight>,
    keys: HashMap<u64, KeyState>,
    /// In-flight copies per worker: the window occupancy.
    load: HashMap<u64, usize>,
}

impl RoundCore {
    /// A core for one campaign. `cfg.seed` is the campaign's GA seed;
    /// `heartbeat` is the driver's and unused here. `prefill` holds
    /// results a previous (killed) driver already logged to the WAL.
    pub fn new(cfg: BrokerConfig, n_objectives: usize, prefill: Prefill) -> RoundCore {
        RoundCore {
            cfg,
            n_objectives,
            prefill,
            report: ResilienceReport::default(),
            target: 0,
            scores: Vec::new(),
            pending: VecDeque::new(),
            in_flight: BTreeMap::new(),
            keys: HashMap::new(),
            load: HashMap::new(),
        }
    }

    /// Replaces the WAL prefill (a driver attaching its log late).
    pub fn set_prefill(&mut self, prefill: Prefill) {
        self.prefill = prefill;
    }

    /// True when this job is cross-validated on two workers: a pure
    /// hash of `(seed, key)` — independent of attempt, copy, and
    /// scheduling, so the same jobs verify on every rerun and resume.
    pub fn verifies(&self, key: u64) -> bool {
        self.cfg.verify_fraction > 0.0
            && uniform(mix(mix(self.cfg.seed, STREAM_VERIFY), key)) < self.cfg.verify_fraction
    }

    /// Opens a round over `jobs` (slots of `population`). A result in
    /// the WAL prefill is final and scored at once; every other job
    /// queues one copy, or two when it [`verifies`](Self::verifies).
    pub fn open(&mut self, population: &[Vec<Gene>], jobs: &[usize]) {
        self.target = jobs.len();
        for &slot in jobs {
            let key = genome_key(&population[slot]);
            if let Some((objectives, delta)) = self.prefill.remove(&key) {
                self.report.merge(&delta);
                self.scores.push((slot, objectives));
                continue;
            }
            let needed = if self.verifies(key) { 2 } else { 1 };
            self.keys.insert(
                key,
                KeyState {
                    slot,
                    needed,
                    dispatched: needed as u32,
                    votes: Vec::new(),
                },
            );
            for copy in 0..needed as u32 {
                self.pending.push_back(Pending {
                    slot,
                    key,
                    attempt: 0,
                    copy,
                });
            }
        }
    }

    /// True once every job of the open round has a score.
    pub fn is_settled(&self) -> bool {
        self.scores.len() >= self.target
    }

    /// Closes the round: returns its `(slot, objectives)` scores and
    /// forgets everything still queued or in flight, releasing the
    /// stragglers' window slots. Their late answers are then retired.
    pub fn close(&mut self) -> Vec<(usize, Objectives)> {
        self.target = 0;
        self.pending.clear();
        self.in_flight.clear();
        self.keys.clear();
        self.load.clear();
        std::mem::take(&mut self.scores)
    }

    /// What the front of the queue can do given the sorted live-worker
    /// list, or `None` when the queue is empty or every worker's window
    /// is full.
    pub fn ready(&self, live: &[u64]) -> Option<Ready> {
        let front = self.pending.front()?;
        if front.attempt > self.cfg.retries {
            return Some(Ready::Quarantine);
        }
        self.pick_worker(live, front).map(Ready::Dispatch)
    }

    /// Deterministic worker choice: FNV over `(seed, key, attempt,
    /// copy)` indexes the sorted live-worker list, probing linearly for
    /// a worker with window slack. Folding in the copy index steers the
    /// two copies of a cross-validated job toward different workers.
    fn pick_worker(&self, live: &[u64], job: &Pending) -> Option<u64> {
        if live.is_empty() {
            return None;
        }
        let mut h = KeyHasher::new();
        h.write_u64(self.cfg.seed)
            .write_u64(job.key)
            .write_u64(u64::from(job.attempt))
            .write_u64(u64::from(job.copy));
        let start = (h.finish() % live.len() as u64) as usize;
        (0..live.len())
            .map(|probe| live[(start + probe) % live.len()])
            .find(|&id| self.held_by(id) < self.cfg.window.max(1))
    }

    /// Carries out what [`ready`](Self::ready) returned: quarantines the
    /// front copy's job, or dispatches the front copy to the picked
    /// worker as request `id` (unique across every core the driver
    /// runs), leased from `now`.
    pub fn commit(&mut self, ready: Ready, id: u64, now: Instant, out: &mut Vec<Action>) {
        let Some(job) = self.pending.pop_front() else {
            return;
        };
        match ready {
            Ready::Quarantine => self.quarantine(job, out),
            Ready::Dispatch(worker) => {
                let chaos = &self.cfg.chaos;
                out.push(Action::Send {
                    worker,
                    id,
                    slot: job.slot,
                    key: job.key,
                    attempt: job.attempt,
                    fate: chaos.frame_fate(Direction::Outbound, job.key, job.attempt, job.copy),
                    flip: chaos.corrupt_bit(Direction::Outbound, job.key, job.attempt, job.copy),
                });
                *self.load.entry(worker).or_insert(0) += 1;
                self.in_flight.insert(
                    id,
                    InFlight {
                        job,
                        worker,
                        sent_at: now,
                    },
                );
            }
        }
    }

    /// Gives up on a job whose copies keep getting lost: scores it like
    /// a quarantined candidate (logged, so a resume does not retry it).
    fn quarantine(&mut self, job: Pending, out: &mut Vec<Action>) {
        if self.keys.remove(&job.key).is_none() {
            // Another copy already settled the job; this straggler
            // copy simply dies.
            return;
        }
        self.pending.retain(|p| p.key != job.key);
        let delta = ResilienceReport {
            evaluations: 1,
            quarantined: 1,
            ..ResilienceReport::default()
        };
        let verdict = Objectives(vec![self.cfg.quarantine_fitness; self.n_objectives.max(1)]);
        self.settle(job, verdict, delta, true, out);
    }

    fn settle(
        &mut self,
        job: Pending,
        objectives: Objectives,
        resilience: ResilienceReport,
        quarantined: bool,
        out: &mut Vec<Action>,
    ) {
        // Exactly one resilience delta per job — agreeing votes carry
        // the identical delta (deterministic evaluation), so the merged
        // report matches the plain in-process run.
        self.report.merge(&resilience);
        self.scores.push((job.slot, objectives.clone()));
        out.push(Action::Settled {
            slot: job.slot,
            key: job.key,
            objectives,
            resilience,
            quarantined,
        });
    }

    /// Removes an in-flight entry, freeing its window slot.
    fn retire(&mut self, id: u64) -> Option<InFlight> {
        let entry = self.in_flight.remove(&id)?;
        if let Some(n) = self.load.get_mut(&entry.worker) {
            *n -= 1;
        }
        Some(entry)
    }

    /// Re-queues an in-flight copy at the front, `bump` attempts later,
    /// so a recovering round retires its oldest work first.
    fn requeue(&mut self, id: u64, bump: u32) {
        if let Some(InFlight { job, .. }) = self.retire(id) {
            self.pending.push_front(Pending {
                attempt: job.attempt + bump,
                ..job
            });
        }
    }

    /// The `Send` for request `id` could not be written: the copy was
    /// never sent, so it goes back to the front at the same attempt.
    pub fn unsend(&mut self, id: u64) {
        self.requeue(id, 0);
    }

    /// A worker is gone: its in-flight copies re-queue at the next
    /// attempt.
    pub fn worker_lost(&mut self, worker: u64) {
        let orphaned: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, j)| j.worker == worker)
            .map(|(&id, _)| id)
            .collect();
        for id in orphaned {
            self.requeue(id, 1);
        }
        self.load.remove(&worker);
    }

    /// Lease expiry at `now`: a copy outstanding for
    /// [`BrokerConfig::dead_after`] is presumed lost on the wire
    /// (dropped or CRC-rejected frame, wedged worker) and re-queued at
    /// the next attempt. If the original answer straggles in later, its
    /// request id is retired.
    pub fn tick(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, j)| now.saturating_duration_since(j.sent_at) >= self.cfg.dead_after)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.requeue(id, 1);
        }
    }

    /// Admits one `result` frame for request `id`: applies inbound
    /// chaos, then routes the answer through vote accounting.
    pub fn on_result(
        &mut self,
        id: u64,
        objectives: Objectives,
        resilience: ResilienceReport,
        out: &mut Vec<Action>,
    ) -> Admission {
        let Some(&InFlight { job, .. }) = self.in_flight.get(&id) else {
            // A replay, or the answer of a dispatch superseded by lease
            // expiry or worker loss — the re-dispatched copy is
            // authoritative (and identical anyway).
            return Admission::Retired;
        };
        let chaos = self.cfg.chaos;
        let (key, attempt, copy) = (job.key, job.attempt, job.copy);
        // The worker stalls *instead of* answering: the result never
        // existed and the worker goes silent until declared dead.
        if chaos.stalls(key, attempt, copy) {
            return Admission::Stalled;
        }
        // The result frame is lost or damaged on the wire (the CRC32
        // trailer rejects a damaged frame at this boundary).
        let fate = chaos.frame_fate(Direction::Inbound, key, attempt, copy);
        if matches!(fate, FrameFate::Drop | FrameFate::Corrupt) {
            return Admission::Dropped;
        }
        let entry = self.retire(id).expect("checked above");
        // A byzantine worker lies: its answer is perturbed in the low
        // mantissa bits, plausible but wrong. Only detectable on
        // cross-validated jobs.
        let mut objectives = objectives;
        let mask = chaos.lie_mask(key, attempt, copy);
        if let Some(primary) = objectives.0.first_mut().filter(|_| mask != 0) {
            *primary = f64::from_bits(primary.to_bits() ^ mask);
        }
        let vote = Vote {
            id,
            worker: entry.worker,
            objectives,
            resilience,
        };
        if fate == FrameFate::Duplicate {
            // The same frame arrives twice: the replay must be rejected
            // by the vote accounting with no double count.
            self.vote(job, vote.clone(), out);
        }
        self.vote(job, vote, out);
        Admission::Admitted
    }

    /// Folds one answer into its job's vote set; settles the job when
    /// enough bit-identical votes agree, evicting disagreeing voters.
    fn vote(&mut self, job: Pending, vote: Vote, out: &mut Vec<Action>) {
        // A job no longer open was settled or quarantined: the answer
        // is stale and accounting stays unchanged.
        let Some(state) = self.keys.get_mut(&job.key) else {
            return;
        };
        if state.votes.iter().any(|v| v.id == vote.id) {
            // A replayed frame for a dispatch that already voted.
            return;
        }
        state.votes.push(vote);
        let needed = state.needed;
        let tally = |bits: &[u64]| {
            state
                .votes
                .iter()
                .filter(|o| objective_bits(&o.objectives) == bits)
                .count()
        };
        let Some(win) = state
            .votes
            .iter()
            .find(|v| tally(&objective_bits(&v.objectives)) >= needed)
        else {
            // No agreement yet. If every copy has answered and they
            // still disagree, break the tie with a fresh dispatch — its
            // vote sides with the honest majority.
            if !self.outstanding(job.key) {
                let state = self.keys.get_mut(&job.key).expect("still open");
                let copy = state.dispatched;
                state.dispatched += 1;
                self.pending.push_front(Pending { copy, ..job });
            }
            return;
        };
        let win_bits = objective_bits(&win.objectives);
        let (verdict, delta) = (win.objectives.clone(), win.resilience);
        let mut evicted: Vec<u64> = state
            .votes
            .iter()
            .filter(|v| objective_bits(&v.objectives) != win_bits)
            .map(|v| v.worker)
            .collect();
        evicted.sort_unstable();
        evicted.dedup();
        let slot = state.slot;
        self.keys.remove(&job.key);
        self.settle(Pending { slot, ..job }, verdict, delta, false, out);
        out.extend(evicted.into_iter().map(|worker| Action::Evict {
            worker,
            key: job.key,
        }));
    }

    fn outstanding(&self, key: u64) -> bool {
        self.pending.iter().any(|p| p.key == key)
            || self.in_flight.values().any(|j| j.job.key == key)
    }

    /// True when request `id` is in flight in this core.
    pub fn owns(&self, id: u64) -> bool {
        self.in_flight.contains_key(&id)
    }

    /// In-flight copies held by `worker` (its window occupancy here).
    pub fn held_by(&self, worker: u64) -> usize {
        self.load.get(&worker).copied().unwrap_or(0)
    }

    /// The merged resilience counters of every settled job so far.
    pub fn report(&self) -> ResilienceReport {
        self.report
    }

    /// Jobs of the open round (0 between rounds).
    pub fn target(&self) -> usize {
        self.target
    }

    /// Jobs of the open round already scored.
    pub fn scored(&self) -> usize {
        self.scores.len()
    }

    /// Copies queued but not yet dispatched.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Copies dispatched and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}
