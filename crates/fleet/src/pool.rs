//! The shared worker pool: one event-loop thread, many campaigns.
//!
//! The pool thread owns every worker connection and every campaign's
//! round state. Campaign runner threads talk to it through
//! [`PoolHandle`]; each runner hands the GA engine a
//! [`CampaignDispatcher`] (an [`EvalDispatcher`]), whose `evaluate`
//! ships the round to the pool and blocks until every slot is scored.
//!
//! Each campaign's round runs on its own [`RoundCore`] — the same
//! sans-IO core under the single-campaign broker — fed with the
//! campaign's own seed, so its worker assignment, verified-job set, and
//! chaos fates match its solo run's, and its windows are per
//! `(worker, campaign)`: one tenant's backpressure never consumes
//! another's window. The pool itself adds only what is shared across
//! campaigns:
//!
//! * the fair-share dispatch pump: which campaign dispatches next is
//!   decided by the [`FairShare`](crate::scheduler::FairShare) arbiter
//!   — and by construction none of that scheduling can reach any
//!   campaign's results (see the crate docs),
//! * result routing (each request id is unique across campaigns) and
//!   worker loss or eviction, which requeues the worker's jobs in
//!   *every* campaign,
//! * a per-campaign write-ahead log (prefill served before dispatch),
//! * metrics and status rendering.
//!
//! A worker is bound to one campaign's [`EvalContext`] at a time; the
//! pool re-sends `Setup` lazily, only when the next dispatch for that
//! worker belongs to a campaign whose context differs from the one the
//! worker currently holds. Setup frames are always written cleanly —
//! chaos applies to `Eval` frames only — so a worker's binding is never
//! ambiguous.
//!
//! When every campaign is between rounds the pool thread parks on its
//! event channel (a condvar wait) instead of polling the heartbeat
//! timer; any message wakes it, and on wake it refreshes worker
//! liveness clocks so a long park cannot read as mass worker death.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use audit_core::ga::{EvalDispatcher, Gene, Objectives};
use audit_core::ResilienceReport;
use audit_error::AuditError;
use audit_net::broker::BrokerConfig;
use audit_net::chaos::NetFaultPlan;
use audit_net::frame::write_frame;
use audit_net::metrics::Scrape;
use audit_net::proto::{EvalContext, Msg};
use audit_net::round::{Action, Admission, Ready, RoundCore};
use audit_net::session::{send_eval, WorkerEvent};
use audit_net::transport::Conn;
use audit_net::wal::{Prefill, Wal};

/// Pool tuning knobs: the single-campaign [`audit_net::BrokerConfig`]
/// minus the seed (each campaign brings its own). Results are invariant
/// to every one of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Maximum in-flight evaluations per `(worker, campaign)` pair.
    pub window: usize,
    /// Idle interval between liveness pings while rounds are active.
    pub heartbeat: Duration,
    /// Worker silence threshold and dispatch lease duration.
    pub dead_after: Duration,
    /// Worker-loss re-dispatches allowed per job before quarantine.
    pub retries: u32,
    /// Fitness assigned to a job that exhausted its re-dispatch budget.
    pub quarantine_fitness: f64,
    /// Fraction of each campaign's jobs cross-validated on two workers.
    pub verify_fraction: f64,
    /// Deterministic network fault injection at the pool's wire
    /// boundary (Eval/Result frames only; Setup is always clean).
    pub chaos: NetFaultPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            window: 2,
            heartbeat: Duration::from_millis(1000),
            dead_after: Duration::from_millis(10_000),
            retries: 4,
            quarantine_fitness: 0.0,
            verify_fraction: 0.0,
            chaos: NetFaultPlan::disabled(),
        }
    }
}

/// Everything the pool needs to run one campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Display name (used in status and metric labels).
    pub name: String,
    /// The evaluation context workers are set up with.
    pub ctx: EvalContext,
    /// The campaign's GA seed — feeds its worker-assignment and
    /// cross-validation hashes, exactly as in its solo run.
    pub seed: u64,
    /// Fair-share weight (≥ 1).
    pub weight: u32,
    /// Dispatch WAL path (`<checkpoint>.wal`); `None` disables
    /// write-ahead logging for this campaign.
    pub wal: Option<PathBuf>,
}

/// What one settled round hands back to the campaign's dispatcher.
pub(crate) struct RoundReply {
    scores: Vec<(usize, Objectives)>,
    report: ResilienceReport,
    workers: usize,
}

/// Messages into the pool thread, from worker connection threads (via
/// the service accept loop) and from campaign runner threads.
pub(crate) enum PoolMsg {
    /// A worker finished its handshake; the pool owns its writer half.
    Joined { worker: u64, writer: Conn },
    /// A result, a liveness reply, or the end of a worker's stream.
    Worker { worker: u64, event: WorkerEvent },
    /// Register a campaign; replies with its id.
    Register {
        spec: Box<CampaignSpec>,
        reply: Sender<Result<u64, AuditError>>,
    },
    /// Score one round (generation) for a campaign.
    Evaluate {
        campaign: u64,
        population: Vec<Vec<Gene>>,
        jobs: Vec<usize>,
        reply: Sender<Result<RoundReply, AuditError>>,
    },
    /// Tear down a finished campaign; replies once it is gone.
    Finish {
        campaign: u64,
        discard_wal: bool,
        reply: Sender<ResilienceReport>,
    },
    /// Block the caller until `n` workers are connected.
    WaitWorkers { n: usize, reply: Sender<()> },
    /// Render the metrics scrape text.
    MetricsText { reply: Sender<String> },
    /// Render the status report text.
    StatusText { reply: Sender<String> },
    /// Release every worker and exit the pool thread.
    Shutdown,
}

/// A clonable sender into the pool thread.
#[derive(Clone)]
pub struct PoolHandle {
    tx: Sender<PoolMsg>,
}

impl PoolHandle {
    fn dead() -> AuditError {
        AuditError::io(
            "fleet pool",
            &std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pool thread terminated"),
        )
    }

    pub(crate) fn send(&self, msg: PoolMsg) -> bool {
        self.tx.send(msg).is_ok()
    }

    /// Registers a campaign and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread is gone, or the
    /// campaign's WAL cannot be opened.
    pub fn register(&self, spec: CampaignSpec) -> Result<u64, AuditError> {
        let (reply, rx) = channel();
        self.tx
            .send(PoolMsg::Register {
                spec: Box::new(spec),
                reply,
            })
            .map_err(|_| Self::dead())?;
        rx.recv().map_err(|_| Self::dead())?
    }

    /// Builds the [`EvalDispatcher`] for a registered campaign.
    pub fn dispatcher(&self, campaign: u64) -> CampaignDispatcher {
        CampaignDispatcher {
            pool: self.clone(),
            campaign,
            report: ResilienceReport::default(),
            workers: 1,
        }
    }

    /// Tears down a finished campaign, returning its final resilience
    /// report. With `discard_wal` the campaign's WAL file is deleted
    /// (the run completed; the journal supersedes it) — otherwise it is
    /// kept for a future resume.
    pub fn finish(&self, campaign: u64, discard_wal: bool) -> ResilienceReport {
        let (reply, rx) = channel();
        if self
            .tx
            .send(PoolMsg::Finish {
                campaign,
                discard_wal,
                reply,
            })
            .is_err()
        {
            return ResilienceReport::default();
        }
        rx.recv().unwrap_or_default()
    }

    /// Blocks until at least `n` workers are connected.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread is gone.
    pub fn wait_for_workers(&self, n: usize) -> Result<(), AuditError> {
        let (reply, rx) = channel();
        self.tx
            .send(PoolMsg::WaitWorkers { n, reply })
            .map_err(|_| Self::dead())?;
        rx.recv().map_err(|_| Self::dead())
    }

    /// The plain-text metrics scrape.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread is gone.
    pub fn metrics_text(&self) -> Result<String, AuditError> {
        let (reply, rx) = channel();
        self.tx
            .send(PoolMsg::MetricsText { reply })
            .map_err(|_| Self::dead())?;
        rx.recv().map_err(|_| Self::dead())
    }

    /// The plain-text status report (per-campaign progress).
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the pool thread is gone.
    pub fn status_text(&self) -> Result<String, AuditError> {
        let (reply, rx) = channel();
        self.tx
            .send(PoolMsg::StatusText { reply })
            .map_err(|_| Self::dead())?;
        rx.recv().map_err(|_| Self::dead())
    }
}

/// The pool thread's owner handle: spawns on [`Pool::start`], releases
/// workers and joins on [`Pool::shutdown`] (or drop).
pub struct Pool {
    handle: PoolHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns the pool event-loop thread.
    pub fn start(cfg: FleetConfig) -> Pool {
        let (tx, rx) = channel();
        let thread = std::thread::spawn(move || PoolState::new(cfg, rx).run());
        Pool {
            handle: PoolHandle { tx },
            thread: Some(thread),
        }
    }

    /// A clonable sender into the pool thread.
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }

    /// Releases every worker (a `Shutdown` frame each) and joins the
    /// pool thread. Idempotent; also called on drop.
    pub fn shutdown(&mut self) {
        self.handle.tx.send(PoolMsg::Shutdown).ok();
        if let Some(thread) = self.thread.take() {
            thread.join().ok();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-campaign [`EvalDispatcher`] handed to the GA engine: ships
/// each round to the pool thread and blocks until it settles.
pub struct CampaignDispatcher {
    pool: PoolHandle,
    campaign: u64,
    report: ResilienceReport,
    workers: usize,
}

impl EvalDispatcher for CampaignDispatcher {
    fn evaluate(
        &mut self,
        population: &[Vec<Gene>],
        jobs: &[usize],
    ) -> Result<Vec<(usize, Objectives)>, AuditError> {
        let (reply, rx) = channel();
        self.pool
            .tx
            .send(PoolMsg::Evaluate {
                campaign: self.campaign,
                population: population.to_vec(),
                jobs: jobs.to_vec(),
                reply,
            })
            .map_err(|_| PoolHandle::dead())?;
        let settled = rx.recv().map_err(|_| PoolHandle::dead())??;
        self.report = settled.report;
        self.workers = settled.workers;
        Ok(settled.scores)
    }

    fn workers(&self) -> usize {
        self.workers.max(1)
    }

    fn resilience(&self) -> ResilienceReport {
        self.report
    }
}

/// One connected worker, pool-side.
struct PWorker {
    writer: Conn,
    last_seen: Instant,
    /// The campaign context the worker is currently set up with
    /// (interned id), if any.
    ctx: Option<u64>,
    /// Results served (throughput metric).
    results: u64,
}

/// One campaign's open round: what its dispatcher is waiting on.
struct OpenRound {
    population: Vec<Vec<Gene>>,
    reply: Sender<Result<RoundReply, AuditError>>,
}

/// One registered campaign.
struct Campaign {
    name: String,
    ctx: EvalContext,
    ctx_id: u64,
    fingerprint: u64,
    wal: Option<Wal>,
    core: RoundCore,
    round: Option<OpenRound>,
    rounds_done: u64,
    quarantined: u64,
}

/// The pool thread's state. Single-threaded by construction: every
/// mutation happens on the event loop, so no counter here needs an
/// atomic and no map needs a lock.
struct PoolState {
    cfg: FleetConfig,
    rx: Receiver<PoolMsg>,
    workers: HashMap<u64, PWorker>,
    campaigns: HashMap<u64, Campaign>,
    scheduler: crate::scheduler::FairShare,
    next_req: u64,
    next_campaign: u64,
    ctx_intern: HashMap<String, u64>,
    waiters: Vec<(usize, Sender<()>)>,
    dispatches: u64,
    results: u64,
    cache_hits: u64,
    quarantined: u64,
    evictions: u64,
}

impl PoolState {
    fn new(cfg: FleetConfig, rx: Receiver<PoolMsg>) -> PoolState {
        PoolState {
            cfg,
            rx,
            workers: HashMap::new(),
            campaigns: HashMap::new(),
            scheduler: crate::scheduler::FairShare::new(),
            next_req: 0,
            next_campaign: 0,
            ctx_intern: HashMap::new(),
            waiters: Vec::new(),
            dispatches: 0,
            results: 0,
            cache_hits: 0,
            quarantined: 0,
            evictions: 0,
        }
    }

    fn run(mut self) {
        loop {
            self.pump();
            // Idle parking: with every campaign between rounds there is
            // nothing in flight, no lease to expire, and no reason to
            // ping — block on the channel instead of spinning the
            // heartbeat timer.
            let parked = self.campaigns.values().all(|c| c.round.is_none());
            let msg = if parked {
                match self.rx.recv() {
                    Ok(msg) => Some(msg),
                    Err(_) => return,
                }
            } else {
                match self.rx.recv_timeout(self.cfg.heartbeat) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            };
            let Some(msg) = msg else {
                self.heartbeat_tick();
                continue;
            };
            if parked {
                // Waking from a possibly-long park: the liveness clocks
                // are stale, not the workers. Refresh before anything
                // can read the staleness as mass death.
                let now = Instant::now();
                for w in self.workers.values_mut() {
                    w.last_seen = now;
                }
            }
            if !self.handle(msg) {
                return;
            }
        }
    }

    /// Folds one message in; false means shutdown.
    fn handle(&mut self, msg: PoolMsg) -> bool {
        match msg {
            PoolMsg::Joined { worker, writer } => {
                self.workers.insert(
                    worker,
                    PWorker {
                        writer,
                        last_seen: Instant::now(),
                        ctx: None,
                        results: 0,
                    },
                );
                let live = self.workers.len();
                self.waiters.retain(|(n, reply)| {
                    if live >= *n {
                        reply.send(()).ok();
                        false
                    } else {
                        true
                    }
                });
            }
            PoolMsg::Worker { worker, event } => match event {
                WorkerEvent::Result {
                    id,
                    objectives,
                    resilience,
                    cached,
                } => self.admit_result(worker, id, objectives, resilience, cached),
                WorkerEvent::Pong => self.touch(worker),
                WorkerEvent::Lost => self.lose_worker(worker),
            },
            PoolMsg::Register { spec, reply } => {
                let result = self.register(*spec);
                reply.send(result).ok();
            }
            PoolMsg::Evaluate {
                campaign,
                population,
                jobs,
                reply,
            } => self.start_round(campaign, population, jobs, reply),
            PoolMsg::Finish {
                campaign,
                discard_wal,
                reply,
            } => {
                self.scheduler.unregister(campaign);
                let report = match self.campaigns.remove(&campaign) {
                    Some(mut c) => {
                        if let Some(round) = c.round.take() {
                            round
                                .reply
                                .send(Err(AuditError::journal(
                                    0,
                                    "campaign finished with a round open",
                                )))
                                .ok();
                        }
                        if discard_wal {
                            if let Some(wal) = c.wal.take() {
                                wal.discard();
                            }
                        }
                        c.core.report()
                    }
                    None => ResilienceReport::default(),
                };
                reply.send(report).ok();
            }
            PoolMsg::WaitWorkers { n, reply } => {
                if self.workers.len() >= n {
                    reply.send(()).ok();
                } else {
                    self.waiters.push((n, reply));
                }
            }
            PoolMsg::MetricsText { reply } => {
                let text = self.render_metrics();
                reply.send(text).ok();
            }
            PoolMsg::StatusText { reply } => {
                let text = self.render_status();
                reply.send(text).ok();
            }
            PoolMsg::Shutdown => {
                let frame = Msg::Shutdown.to_json();
                for w in self.workers.values_mut() {
                    write_frame(&mut w.writer, &frame).ok();
                    w.writer.shutdown();
                }
                for (_, c) in self.campaigns.iter_mut() {
                    if let Some(round) = c.round.take() {
                        round
                            .reply
                            .send(Err(AuditError::journal(0, "fleet pool shut down mid-round")))
                            .ok();
                    }
                }
                return false;
            }
        }
        true
    }

    fn register(&mut self, spec: CampaignSpec) -> Result<u64, AuditError> {
        let encoded = spec.ctx.to_json().encode();
        let next_ctx = self.ctx_intern.len() as u64;
        let ctx_id = *self.ctx_intern.entry(encoded).or_insert(next_ctx);
        let (wal, prefill) = match &spec.wal {
            Some(path) => {
                let (wal, prefill) = Wal::open(path)?;
                (Some(wal), prefill)
            }
            None => (None, Prefill::new()),
        };
        let cfg = self.cfg;
        let core_cfg = BrokerConfig {
            seed: spec.seed,
            window: cfg.window,
            heartbeat: cfg.heartbeat,
            dead_after: cfg.dead_after,
            retries: cfg.retries,
            quarantine_fitness: cfg.quarantine_fitness,
            verify_fraction: cfg.verify_fraction,
            chaos: cfg.chaos,
        };
        let id = self.next_campaign;
        self.next_campaign += 1;
        self.scheduler.register(id, spec.weight);
        self.campaigns.insert(
            id,
            Campaign {
                name: spec.name,
                fingerprint: spec.ctx.fingerprint(),
                core: RoundCore::new(core_cfg, spec.ctx.spec.objectives.len(), prefill),
                ctx: spec.ctx,
                ctx_id,
                wal,
                round: None,
                rounds_done: 0,
                quarantined: 0,
            },
        );
        Ok(id)
    }

    /// Opens a round: prefill is served immediately; the rest queues
    /// for fair-share dispatch. An all-prefilled round settles without
    /// touching a worker.
    fn start_round(
        &mut self,
        campaign: u64,
        population: Vec<Vec<Gene>>,
        jobs: Vec<usize>,
        reply: Sender<Result<RoundReply, AuditError>>,
    ) {
        let Some(c) = self.campaigns.get_mut(&campaign) else {
            reply
                .send(Err(AuditError::journal(0, "evaluate for unknown campaign")))
                .ok();
            return;
        };
        if c.round.is_some() {
            reply
                .send(Err(AuditError::journal(0, "campaign already has a round open")))
                .ok();
            return;
        }
        c.core.open(&population, &jobs);
        c.round = Some(OpenRound { population, reply });
        self.maybe_complete(campaign);
    }

    /// Settles a finished round: hands the scores (and the campaign's
    /// running resilience report) back to its dispatcher.
    fn maybe_complete(&mut self, campaign: u64) {
        let workers = self.workers.len().max(1);
        let Some(c) = self.campaigns.get_mut(&campaign) else {
            return;
        };
        if c.round.is_some() && c.core.is_settled() {
            let round = c.round.take().expect("checked above");
            c.rounds_done += 1;
            round
                .reply
                .send(Ok(RoundReply {
                    scores: c.core.close(),
                    report: c.core.report(),
                    workers,
                }))
                .ok();
        }
    }

    /// Fails a campaign's open round (WAL write error and the like).
    fn fail_round(&mut self, campaign: u64, err: AuditError) {
        if let Some(c) = self.campaigns.get_mut(&campaign) {
            if let Some(round) = c.round.take() {
                c.core.close();
                round.reply.send(Err(err)).ok();
            }
        }
    }

    fn live_workers(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.workers.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn touch(&mut self, worker: u64) {
        if let Some(w) = self.workers.get_mut(&worker) {
            w.last_seen = Instant::now();
        }
    }

    /// The fair-share dispatch loop: grant one dispatch at a time to
    /// the arbiter's pick until no campaign's queue front can move.
    fn pump(&mut self) {
        loop {
            let live = self.live_workers();
            let runnable: HashMap<u64, Ready> = self
                .campaigns
                .iter()
                .filter_map(|(&cid, c)| Some((cid, c.core.ready(&live)?)))
                .collect();
            if runnable.is_empty() {
                return;
            }
            let mut scheduler = std::mem::take(&mut self.scheduler);
            let grant = scheduler.next(|id| runnable.contains_key(&id));
            self.scheduler = scheduler;
            let Some(cid) = grant else {
                return;
            };
            self.dispatch_one(cid, runnable[&cid]);
        }
    }

    /// Commits one queue-front step (dispatch or quarantine) for
    /// `campaign`.
    fn dispatch_one(&mut self, campaign: u64, ready: Ready) {
        let c = self
            .campaigns
            .get_mut(&campaign)
            .expect("runnable campaign live");
        if let Ready::Dispatch(worker) = ready {
            // Lazy setup: bind the worker to this campaign's context if
            // it holds a different one. Setup frames are never
            // chaos-injected; a failed write is a worker loss (nothing
            // dispatched yet).
            let w = self.workers.get_mut(&worker).expect("picked worker live");
            if w.ctx != Some(c.ctx_id) {
                let setup = Msg::Setup { ctx: c.ctx.clone() }.to_json();
                if write_frame(&mut w.writer, &setup).is_err() {
                    self.lose_worker(worker);
                    return;
                }
                w.ctx = Some(c.ctx_id);
            }
        }
        let mut out = Vec::new();
        c.core
            .commit(ready, self.next_req, Instant::now(), &mut out);
        self.next_req += 1;
        self.apply(campaign, out);
    }

    /// Admits one result frame into its owning campaign's core.
    fn admit_result(
        &mut self,
        worker: u64,
        id: u64,
        objectives: Objectives,
        resilience: ResilienceReport,
        cached: bool,
    ) {
        if cached {
            self.cache_hits += 1;
        }
        let mut out = Vec::new();
        let owner = self.campaigns.iter_mut().find(|(_, c)| c.core.owns(id));
        let Some((&campaign, c)) = owner else {
            // Retired request id: replay, superseded dispatch, or a
            // straggler of a closed round. Keep the liveness signal.
            self.touch(worker);
            return;
        };
        match c.core.on_result(id, objectives, resilience, &mut out) {
            Admission::Retired => self.touch(worker),
            Admission::Stalled => self.lose_worker(worker),
            Admission::Dropped => {}
            Admission::Admitted => {
                if let Some(w) = self.workers.get_mut(&worker) {
                    w.last_seen = Instant::now();
                    w.results += 1;
                }
                self.results += 1;
                self.apply(campaign, out);
            }
        }
    }

    /// Carries out a campaign core's actions, then settles its round if
    /// it is done; a WAL failure fails the round.
    fn apply(&mut self, campaign: u64, out: Vec<Action>) {
        for action in out {
            if let Err(e) = self.apply_one(campaign, action) {
                self.fail_round(campaign, e);
                return;
            }
        }
        self.maybe_complete(campaign);
    }

    fn apply_one(&mut self, campaign: u64, action: Action) -> Result<(), AuditError> {
        let Some(c) = self.campaigns.get_mut(&campaign) else {
            return Ok(());
        };
        match action {
            Action::Send {
                worker,
                id,
                slot,
                key,
                attempt,
                fate,
                flip,
            } => {
                if let Some(wal) = &mut c.wal {
                    wal.log_dispatch(key, slot, attempt)?;
                }
                self.dispatches += 1;
                let round = c.round.as_ref().expect("dispatching round open");
                let w = self.workers.get_mut(&worker).expect("picked worker live");
                if send_eval(&mut w.writer, id, &round.population[slot], fate, flip).is_err() {
                    // The write failing IS the loss signal; the job was
                    // never sent.
                    c.core.unsend(id);
                    self.lose_worker(worker);
                }
            }
            Action::Settled {
                key,
                objectives,
                resilience,
                quarantined,
                ..
            } => {
                if let Some(wal) = &mut c.wal {
                    wal.log_result(key, &objectives, &resilience)?;
                }
                if quarantined {
                    c.quarantined += 1;
                    self.quarantined += 1;
                }
            }
            Action::Evict { worker, key } => {
                // WAL evidence in the catching campaign, counting the
                // worker's jobs across *every* campaign — all of which
                // the loss requeues.
                let held: usize = self
                    .campaigns
                    .values()
                    .map(|c| c.core.held_by(worker))
                    .sum();
                let c = self.campaigns.get_mut(&campaign).expect("checked above");
                if let Some(wal) = &mut c.wal {
                    wal.log_worker_evicted(worker, key, held as u64)?;
                }
                self.evictions += 1;
                self.lose_worker(worker);
            }
        }
        Ok(())
    }

    /// Removes a worker and requeues its in-flight jobs — in every
    /// campaign — at the next attempt.
    fn lose_worker(&mut self, worker: u64) {
        if let Some(w) = self.workers.remove(&worker) {
            w.writer.shutdown();
        }
        for c in self.campaigns.values_mut() {
            c.core.worker_lost(worker);
        }
    }

    /// Lease expiry, liveness pings, silent-worker collection.
    fn heartbeat_tick(&mut self) {
        let now = Instant::now();
        for c in self.campaigns.values_mut() {
            c.core.tick(now);
        }
        let ping = Msg::Ping.to_json();
        let mut lost: Vec<u64> = Vec::new();
        for (&id, w) in self.workers.iter_mut() {
            if w.last_seen.elapsed() >= self.cfg.dead_after
                || write_frame(&mut w.writer, &ping).is_err()
            {
                lost.push(id);
            }
        }
        for id in lost {
            self.lose_worker(id);
        }
    }

    fn render_metrics(&self) -> String {
        let queue_depth: u64 = self
            .campaigns
            .values()
            .map(|c| c.core.pending() as u64)
            .sum();
        let mut s = Scrape::new();
        s.comment("audit fleet metrics");
        s.sample("audit_fleet_workers", self.workers.len() as u64);
        s.sample("audit_fleet_campaigns", self.campaigns.len() as u64);
        s.sample("audit_fleet_dispatches_total", self.dispatches);
        s.sample("audit_fleet_results_total", self.results);
        s.sample("audit_fleet_cache_hits_total", self.cache_hits);
        s.sample("audit_fleet_quarantined_total", self.quarantined);
        s.sample("audit_fleet_worker_evictions_total", self.evictions);
        s.sample("audit_fleet_queue_depth", queue_depth);
        for id in self.live_workers() {
            let label = id.to_string();
            let held: usize = self.campaigns.values().map(|c| c.core.held_by(id)).sum();
            s.labelled(
                "audit_fleet_worker_results_total",
                &[("worker", &label)],
                self.workers[&id].results,
            );
            s.labelled(
                "audit_fleet_worker_in_flight",
                &[("worker", &label)],
                held as u64,
            );
        }
        let mut campaign_ids: Vec<u64> = self.campaigns.keys().copied().collect();
        campaign_ids.sort_unstable();
        for id in campaign_ids {
            let c = &self.campaigns[&id];
            let labels = [("campaign", c.name.as_str())];
            s.labelled("audit_fleet_campaign_rounds_total", &labels, c.rounds_done);
            s.labelled(
                "audit_fleet_campaign_queue_depth",
                &labels,
                c.core.pending() as u64,
            );
            s.labelled(
                "audit_fleet_campaign_quarantined_total",
                &labels,
                c.quarantined,
            );
        }
        s.render()
    }

    fn render_status(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet: {} worker(s), {} campaign(s)\n",
            self.workers.len(),
            self.campaigns.len()
        ));
        let mut ids: Vec<u64> = self.campaigns.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let c = &self.campaigns[&id];
            let state = match &c.round {
                Some(_) => format!(
                    "round open ({}/{} scored, {} pending, {} in flight)",
                    c.core.scored(),
                    c.core.target(),
                    c.core.pending(),
                    c.core.in_flight()
                ),
                None => "between rounds".to_string(),
            };
            out.push_str(&format!(
                "campaign {id} `{name}`: {rounds} round(s) done, {state}, ctx {fp:016x}\n",
                name = c.name,
                rounds = c.rounds_done,
                fp = c.fingerprint,
            ));
        }
        out
    }
}
