//! The broker: accepts workers, dispatches evaluations, merges results
//! bit-identically — and defends all of it against a hostile network.
//!
//! The broker is an [`EvalDispatcher`], so the GA engine drives it
//! exactly as it drives the in-process thread pool: hand over the slots
//! to score, get back `(slot, objectives)` pairs. It is a thin driver
//! over one [`RoundCore`], which holds the whole defense stack —
//! content-addressed jobs, deterministic assignment under a bounded
//! in-flight window, retry and quarantine, dispatch leases,
//! cross-validation with byzantine eviction, and deterministic chaos —
//! and provably cannot let scheduling reach the results (see
//! [`crate::round`]). The broker adds the I/O:
//!
//! * **Sockets.** Workers are accepted and handshaken (`Hello` →
//!   `Setup { ctx }`, eagerly) on their own threads, and their frames
//!   arrive as events on one channel; the core's `Send` actions become
//!   `eval` frames, written under their chaos fate.
//! * **Liveness.** Every [`BrokerConfig::heartbeat`] of silence the
//!   broker pings every worker, declares workers silent for
//!   [`BrokerConfig::dead_after`] lost, and ticks the core's leases.
//! * **Write-ahead log.** With [`Broker::attach_wal`], every dispatch is
//!   logged before the frame is sent, every settled result after it
//!   arrives, and every eviction as it happens, as NDJSON next to the run
//!   journal. A killed broker resumed with `--resume` replays finished
//!   generations from the journal and prefills the partial generation
//!   from the WAL instead of re-measuring.
//! * **Metrics.** The broker keeps [`ServeMetrics`] counters
//!   (dispatches, results, cache hits, quarantines, evictions, queue
//!   depth) and answers any connection whose *first* frame is
//!   [`Msg::MetricsReq`] with a plain-text scrape snapshot. Counters
//!   never feed back into scheduling, so scraping cannot perturb a run.
//! * **Idle parking.** With no workers connected and nothing in
//!   flight, the dispatch loop blocks on its event channel (parking the
//!   thread on the channel's condvar) instead of spinning the heartbeat
//!   timer; a joining worker wakes it. Heartbeat polling only runs
//!   while there is someone to ping or a lease to expire.

use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use audit_core::ga::{EvalDispatcher, Gene, Objectives};
use audit_core::ResilienceReport;
use audit_error::AuditError;

use crate::chaos::NetFaultPlan;
use crate::frame::{read_frame, write_frame, FrameOutcome};
use crate::metrics::ServeMetrics;
use crate::proto::{EvalContext, Msg, PROTOCOL_VERSION};
use crate::round::{Action, Admission, RoundCore};
use crate::session::{pump_worker, send_eval, Acceptor, WorkerEvent};
use crate::transport::{Conn, Listener};
use crate::wal::{Prefill, Wal};

/// Broker tuning knobs. Results are invariant to every one of them;
/// they shape scheduling, liveness detection, and failure handling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerConfig {
    /// Seed folded into the worker-assignment hash (use the GA seed so
    /// a rerun schedules identically).
    pub seed: u64,
    /// Maximum in-flight evaluations per worker.
    pub window: usize,
    /// Idle interval between liveness pings.
    pub heartbeat: Duration,
    /// A worker silent for this long is declared lost and its in-flight
    /// jobs are re-dispatched; doubles as the dispatch lease — a job
    /// unanswered for this long is presumed lost on the wire and
    /// re-dispatched at the next attempt.
    pub dead_after: Duration,
    /// Worker-loss re-dispatches allowed per job before quarantine.
    pub retries: u32,
    /// Fitness assigned to a job that exhausted its re-dispatch budget.
    pub quarantine_fitness: f64,
    /// Fraction of jobs cross-validated on two workers, selected by a
    /// pure hash of `(seed, key)` so the choice survives resume and is
    /// independent of scheduling. `0.0` disables cross-validation;
    /// `1.0` verifies every job. Detection of byzantine (lying)
    /// workers only happens on verified jobs.
    pub verify_fraction: f64,
    /// Deterministic network fault injection, applied at the broker's
    /// wire boundary. [`NetFaultPlan::disabled`] leaves every byte
    /// untouched.
    pub chaos: NetFaultPlan,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            seed: 0,
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

/// Events flowing from the accept/reader threads to the broker.
enum Event {
    Joined { worker: u64, writer: Conn },
    Worker(u64, WorkerEvent),
}

struct WorkerState {
    writer: Conn,
    last_seen: Instant,
}

/// The broker side of distributed evaluation. See the module docs.
pub struct Broker {
    cfg: BrokerConfig,
    addr: String,
    rx: Receiver<Event>,
    workers: HashMap<u64, WorkerState>,
    next_req: u64,
    core: RoundCore,
    wal: Option<Wal>,
    metrics: Arc<ServeMetrics>,
    acceptor: Acceptor,
}

impl Broker {
    /// Binds `addr` (`host:port` or `unix:/path`) and starts accepting
    /// workers; each accepted worker is handshaken (`Hello` →
    /// `Setup { ctx }`) on its own thread and then streams results.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the address cannot be bound.
    pub fn bind(addr: &str, ctx: &EvalContext, cfg: BrokerConfig) -> Result<Broker, AuditError> {
        let listener = Listener::bind(addr).map_err(|e| AuditError::io(addr, &e))?;
        let bound = listener.local_addr_string();
        let (tx, rx) = std::sync::mpsc::channel();
        let metrics = Arc::new(ServeMetrics::new());
        let (session_ctx, session_metrics) = (ctx.clone(), Arc::clone(&metrics));
        let acceptor = Acceptor::spawn(listener, move |conn, worker| {
            let (tx, ctx, metrics) = (
                tx.clone(),
                session_ctx.clone(),
                Arc::clone(&session_metrics),
            );
            std::thread::spawn(move || worker_session(conn, worker, &ctx, &tx, &metrics));
        })
        .map_err(|e| AuditError::io(addr, &e))?;
        Ok(Broker {
            cfg,
            addr: bound,
            rx,
            workers: HashMap::new(),
            next_req: 0,
            core: RoundCore::new(cfg, ctx.spec.objectives.len(), Prefill::new()),
            wal: None,
            metrics,
            acceptor,
        })
    }

    /// The bound address in connectable form (`:0` resolved).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Attaches (and replays) the dispatch write-ahead log at `path`.
    /// Results already logged there — by a previous broker killed
    /// mid-generation — are served from the log instead of being
    /// re-dispatched. The file is created if absent and appended
    /// otherwise; a torn final line (broker killed mid-write) is
    /// tolerated, mirroring the journal's torn-tail rule.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the file cannot be read or opened
    /// for append, and [`AuditError::Journal`] if a non-final line is
    /// corrupt.
    pub fn attach_wal(&mut self, path: &Path) -> Result<(), AuditError> {
        let (wal, prefill) = Wal::open(path)?;
        self.wal = Some(wal);
        self.core.set_prefill(prefill);
        Ok(())
    }

    /// Blocks until at least `n` workers have completed the handshake.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Io`] if the accept thread has died.
    pub fn wait_for_workers(&mut self, n: usize) -> Result<(), AuditError> {
        while self.workers.len() < n {
            let event = self.rx.recv().map_err(|_| dead_channel())?;
            self.handle_event(event, &[])?;
        }
        Ok(())
    }

    /// Sends `Shutdown` to every connected worker and stops accepting.
    /// Called automatically on drop; call it explicitly to release
    /// workers before the broker goes out of scope.
    pub fn shutdown(&mut self) {
        self.acceptor.stop();
        self.acceptor.release();
        self.workers.clear();
    }

    /// Deletes the attached WAL file (call after the run completes —
    /// its contents are now redundant with the journal).
    pub fn discard_wal(&mut self) {
        if let Some(wal) = self.wal.take() {
            wal.discard();
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

    /// Folds one event into broker state; `population` is the open
    /// round's (empty between rounds, where no result can be admitted).
    fn handle_event(&mut self, event: Event, population: &[Vec<Gene>]) -> Result<(), AuditError> {
        match event {
            Event::Joined { worker, writer } => {
                self.workers.insert(
                    worker,
                    WorkerState {
                        writer,
                        last_seen: Instant::now(),
                    },
                );
                ServeMetrics::set(&self.metrics.workers, self.workers.len() as u64);
            }
            Event::Worker(worker, WorkerEvent::Pong) => self.touch(worker),
            Event::Worker(worker, WorkerEvent::Lost) => self.lose_worker(worker),
            Event::Worker(
                worker,
                WorkerEvent::Result {
                    id,
                    objectives,
                    resilience,
                    ..
                },
            ) => {
                let mut out = Vec::new();
                match self.core.on_result(id, objectives, resilience, &mut out) {
                    Admission::Retired | Admission::Admitted => self.touch(worker),
                    Admission::Stalled => self.lose_worker(worker),
                    Admission::Dropped => {}
                }
                self.apply(population, out)?;
            }
        }
        Ok(())
    }

    /// Carries out the core's actions: WAL appends, metrics, frame
    /// writes, evictions.
    fn apply(&mut self, population: &[Vec<Gene>], out: Vec<Action>) -> Result<(), AuditError> {
        for action in out {
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
                    if let Some(wal) = &mut self.wal {
                        wal.log_dispatch(key, slot, attempt)?;
                    }
                    ServeMetrics::add(&self.metrics.dispatches, 1);
                    let w = self.workers.get_mut(&worker).expect("picked worker live");
                    if send_eval(&mut w.writer, id, &population[slot], fate, flip).is_err() {
                        // The write failing IS the loss signal; the job
                        // was never sent.
                        self.core.unsend(id);
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
                    if let Some(wal) = &mut self.wal {
                        wal.log_result(key, &objectives, &resilience)?;
                    }
                    if quarantined {
                        ServeMetrics::add(&self.metrics.quarantined, 1);
                    } else {
                        ServeMetrics::add(&self.metrics.results, 1);
                    }
                }
                Action::Evict { worker, key } => {
                    if let Some(wal) = &mut self.wal {
                        wal.log_worker_evicted(worker, key, self.core.held_by(worker) as u64)?;
                    }
                    ServeMetrics::add(&self.metrics.evictions, 1);
                    self.lose_worker(worker);
                }
            }
        }
        Ok(())
    }

    /// Removes a worker; the core requeues its in-flight jobs at the
    /// next attempt.
    fn lose_worker(&mut self, worker: u64) {
        if let Some(w) = self.workers.remove(&worker) {
            w.writer.shutdown();
        }
        ServeMetrics::set(&self.metrics.workers, self.workers.len() as u64);
        self.core.worker_lost(worker);
    }

    /// Drives the open round until every slot is scored.
    fn run_round(&mut self, population: &[Vec<Gene>]) -> Result<(), AuditError> {
        loop {
            // Dispatch while there is work and a worker with window
            // slack to take it.
            while let Some(ready) = self.core.ready(&self.live_workers()) {
                let mut out = Vec::new();
                self.core
                    .commit(ready, self.next_req, Instant::now(), &mut out);
                self.next_req += 1;
                self.apply(population, out)?;
            }
            if self.core.is_settled() {
                return Ok(());
            }
            ServeMetrics::set(&self.metrics.queue_depth, self.core.pending() as u64);
            // With no workers connected and nothing in flight there is
            // nobody to ping and no lease to expire: park on the
            // channel (a condvar wait) instead of spinning the
            // heartbeat timer. A joining worker wakes the loop.
            let event = if self.workers.is_empty() && self.core.in_flight() == 0 {
                Some(self.rx.recv().map_err(|_| dead_channel())?)
            } else {
                match self.rx.recv_timeout(self.cfg.heartbeat) {
                    Ok(event) => Some(event),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return Err(dead_channel()),
                }
            };
            match event {
                Some(event) => self.handle_event(event, population)?,
                None => self.heartbeat_tick(),
            }
        }
    }

    /// Idle-timeout housekeeping: expire dispatch leases, ping
    /// everyone, declare silent workers lost.
    fn heartbeat_tick(&mut self) {
        self.core.tick(Instant::now());
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
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl EvalDispatcher for Broker {
    fn evaluate(
        &mut self,
        population: &[Vec<Gene>],
        jobs: &[usize],
    ) -> Result<Vec<(usize, Objectives)>, AuditError> {
        self.core.open(population, jobs);
        let run = self.run_round(population);
        // Close even on failure, so no straggler keeps a window slot.
        let scores = self.core.close();
        ServeMetrics::set(&self.metrics.queue_depth, 0);
        run.map(|()| scores)
    }

    fn workers(&self) -> usize {
        self.workers.len().max(1)
    }

    fn resilience(&self) -> ResilienceReport {
        self.core.report()
    }
}

fn dead_channel() -> AuditError {
    AuditError::io(
        "broker",
        &std::io::Error::new(std::io::ErrorKind::BrokenPipe, "accept thread terminated"),
    )
}

/// Handshakes one worker, hands its writer half to the broker, then
/// pumps its frames into events until the stream ends. A connection
/// whose first frame is `MetricsReq` instead of `Hello` is a scrape:
/// it gets one `Metrics` snapshot and the socket closes.
fn worker_session(
    mut conn: Conn,
    worker: u64,
    ctx: &EvalContext,
    tx: &Sender<Event>,
    metrics: &ServeMetrics,
) {
    let first = match read_frame(&mut conn) {
        Ok(FrameOutcome::Frame(v)) => v,
        _ => {
            conn.shutdown();
            return;
        }
    };
    match Msg::from_json(&first) {
        Ok(Msg::MetricsReq) => {
            let text = metrics.render();
            write_frame(&mut conn, &Msg::Metrics { text }.to_json()).ok();
            conn.shutdown();
            return;
        }
        Ok(Msg::Hello { protocol }) if protocol == PROTOCOL_VERSION => {}
        _ => {
            conn.shutdown();
            return;
        }
    }
    let Ok(mut writer) = conn.try_clone() else {
        conn.shutdown();
        return;
    };
    if write_frame(&mut writer, &Msg::Setup { ctx: ctx.clone() }.to_json()).is_err() {
        conn.shutdown();
        return;
    }
    if tx.send(Event::Joined { worker, writer }).is_err() {
        return;
    }
    pump_worker(&mut conn, |event| {
        if let WorkerEvent::Result { cached: true, .. } = event {
            // Observability only: counted as frames arrive so the
            // scrape reflects what workers actually served, never fed
            // back into vote accounting.
            ServeMetrics::add(&metrics.cache_hits, 1);
        }
        tx.send(Event::Worker(worker, event)).is_ok()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_selection_is_a_pure_fraction_of_keys() {
        let mut cfg = BrokerConfig {
            verify_fraction: 0.25,
            ..BrokerConfig::default()
        };
        cfg.seed = 7;
        // The selection the broker's round core actually uses; no
        // sockets needed.
        let core = RoundCore::new(cfg, 1, Prefill::new());
        let n = 20_000u64;
        let picked = (0..n).filter(|&k| core.verifies(k)).count();
        let rate = picked as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "verify rate {rate}");
        // Pure: same answer on re-query.
        for k in 0..64 {
            assert_eq!(core.verifies(k), core.verifies(k));
        }
        // The seed feeds the hash: another campaign verifies other keys.
        let other = RoundCore::new(BrokerConfig { seed: 8, ..cfg }, 1, Prefill::new());
        assert!((0..256).any(|k| core.verifies(k) != other.verifies(k)));
        // Off means off.
        cfg.verify_fraction = 0.0;
        let off = RoundCore::new(cfg, 1, Prefill::new());
        assert!((0..64).all(|k| !off.verifies(k)));
    }
}
