//! Socketless property tests of the sans-IO round core.
//!
//! [`RoundCore`] is driven directly by random event scripts — honest
//! and lying workers, duplicated and replayed results, worker losses
//! and joins, lease ticks, silently lost evaluations, and seeded wire
//! chaos (drops, duplicates, corruption, stalls) — with no sockets,
//! threads, or real leases: time is a caller-supplied `Instant` the
//! script advances by a whole lease per tick. Each case runs two
//! rounds on one core, so the first round's stragglers land in the
//! second. Populations may hold one genome in several slots, as the GA
//! sends them when its cache is off. The properties:
//!
//! * every job slot settles exactly once, and slots sharing a genome
//!   settle on the same verdict,
//! * a cross-validated job settles on the honest bits and no honest
//!   worker is ever evicted (every lie is distinct, so two agreeing
//!   votes are honest ones),
//! * exactly one resilience delta is merged per slot,
//! * a job is quarantined only after `retries + 1` attempts,
//! * no worker's window is ever exceeded, and a closed round holds no
//!   window slot.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::TestCaseResult;

use audit_core::ga::{Gene, Objectives};
use audit_core::resilient::genome_key;
use audit_core::ResilienceReport;
use audit_cpu::isa::Opcode;
use audit_net::broker::BrokerConfig;
use audit_net::chaos::{FrameFate, NetFaultPlan, NetFaultRates};
use audit_net::round::{Action, Admission, Ready, RoundCore};
use audit_net::wal::Prefill;

const LEASE: Duration = Duration::from_secs(3);

fn genome(round: u8, slot: usize) -> Vec<Gene> {
    vec![
        Gene {
            opcode: Opcode::SimdFma,
            dst: slot as u8,
            src1: round,
            src2: 0,
            miss: false,
        };
        4
    ]
}

/// What an honest worker computes for a job: deterministic per key.
fn honest(key: u64) -> Objectives {
    Objectives(vec![-1.0 - (key % 997) as f64 / 13.0, (key % 31) as f64])
}

fn delta(key: u64) -> ResilienceReport {
    ResilienceReport {
        evaluations: 1,
        retries: key % 3,
        quarantined: 0,
        backoff_cycles: key % 5,
    }
}

/// A liar perturbs the primary objective by a mask unique to the
/// request id, so no two lies ever agree with each other or the truth.
fn lie(key: u64, id: u64) -> Objectives {
    let mut o = honest(key);
    o.0[0] = f64::from_bits(o.0[0].to_bits() ^ (id + 1));
    o
}

/// The simulated fleet around one core.
struct Sim {
    core: RoundCore,
    cfg: BrokerConfig,
    rng: u64,
    now: Instant,
    live: Vec<u64>,
    liars: HashSet<u64>,
    next_worker: u64,
    next_id: u64,
    /// Evaluations each worker has received and not yet answered.
    mailbox: HashMap<u64, VecDeque<(u64, u64)>>,
    /// Every answer delivered so far, for replays.
    answered: Vec<(u64, Objectives, ResilienceReport)>,
    /// Dispatched attempts per key.
    sends: HashMap<u64, Vec<u32>>,
    settled: Vec<(usize, u64, Objectives, ResilienceReport, bool)>,
    evicted: Vec<u64>,
}

impl Sim {
    fn new(cfg: BrokerConfig, workers: u64, liars: u64, rng: u64) -> Sim {
        let mut sim = Sim {
            core: RoundCore::new(cfg, 2, Prefill::new()),
            cfg,
            rng: rng | 1,
            now: Instant::now(),
            live: Vec::new(),
            liars: HashSet::new(),
            next_worker: 0,
            next_id: 0,
            mailbox: HashMap::new(),
            answered: Vec::new(),
            sends: HashMap::new(),
            settled: Vec::new(),
            evicted: Vec::new(),
        };
        for i in 0..workers {
            sim.join(i < liars);
        }
        sim
    }

    fn next(&mut self, bound: usize) -> usize {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound.max(1)
    }

    fn join(&mut self, liar: bool) {
        let id = self.next_worker;
        self.next_worker += 1;
        self.live.push(id);
        if liar {
            self.liars.insert(id);
        }
    }

    fn lose(&mut self, worker: u64) {
        self.live.retain(|&w| w != worker);
        self.mailbox.remove(&worker);
        self.core.worker_lost(worker);
    }

    fn check_windows(&self) -> TestCaseResult {
        for &w in &self.live {
            prop_assert!(
                self.core.held_by(w) <= self.cfg.window.max(1),
                "worker {w} holds {} > window {}",
                self.core.held_by(w),
                self.cfg.window
            );
        }
        Ok(())
    }

    fn apply(&mut self, out: Vec<Action>) -> TestCaseResult {
        for action in out {
            match action {
                Action::Send {
                    worker,
                    id,
                    key,
                    attempt,
                    fate,
                    ..
                } => {
                    prop_assert!(self.live.contains(&worker), "sent to dead worker {worker}");
                    self.sends.entry(key).or_default().push(attempt);
                    let copies = match fate {
                        FrameFate::Deliver => 1,
                        FrameFate::Duplicate => 2,
                        // Lost, or rejected by the worker's CRC check.
                        FrameFate::Drop | FrameFate::Corrupt => 0,
                    };
                    let mailbox = self.mailbox.entry(worker).or_default();
                    for _ in 0..copies {
                        mailbox.push_back((id, key));
                    }
                }
                Action::Settled {
                    slot,
                    key,
                    objectives,
                    resilience,
                    quarantined,
                } => self
                    .settled
                    .push((slot, key, objectives, resilience, quarantined)),
                Action::Evict { worker, .. } => {
                    self.evicted.push(worker);
                    self.lose(worker);
                }
            }
        }
        self.check_windows()
    }

    fn pump(&mut self) -> TestCaseResult {
        while let Some(ready) = self.core.ready(&self.live) {
            if let Ready::Dispatch(w) = ready {
                prop_assert!(self.core.held_by(w) < self.cfg.window.max(1));
            }
            let mut out = Vec::new();
            self.core.commit(ready, self.next_id, self.now, &mut out);
            self.next_id += 1;
            self.apply(out)?;
        }
        Ok(())
    }

    fn deliver(&mut self, worker: u64) -> TestCaseResult {
        let Some((id, key)) = self.mailbox.get_mut(&worker).and_then(VecDeque::pop_front) else {
            return Ok(());
        };
        let objectives = if self.liars.contains(&worker) {
            lie(key, id)
        } else {
            honest(key)
        };
        self.answered.push((id, objectives.clone(), delta(key)));
        self.admit(worker, id, objectives, delta(key))
    }

    fn admit(
        &mut self,
        worker: u64,
        id: u64,
        objectives: Objectives,
        resilience: ResilienceReport,
    ) -> TestCaseResult {
        let mut out = Vec::new();
        if self.core.on_result(id, objectives, resilience, &mut out) == Admission::Stalled {
            self.lose(worker);
        }
        self.apply(out)
    }

    /// Live workers with an evaluation to answer.
    fn busy(&self) -> Vec<u64> {
        self.live
            .iter()
            .copied()
            .filter(|w| self.mailbox.get(w).is_some_and(|m| !m.is_empty()))
            .collect()
    }

    fn tick(&mut self) {
        self.now += LEASE;
        self.core.tick(self.now);
    }

    /// One random scripted event.
    fn step(&mut self) -> TestCaseResult {
        match self.next(8) {
            0 | 1 => self.pump()?,
            2 | 3 => {
                let busy = self.busy();
                if !busy.is_empty() {
                    let i = self.next(busy.len());
                    self.deliver(busy[i])?;
                }
            }
            4 if !self.answered.is_empty() => {
                // A replayed (or late duplicate) result frame.
                let i = self.next(self.answered.len());
                let (id, objectives, resilience) = self.answered[i].clone();
                let sender = self.live.first().copied().unwrap_or(u64::MAX);
                self.admit(sender, id, objectives, resilience)?;
            }
            5 if !self.live.is_empty() => {
                if self.next(2) == 0 {
                    let i = self.next(self.live.len());
                    self.lose(self.live[i]);
                } else {
                    // A worker silently forgets one evaluation.
                    let i = self.next(self.live.len());
                    if let Some(m) = self.mailbox.get_mut(&self.live[i]) {
                        m.pop_front();
                    }
                }
            }
            6 => {
                let liar = self.next(4) == 0;
                self.join(liar);
            }
            _ => self.tick(),
        }
        Ok(())
    }

    /// Runs the round to completion: dispatch, answer, and tick
    /// leases, with an honest worker always available.
    fn drain(&mut self) -> TestCaseResult {
        for _ in 0..20_000 {
            if self.core.is_settled() {
                return Ok(());
            }
            if !self.live.iter().any(|w| !self.liars.contains(w)) {
                self.join(false);
            }
            self.pump()?;
            // Answer from a random busy worker: always serving the same
            // one could starve the rest (a liar alone with window slack
            // takes every tiebreak while honest copies sit unanswered).
            let busy = self.busy();
            if busy.is_empty() {
                self.tick();
            } else {
                let i = self.next(busy.len());
                self.deliver(busy[i])?;
            }
        }
        prop_assert!(self.core.is_settled(), "round never settled");
        Ok(())
    }

    /// One full round over `n_jobs` slots holding `distinct` fresh
    /// genomes (slot `i` holds genome `i % distinct`), then the
    /// per-round properties.
    fn round(&mut self, round: u8, n_jobs: usize, distinct: usize, steps: usize) -> TestCaseResult {
        let population: Vec<Vec<Gene>> = (0..n_jobs)
            .map(|slot| genome(round, slot % distinct))
            .collect();
        let jobs: Vec<usize> = (0..n_jobs).collect();
        let report_before = self.core.report();
        self.settled.clear();
        self.sends.clear();
        self.core.open(&population, &jobs);
        for _ in 0..steps {
            self.step()?;
        }
        self.drain()?;
        let scores = self.core.close();

        // Every slot settles exactly once.
        let mut scored: Vec<usize> = scores.iter().map(|&(slot, _)| slot).collect();
        scored.sort_unstable();
        prop_assert_eq!(&scored, &jobs);
        let mut settled_slots: Vec<usize> = self.settled.iter().map(|s| s.0).collect();
        settled_slots.sort_unstable();
        prop_assert_eq!(&settled_slots, &jobs);

        // Slots sharing a genome settle on one verdict.
        let mut verdicts: HashMap<u64, &Objectives> = HashMap::new();
        for (_, key, objectives, _, _) in &self.settled {
            let first = *verdicts.entry(*key).or_insert(objectives);
            prop_assert_eq!(first, objectives);
        }
        prop_assert_eq!(verdicts.len(), distinct);

        // Exactly one resilience delta per slot.
        let mut merged = report_before;
        for (_, _, _, resilience, _) in &self.settled {
            merged.merge(resilience);
        }
        prop_assert_eq!(self.core.report(), merged);
        prop_assert_eq!(
            self.core.report().evaluations - report_before.evaluations,
            n_jobs as u64
        );

        for (_, key, objectives, resilience, quarantined) in &self.settled {
            if *quarantined {
                // Only after `retries + 1` attempts of one copy lineage.
                let attempts: BTreeSet<u32> =
                    self.sends.get(key).into_iter().flatten().copied().collect();
                prop_assert!(
                    (0..=self.cfg.retries).all(|a| attempts.contains(&a)),
                    "key {key:x} quarantined after attempts {attempts:?}"
                );
                prop_assert_eq!(resilience.quarantined, 1);
            } else {
                prop_assert_eq!(*resilience, delta(*key));
                if self.core.verifies(*key) {
                    // Two agreeing votes can only be honest ones.
                    prop_assert_eq!(objectives, &honest(*key));
                }
            }
        }
        for w in &self.evicted {
            prop_assert!(self.liars.contains(w), "honest worker {w} evicted");
        }

        // A closed round holds no window slot, stragglers included.
        for w in 0..self.next_worker {
            prop_assert_eq!(self.core.held_by(w), 0);
        }
        prop_assert_eq!(self.core.in_flight(), 0);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rounds_settle_every_slot_once_under_any_event_script(
        shape in (1u64..=4, 0u64..=2, 1usize..=8, 1usize..=3, 0u32..=3),
        distinct in 1usize..=8,
        verify in 0usize..3,
        chaos in (any::<u64>(), 0u32..=3),
        steps in 0usize..=160,
        script in any::<u64>(),
    ) {
        let (workers, liars, n_jobs, window, retries) = shape;
        let (chaos_seed, chaos_level) = chaos;
        let level = f64::from(chaos_level) * 0.05;
        let plan = if chaos_level == 0 {
            NetFaultPlan::disabled()
        } else {
            // No wire lies: the scripted liars are the byzantine
            // workers, and their lies are distinct by construction.
            NetFaultPlan::new(
                chaos_seed,
                NetFaultRates { drop: level, dup: level, corrupt: level, stall: level / 2.0, lie: 0.0 },
            )
            .unwrap()
        };
        let cfg = BrokerConfig {
            seed: script.rotate_left(17),
            window,
            dead_after: LEASE,
            retries,
            quarantine_fitness: -7.5,
            verify_fraction: [0.0, 0.5, 1.0][verify],
            chaos: plan,
            ..BrokerConfig::default()
        };
        let mut sim = Sim::new(cfg, workers, liars.min(workers - 1), script);
        let distinct = distinct.min(n_jobs);
        sim.round(0, n_jobs, distinct, steps)?;
        sim.round(1, n_jobs, distinct, steps)?;
    }
}

/// A cross-validated job quarantined while its sibling copy is still in
/// flight leaves that copy straggling when the round closes. The
/// straggler must not keep its window slot into the next round: with
/// `window = 1`, the next round still gets a full window on that
/// worker, and the straggler's late answer is retired.
#[test]
fn quarantined_sibling_releases_its_window_when_the_round_closes() {
    let cfg = BrokerConfig {
        window: 1,
        retries: 0,
        verify_fraction: 1.0,
        ..BrokerConfig::default()
    };
    let mut core = RoundCore::new(cfg, 1, Prefill::new());
    let now = Instant::now();
    let live = [0, 1];
    let first = [genome(0, 0)];
    core.open(&first, &[0]);
    let mut out = Vec::new();
    for id in 0..2 {
        let ready = core.ready(&live).expect("both copies dispatch");
        core.commit(ready, id, now, &mut out);
    }
    let workers: Vec<u64> = out
        .iter()
        .map(|a| match a {
            Action::Send { worker, .. } => *worker,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_ne!(workers[0], workers[1], "window 1 spreads the copies");
    let (lost, straggler) = (workers[0], workers[1]);

    // Copy 0's worker dies: with no retries left its job quarantines
    // and the round settles while copy 1 is still out.
    core.worker_lost(lost);
    out.clear();
    assert_eq!(core.ready(&[straggler]), Some(Ready::Quarantine));
    core.commit(Ready::Quarantine, 2, now, &mut out);
    assert!(matches!(
        out[..],
        [Action::Settled {
            quarantined: true,
            ..
        }]
    ));
    assert!(core.is_settled());
    assert_eq!(core.held_by(straggler), 1);
    assert_eq!(core.close().len(), 1);
    assert_eq!(core.held_by(straggler), 0);

    // Next round: the straggler's worker takes a full window.
    let second = [genome(1, 0)];
    core.open(&second, &[0]);
    assert_eq!(core.ready(&[straggler]), Some(Ready::Dispatch(straggler)));
    out.clear();
    core.commit(Ready::Dispatch(straggler), 3, now, &mut out);
    assert_eq!(core.held_by(straggler), 1);
    assert_eq!(core.ready(&[straggler]), None, "window of 1 now full");

    // The straggler's late answer belongs to a closed round: retired.
    let key = genome_key(&first[0]);
    out.clear();
    let late = core.on_result(1, honest(key), delta(key), &mut out);
    assert_eq!(late, Admission::Retired);
    assert!(out.is_empty());
    assert_eq!(core.held_by(straggler), 1);
}
