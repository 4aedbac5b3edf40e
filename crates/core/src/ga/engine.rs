//! The generational GA engine: parallel, memoized, bit-reproducible,
//! and crash-resumable.
//!
//! # Determinism contract
//!
//! Every run is a pure function of ([`GaConfig`], menu, genome length,
//! seeds, fitness). Four properties make that hold even with worker
//! threads, the fitness cache, and checkpoint/resume in play:
//!
//! 1. **All randomness is main-thread.** Worker threads never touch an
//!    RNG: the seeded generators drive population init, selection,
//!    crossover, and mutation strictly sequentially.
//! 2. **Per-generation RNG streams.** Generation `g` is bred by a fresh
//!    generator seeded with [`stream_seed`]`(cfg.seed, g)` — a SplitMix64
//!    derivation of the run seed. No RNG state survives a generation, so
//!    a resumed run re-derives exactly the stream the killed run would
//!    have used next; nothing about the generator needs serializing.
//! 3. **Parallel equals sequential.** Fitness results are written into
//!    their population slot by index, and the memo cache is populated in
//!    slot order, so selection *and* cache state are the same no matter
//!    how many workers raced or in which order they finished.
//! 4. **The cache is transparent.** Fitness must be deterministic per
//!    genome (every AUDIT fitness is — see [`crate::harness`]); a cache
//!    hit therefore returns exactly the value a re-simulation would.
//!
//! Consequently `threads: 1` and `threads: N` produce bit-identical
//! [`GaRun`]s (same `best`, `best_fitness`, `history`), and a run killed
//! after any generation and resumed from its journal finishes with a
//! [`GaRun`] bit-identical to the uninterrupted run. Both are asserted
//! by tests.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use audit_cpu::Opcode;
use audit_error::AuditError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use audit_analyze::{swing_score, MachineModel};

use super::genome::{to_sub_block, Gene};
use super::pareto::{extract_front, rank_population, FrontMember, Objectives, PopulationRanking};
use crate::journal::{
    GenerationAnalysis, GenerationRecord, Journal, JournalRecord, JournalSink, NullSink,
    ParetoFrontRecord,
};
use crate::resilient::{ResilienceLog, ResilienceReport};

/// GA hyper-parameters.
///
/// The search is bit-reproducible: for a fixed configuration (including
/// `seed`) the result is identical regardless of `threads` and
/// `cache_capacity`, provided the fitness function is deterministic per
/// genome. See the [module docs](self) for the full contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Hard generation cap.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability of crossover (vs cloning the fitter parent).
    pub crossover_rate: f64,
    /// Per-slot mutation probability.
    pub mutation_rate: f64,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// Exit early after this many generations without improvement — the
    /// paper's exit condition ("the maximum voltage droop produced by
    /// AUDIT does not increase for several generations").
    pub stall_generations: usize,
    /// RNG seed (runs are fully deterministic).
    pub seed: u64,
    /// Worker threads for fitness evaluation. `0` means "use all
    /// available cores". The value never changes results, only wall
    /// time: scores land in their population slot by index, and the RNG
    /// stays on the calling thread.
    #[serde(default = "default_threads")]
    pub threads: usize,
    /// Capacity bound of the fitness memoization cache, in genomes
    /// (`0` disables caching entirely). When full, the cache is flushed
    /// wholesale — a deterministic policy that keeps lookups transparent.
    #[serde(default = "default_cache_capacity")]
    pub cache_capacity: usize,
    /// Order fitness evaluations by the static analyzer's current-swing
    /// surrogate (`audit_analyze::swing_score`), most promising first.
    /// Purely a *scheduling* hint: every cache miss is still evaluated
    /// exactly once and scores land in their population slot by index,
    /// so results are bit-identical with the flag on or off — it only
    /// changes which candidates reach the measurement harness earliest
    /// (useful when a wall-clock budget may cut a run short).
    #[serde(default)]
    pub surrogate_rank: bool,
    /// Budgeted surrogate early stopping: when non-zero, each
    /// generation measures only the `surrogate_budget` most promising
    /// cache misses (ranked by `audit_analyze::swing_score`, the same
    /// ordering [`GaConfig::surrogate_rank`] uses for dispatch) and
    /// scores the rest at `f64::NEG_INFINITY` so they lose every
    /// tournament. Unlike `surrogate_rank` this **changes results** —
    /// it is off by default (`0`) and excluded from the bit-identity
    /// invariants; journals record the budget in a `surrogate_budget`
    /// marker so resumed runs replay the same truncated evaluations.
    #[serde(default)]
    pub surrogate_budget: usize,
    /// Tier-1 pruning budget of the evaluation cascade: when non-zero,
    /// the cache misses that survive [`GaConfig::surrogate_budget`] are
    /// re-ranked by the fast in-order scoreboard model
    /// (`audit_cpu::tier::estimate_swing`, O(insts) per genome instead
    /// of the full simulator's O(cycles)) and only the top
    /// `fast_tier_budget` reach the full simulation; the rest score
    /// `f64::NEG_INFINITY` like budget-deferred slots and are never
    /// cached. All ranking happens on the calling thread, so pruning is
    /// bit-identical across thread counts, dispatchers, and resume.
    /// Like `surrogate_budget` this **changes results** — it is off by
    /// default (`0`) and excluded from the bit-identity invariants;
    /// journals record the budget in a `cascade` marker. See
    /// docs/SIMULATION.md for the full cascade contract.
    #[serde(default)]
    pub fast_tier_budget: usize,
    /// Multi-objective (Pareto) selection. Off by default: the scalar
    /// search compares raw primary fitness and `GaRun` + journal bytes
    /// are untouched. On, selection orders candidates by NSGA-II
    /// non-dominated rank → crowding distance → slot index (see
    /// [`super::pareto`]), each generation journals a `pareto_front`
    /// record ahead of its `generation` record, and [`GaRun::pareto_front`]
    /// reports the final non-dominated front. The ranking runs on the
    /// calling thread from slot-ordered objective vectors, so Pareto
    /// runs keep the full bit-identity contract: identical across
    /// thread counts, dispatchers, and kill/resume.
    #[serde(default)]
    pub pareto: bool,
    /// Lint-driven mutation repair. Off by default: breeding is
    /// untouched and journal bytes match a config that predates the
    /// flag. On, every as-bred genome (initial population included) is
    /// linted under [`super::repair::repair_lint_config`] and offending
    /// slots are re-rolled deterministically (bounded attempts, NOP
    /// fallback; see [`super::repair`]), so populations reach the
    /// simulator free of deny-level AUD1xx dead work. Repair draws from
    /// per-slot streams keyed by the child's content — never from the
    /// generation's breeding stream — and runs on the calling thread,
    /// preserving bit-identity across thread counts, dispatchers, and
    /// kill/resume. Each generation journals a `repair` record counting
    /// its re-rolls.
    #[serde(default)]
    pub lint_repair: bool,
}

fn default_threads() -> usize {
    0
}

fn default_cache_capacity() -> usize {
    1 << 16
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 24,
            generations: 40,
            tournament: 3,
            crossover_rate: 0.85,
            mutation_rate: 0.08,
            elitism: 2,
            stall_generations: 8,
            seed: 0xA0D17,
            threads: default_threads(),
            cache_capacity: default_cache_capacity(),
            surrogate_rank: false,
            surrogate_budget: 0,
            fast_tier_budget: 0,
            pareto: false,
            lint_repair: false,
        }
    }
}

impl GaConfig {
    /// Checks that the configuration describes a runnable search.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::InvalidConfig`] naming the offending field:
    /// `population` below 2, `tournament` of 0, non-finite or
    /// out-of-`[0, 1]` rates, or `elitism` that fills (or overflows) the
    /// population.
    pub fn validate(&self) -> Result<(), AuditError> {
        if self.population < 2 {
            return Err(AuditError::invalid(
                "GaConfig",
                "population",
                format!("must be at least 2 (got {})", self.population),
            ));
        }
        if self.tournament == 0 {
            return Err(AuditError::invalid(
                "GaConfig",
                "tournament",
                "must be at least 1",
            ));
        }
        for (field, rate) in [
            ("crossover_rate", self.crossover_rate),
            ("mutation_rate", self.mutation_rate),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(AuditError::invalid(
                    "GaConfig",
                    field,
                    format!("must be a probability in [0, 1] (got {rate})"),
                ));
            }
        }
        if self.elitism >= self.population {
            return Err(AuditError::invalid(
                "GaConfig",
                "elitism",
                format!(
                    "must leave room for offspring ({} elites in a population of {})",
                    self.elitism, self.population
                ),
            ));
        }
        Ok(())
    }
}

/// Derives the RNG seed of one generation's breeding stream from the run
/// seed — a SplitMix64 step keyed by the generation index.
///
/// Stream 0 initializes the population; stream `g` breeds generation
/// `g`. Because every generation starts its own stream, resuming from a
/// journal needs no serialized RNG state: the next generation's stream
/// is a function of (`seed`, `g`) alone.
pub fn stream_seed(seed: u64, generation: u64) -> u64 {
    let mut z = seed ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Genome-keyed fitness memoization.
///
/// Elites survive generations unchanged and converged populations are
/// full of duplicates; both would otherwise re-run a full chip + PDN
/// co-simulation per generation. The cache maps a genome to its
/// objective vector (a 1-axis vector in the scalar search) and is
/// consulted before any evaluation is dispatched to a worker.
///
/// Correctness relies on the fitness being deterministic per genome
/// (the [determinism contract](self)): a hit returns exactly what a
/// re-simulation would have produced.
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    map: HashMap<Vec<Gene>, Objectives>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl EvalCache {
    /// Creates a cache bounded to `capacity` genomes (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        EvalCache {
            map: HashMap::with_capacity(capacity.min(4096)),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Whether caching is active at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks up a genome, counting the hit or miss.
    pub fn lookup(&mut self, genome: &[Gene]) -> Option<Objectives> {
        if !self.is_enabled() {
            return None;
        }
        match self.map.get(genome) {
            Some(objectives) => {
                self.hits += 1;
                Some(objectives.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records a computed objective vector (a plain `f64` converts to
    /// the 1-axis scalar vector), flushing the cache first if inserting
    /// would exceed the capacity bound.
    pub fn insert(&mut self, genome: &[Gene], objectives: impl Into<Objectives>) {
        if !self.is_enabled() {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(genome) {
            self.map.clear();
        }
        self.map.insert(genome.to_vec(), objectives.into());
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a simulation.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Genomes currently memoized.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Per-run performance telemetry.
///
/// Collected per generation (index 0 is the initial population). Wall
/// times vary run to run, so telemetry is deliberately **excluded** from
/// [`GaRun`]'s `PartialEq` — equality of runs means equality of results.
/// On a resumed run, entries for replayed generations carry the wall
/// times recorded by the original run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GaTelemetry {
    /// Resolved evaluation worker count (after `threads: 0` auto-detect).
    pub threads: usize,
    /// Wall-clock seconds spent evaluating each generation.
    pub gen_wall_s: Vec<f64>,
    /// Simulations actually executed per generation.
    pub gen_evaluations: Vec<u64>,
    /// Evaluations served by memoization per generation (cache hits plus
    /// within-generation duplicates).
    pub gen_cache_hits: Vec<u64>,
    /// Total wall-clock seconds of the whole run.
    pub total_wall_s: f64,
}

impl GaTelemetry {
    fn record(&mut self, wall_s: f64, executed: u64, cache_hits: u64) {
        self.gen_wall_s.push(wall_s);
        self.gen_evaluations.push(executed);
        self.gen_cache_hits.push(cache_hits);
    }

    /// Total simulations executed.
    pub fn evaluations(&self) -> u64 {
        self.gen_evaluations.iter().sum()
    }

    /// Total evaluations served by memoization.
    pub fn cache_hits(&self) -> u64 {
        self.gen_cache_hits.iter().sum()
    }

    /// Fraction of fitness lookups served without simulating, in [0, 1].
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.evaluations() + self.cache_hits();
        if total == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / total as f64
        }
    }

    /// Executed simulations per wall-clock second of evaluation.
    pub fn evals_per_second(&self) -> f64 {
        let wall: f64 = self.gen_wall_s.iter().sum();
        if wall <= 0.0 {
            0.0
        } else {
            self.evaluations() as f64 / wall
        }
    }
}

/// Result of a GA run.
///
/// Equality compares **results only** (`best`, `best_fitness`,
/// `history`, counts) and ignores [`GaRun::telemetry`], whose wall
/// times legitimately differ between otherwise identical runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaRun {
    /// Fittest genome found.
    pub best: Vec<Gene>,
    /// Its fitness.
    pub best_fitness: f64,
    /// Best fitness after each generation (convergence curve).
    pub history: Vec<f64>,
    /// Generations actually run (≤ the cap when the stall exit fires).
    pub generations_run: usize,
    /// Simulations actually executed — cache hits are **excluded**, so
    /// convergence-cost studies count real work. On a resumed run this
    /// includes the simulations the original run executed (replayed
    /// generations are *not* re-simulated, but their recorded counts
    /// carry over so the total matches the uninterrupted run).
    pub evaluations: u64,
    /// Fitness evaluations served by memoization instead of simulation.
    pub cache_hits: u64,
    /// The deduplicated non-dominated front of the final generation when
    /// [`GaConfig::pareto`] is on; `None` for scalar runs, which keeps
    /// their serialized form byte-identical to pre-Pareto builds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pareto_front: Option<Vec<FrontMember>>,
    /// Wall-time and throughput telemetry (ignored by `PartialEq`).
    pub telemetry: GaTelemetry,
}

impl PartialEq for GaRun {
    fn eq(&self, other: &Self) -> bool {
        self.best == other.best
            && self.best_fitness == other.best_fitness
            && self.history == other.history
            && self.generations_run == other.generations_run
            && self.evaluations == other.evaluations
            && self.cache_hits == other.cache_hits
            && self.pareto_front == other.pareto_front
    }
}

impl GaRun {
    /// Resumes the last GA section of `journal`, finishing the search
    /// and returning a [`GaRun`] **bit-identical** to what the
    /// uninterrupted run would have produced.
    ///
    /// Recorded generations are replayed without re-simulation (scores,
    /// cache state, and best-so-far tracking are reconstructed from the
    /// journal); evolution then continues live from the next generation,
    /// evaluating through `dispatcher` and appending the new records to
    /// `sink` — pass a [`crate::journal::JournalWriter`] reopened with
    /// [`crate::journal::JournalWriter::resume`] to continue the same
    /// journal file. Replayed generations are never re-appended, and a
    /// section already closed by `ga_end` appends nothing. The
    /// dispatcher must compute the same deterministic fitness the
    /// original run used.
    ///
    /// A multi-objective Pareto journal is first checked against the
    /// dispatcher: one recorded genome is re-evaluated, and a vector
    /// width other than the journal's fails the resume before anything
    /// is appended (mixing axis counts would corrupt the ranking). That
    /// probe evaluation counts in [`EvalDispatcher::resilience`].
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::Resume`] if the journal has no GA section,
    /// its generation records are inconsistent with the recorded
    /// [`GaConfig`], or the dispatcher's objective width does not match
    /// a Pareto journal's; and any error the search, the dispatcher, or
    /// the sink can produce.
    pub fn resume(
        journal: &Journal,
        dispatcher: &mut dyn EvalDispatcher,
        sink: &mut dyn JournalSink,
    ) -> Result<GaRun, AuditError> {
        let section = journal
            .last_ga_section()
            .ok_or_else(|| AuditError::resume("journal contains no GA section"))?;
        if section.cfg.pareto {
            check_objective_width(&section.generations, &section.fronts, dispatcher)?;
        }
        let mut null = NullSink;
        // A section already closed by `ga_end` is replay-only: recompute
        // the result without appending duplicate records.
        let sink: &mut dyn JournalSink = if section.complete { &mut null } else { sink };
        run_ga(
            section.cfg,
            section.menu,
            section.genome_len,
            section.seeds,
            dispatcher,
            sink,
            &section.generations,
            &section.fronts,
        )
    }
}

/// Re-evaluates generation 0's first genome through `dispatcher` and
/// compares its objective width with the one the journal recorded for
/// it. A journal cut before its first front has nothing to mix with.
fn check_objective_width(
    replay: &[&GenerationRecord],
    fronts: &[&ParetoFrontRecord],
    dispatcher: &mut dyn EvalDispatcher,
) -> Result<(), AuditError> {
    let recorded = fronts
        .iter()
        .find(|f| f.index == 0)
        .and_then(|f| f.objectives.first());
    let genome = replay.first().and_then(|g| g.population.first());
    let (Some(genome), Some(recorded)) = (genome, recorded) else {
        return Ok(());
    };
    let probe = dispatcher.evaluate(std::slice::from_ref(genome), &[0])?;
    let width = probe.first().map_or(0, |(_, objectives)| objectives.len());
    if width != recorded.len() {
        return Err(AuditError::resume(format!(
            "journal records a {}-objective pareto run, but the dispatcher returns \
             {width}-axis vectors; resume it with a dispatcher computing the same \
             objective vector",
            recorded.len()
        )));
    }
    Ok(())
}

/// Evaluates one generation's cache misses, wherever the compute lives.
///
/// The engine hands a dispatcher the population and the slots that need
/// measuring (`jobs`, already deduplicated, cache-filtered, and — when
/// surrogate ranking is on — ordered most-promising-first) and expects
/// one `(slot, objectives)` pair per job back, **in any order**. The
/// engine sorts results into slot order before touching the cache, so a
/// conforming dispatcher can never perturb results: local thread pools
/// ([`LocalDispatcher`]) and remote broker/worker fleets (`audit-net`)
/// are bit-identical by construction as long as the fitness they compute
/// is the same deterministic function of the genome.
///
/// A scalar dispatcher returns 1-axis vectors ([`Objectives::scalar`]);
/// the engine treats the first axis as the legacy scalar fitness in
/// every mode.
pub trait EvalDispatcher {
    /// Scores `jobs` (slot indices into `population`), returning one
    /// `(slot, objectives)` pair per job in any order. All vectors in
    /// one run must have the same axis count.
    ///
    /// # Errors
    ///
    /// Dispatch is allowed to fail (e.g. a network broker losing its
    /// last worker); the engine aborts the run with the error.
    fn evaluate(
        &mut self,
        population: &[Vec<Gene>],
        jobs: &[usize],
    ) -> Result<Vec<(usize, Objectives)>, AuditError>;

    /// Worker parallelism, for telemetry only (never affects results).
    fn workers(&self) -> usize {
        1
    }

    /// Aggregate resilience counters accumulated by the dispatcher's
    /// evaluations, if it tracks any (a remote broker folds the deltas
    /// its workers report). Order-insensitive sums, so any scheduling
    /// produces the same report.
    fn resilience(&self) -> ResilienceReport {
        ResilienceReport::default()
    }
}

/// What a [`LocalDispatcher`] fitness closure may return: a scalar
/// (`f64`, the 1-axis special case), a full [`Objectives`] vector for
/// Pareto runs, or a vector paired with the [`ResilienceReport`] delta
/// its evaluation contributed (what
/// [`FitnessSpec::evaluate_objectives`](crate::audit::FitnessSpec::evaluate_objectives)
/// returns).
pub trait Scored {
    /// Splits the score into its objective vector and resilience delta
    /// (all zeros for the plain scalar and vector forms).
    fn into_scored(self) -> (Objectives, ResilienceReport);
}

impl Scored for f64 {
    fn into_scored(self) -> (Objectives, ResilienceReport) {
        (Objectives::scalar(self), ResilienceReport::default())
    }
}

impl Scored for Objectives {
    fn into_scored(self) -> (Objectives, ResilienceReport) {
        (self, ResilienceReport::default())
    }
}

impl Scored for (Objectives, ResilienceReport) {
    fn into_scored(self) -> (Objectives, ResilienceReport) {
        self
    }
}

/// The in-process [`EvalDispatcher`]: a `std::thread::scope` work queue
/// over a fitness closure, behind the same trait as the distributed
/// broker so local and remote runs share one merge discipline.
///
/// The closure may return anything [`Scored`]; resilience deltas are
/// folded into a [`ResilienceLog`] reported through
/// [`EvalDispatcher::resilience`], exactly as the broker folds the
/// deltas its workers report.
pub struct LocalDispatcher<F> {
    fitness: F,
    workers: usize,
    log: ResilienceLog,
}

impl<R: Scored, F: Fn(&[Gene]) -> R + Sync> LocalDispatcher<F> {
    /// Wraps `fitness` with `threads` evaluation workers (`0` = all
    /// available cores). The thread count never changes results.
    pub fn new(fitness: F, threads: usize) -> Self {
        LocalDispatcher {
            fitness,
            workers: resolve_workers(threads),
            log: ResilienceLog::default(),
        }
    }
}

impl<R: Scored, F: Fn(&[Gene]) -> R + Sync> EvalDispatcher for LocalDispatcher<F> {
    fn evaluate(
        &mut self,
        population: &[Vec<Gene>],
        jobs: &[usize],
    ) -> Result<Vec<(usize, Objectives)>, AuditError> {
        let (fitness, log) = (&self.fitness, &self.log);
        let score = |slot: usize| {
            let (objectives, delta) = fitness(&population[slot]).into_scored();
            log.fold(&delta);
            (slot, objectives)
        };
        Ok(if self.workers <= 1 || jobs.len() <= 1 {
            jobs.iter().map(|&slot| score(slot)).collect()
        } else {
            let queue = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.workers.min(jobs.len()))
                    .map(|_| {
                        s.spawn(|| {
                            let mut out: Vec<(usize, Objectives)> = Vec::new();
                            loop {
                                let k = queue.fetch_add(1, Ordering::Relaxed);
                                let Some(&slot) = jobs.get(k) else { break };
                                out.push(score(slot));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("fitness worker panicked"))
                    .collect()
            })
        })
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn resilience(&self) -> ResilienceReport {
        self.log.snapshot()
    }
}

/// Evolves genomes of `genome_len` slots over the opcode `menu`,
/// maximizing the fitness `dispatcher` computes, with every generation
/// checkpointed to `sink` (pass [`NullSink`] to keep nothing).
/// Optionally accepts `seeds`: existing genomes injected into the
/// initial population (the paper's "seeded with existing benchmarks or
/// stressmarks to improve the convergence rate").
///
/// After validation, appends a `ga_start` record (config, menu, seeds —
/// everything needed to resume) and the budget markers, then one
/// `generation` record per evaluated generation and a final `ga_end`.
/// A run killed between appends is resumable via [`GaRun::resume`]
/// with a bit-identical final result.
///
/// The fitness must be deterministic per genome. In-process runs wrap a
/// closure in a [`LocalDispatcher`], which calls it from `cfg.threads`
/// worker threads; it only needs `Sync`, not `Clone` — per-evaluation
/// state such as [`crate::harness::Rig`] simulators is constructed
/// inside the call, never shared.
///
/// # Example
///
/// ```
/// use audit_core::ga::{evolve, GaConfig, Gene, LocalDispatcher};
/// use audit_core::journal::NullSink;
/// use audit_cpu::Opcode;
///
/// // A toy objective: count FMA slots.
/// let fma = |g: &[Gene]| g.iter().filter(|x| x.opcode == Opcode::SimdFma).count() as f64;
/// let cfg = GaConfig { population: 8, generations: 5, ..GaConfig::default() };
/// let mut local = LocalDispatcher::new(fma, cfg.threads);
/// let run = evolve(&cfg, &Opcode::stress_menu(), 6, &[], &mut local, &mut NullSink).unwrap();
/// assert!(run.best_fitness >= 1.0);
/// ```
///
/// Runs are bit-identical regardless of the worker count — the
/// determinism contract in the [module docs](self):
///
/// ```
/// use audit_core::ga::{evolve, GaConfig, Gene, LocalDispatcher};
/// use audit_core::journal::NullSink;
/// use audit_cpu::Opcode;
///
/// let menu = Opcode::stress_menu();
/// let fitness = |g: &[Gene]| {
///     g.iter().filter(|x| x.opcode == Opcode::SimdFma).count() as f64
/// };
/// let cfg = GaConfig { population: 6, generations: 3, ..GaConfig::default() };
/// let mut seq = LocalDispatcher::new(&fitness, 1);
/// let mut par = LocalDispatcher::new(&fitness, 4);
/// let a = evolve(&cfg, &menu, 4, &[], &mut seq, &mut NullSink).unwrap();
/// let b = evolve(&cfg, &menu, 4, &[], &mut par, &mut NullSink).unwrap();
/// assert_eq!(a, b); // same best, best_fitness, and history
/// ```
///
/// # Errors
///
/// Returns [`AuditError::InvalidConfig`] for an unrunnable
/// configuration ([`GaConfig::validate`]), an empty menu, or a zero
/// genome length, and any dispatch or sink error.
///
/// # Panics
///
/// Panics if a [`LocalDispatcher`] fitness worker panics.
pub fn evolve(
    cfg: &GaConfig,
    menu: &[Opcode],
    genome_len: usize,
    seeds: &[Vec<Gene>],
    dispatcher: &mut dyn EvalDispatcher,
    sink: &mut dyn JournalSink,
) -> Result<GaRun, AuditError> {
    cfg.validate()?;
    validate_search(menu, genome_len)?;
    sink.append(&JournalRecord::GaStart {
        cfg: cfg.clone(),
        genome_len,
        menu: menu.to_vec(),
        seeds: seeds.to_vec(),
    })?;
    if cfg.surrogate_budget > 0 {
        // Marker record: flags in the journal itself that this run's
        // scores were produced under budgeted early stopping (the
        // config inside `ga_start` is authoritative; the marker makes
        // the non-default mode obvious to `grep`).
        sink.append(&JournalRecord::SurrogateBudget {
            budget: cfg.surrogate_budget as u64,
        })?;
    }
    if cfg.fast_tier_budget > 0 {
        // Same discipline for the tiered cascade: one greppable marker,
        // authoritative copy in `ga_start`.
        sink.append(&JournalRecord::Cascade {
            budget: cfg.fast_tier_budget as u64,
        })?;
    }
    run_ga(cfg, menu, genome_len, seeds, dispatcher, sink, &[], &[])
}

fn validate_search(menu: &[Opcode], genome_len: usize) -> Result<(), AuditError> {
    if menu.is_empty() {
        return Err(AuditError::invalid(
            "ga",
            "menu",
            "opcode menu must not be empty",
        ));
    }
    if genome_len == 0 {
        return Err(AuditError::invalid(
            "ga",
            "genome_len",
            "genome length must be positive",
        ));
    }
    Ok(())
}

/// The engine proper, shared by fresh ([`evolve`]) and resumed
/// ([`GaRun::resume`]) runs: `replay` holds the journaled
/// generations to reconstruct before evolution continues live, and
/// `fronts` the journaled `pareto_front` records that carry their full
/// objective vectors (empty for scalar runs).
#[allow(clippy::too_many_arguments)]
fn run_ga(
    cfg: &GaConfig,
    menu: &[Opcode],
    genome_len: usize,
    seeds: &[Vec<Gene>],
    dispatcher: &mut dyn EvalDispatcher,
    sink: &mut dyn JournalSink,
    replay: &[&GenerationRecord],
    fronts: &[&ParetoFrontRecord],
) -> Result<GaRun, AuditError> {
    cfg.validate()?;
    validate_search(menu, genome_len)?;

    let run_start = Instant::now();
    let mut cache = EvalCache::new(cfg.cache_capacity);
    let mut telemetry = GaTelemetry {
        threads: dispatcher.workers(),
        ..GaTelemetry::default()
    };

    let mut history = Vec::new();
    let mut best: Vec<Gene>;
    let mut best_fitness: f64;
    let mut stalled = 0usize;
    let mut generation = 0usize;
    let mut population: Vec<Vec<Gene>>;
    let mut scores: Vec<f64>;
    let mut objs: Vec<Objectives>;

    if replay.is_empty() {
        // Fresh start: stream 0 breeds the initial population.
        let mut rng = SmallRng::seed_from_u64(stream_seed(cfg.seed, 0));
        population = Vec::with_capacity(cfg.population);
        for seed in seeds.iter().take(cfg.population) {
            let mut g = seed.clone();
            g.resize_with(genome_len, || Gene::random(menu, &mut rng));
            g.truncate(genome_len);
            population.push(g);
        }
        while population.len() < cfg.population {
            population.push(
                (0..genome_len)
                    .map(|_| Gene::random(menu, &mut rng))
                    .collect(),
            );
        }
        let rerolls = repair_population(cfg, menu, &mut population);
        debug_verify_population(&population);
        objs = evaluate_population(&population, dispatcher, &mut cache, cfg, &mut telemetry)?;
        scores = objs.iter().map(Objectives::primary).collect();
        append_generation(sink, cfg, 0, &population, &objs, &scores, &telemetry, rerolls)?;

        let best_idx = argmax(&scores);
        best = population[best_idx].clone();
        best_fitness = scores[best_idx];
        history.push(best_fitness);
    } else {
        // Resume: rebuild population, scores, objective vectors, cache,
        // and best-so-far tracking from the journal. No fitness is
        // re-executed; the cache is repopulated in the same slot order
        // the live run inserted in, so even its deterministic flush
        // timing is reproduced.
        best = Vec::new();
        best_fitness = f64::NEG_INFINITY;
        objs = Vec::new();
        for (k, rec) in replay.iter().enumerate() {
            check_replay_record(cfg, genome_len, k, rec)?;
            objs = replay_objectives(cfg, k, rec, fronts)?;
            replay_into_cache(&mut cache, rec, &objs);
            telemetry.record(rec.wall_s, rec.executed, rec.cache_hits);

            // Same update logic as the live loop below, fed the recorded
            // scores instead of fresh evaluations.
            let best_idx = argmax(&rec.scores);
            if k > 0 {
                generation += 1;
                if rec.scores[best_idx] > best_fitness {
                    stalled = 0;
                } else {
                    stalled += 1;
                }
            }
            if rec.scores[best_idx] > best_fitness {
                best_fitness = rec.scores[best_idx];
                best = rec.population[best_idx].clone();
            }
            history.push(best_fitness);
        }

        let last = replay[replay.len() - 1];
        population = last.population.clone();
        scores = last.scores.clone();
    }

    while generation < cfg.generations && stalled < cfg.stall_generations {
        generation += 1;
        let mut rng = SmallRng::seed_from_u64(stream_seed(cfg.seed, generation as u64));

        // Pareto mode ranks the parent population once per generation on
        // the calling thread; both modes draw the RNG identically, so
        // flipping `pareto` never perturbs the stream.
        let ranking = if cfg.pareto {
            Some(rank_population(&objs))
        } else {
            None
        };

        // Elites survive unchanged.
        let order: Vec<usize> = match &ranking {
            Some(r) => r.selection_order(),
            None => {
                let mut order: Vec<usize> = (0..population.len()).collect();
                order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
                order
            }
        };
        let mut next: Vec<Vec<Gene>> = order
            .iter()
            .take(cfg.elitism)
            .map(|&i| population[i].clone())
            .collect();

        while next.len() < cfg.population {
            let a = tournament(cfg, &scores, ranking.as_ref(), &mut rng);
            let b = tournament(cfg, &scores, ranking.as_ref(), &mut rng);
            let a_wins = match &ranking {
                Some(r) => r.better_or_equal(a, b),
                None => scores[a] >= scores[b],
            };
            let mut child = if rng.gen_bool(cfg.crossover_rate) {
                crossover(&population[a], &population[b], &mut rng)
            } else if a_wins {
                population[a].clone()
            } else {
                population[b].clone()
            };
            for gene in &mut child {
                if rng.gen_bool(cfg.mutation_rate) {
                    gene.mutate(menu, &mut rng);
                }
            }
            next.push(child);
        }

        // Repair runs after the whole brood is bred, on the calling
        // thread, from content-keyed streams — the breeding RNG above
        // is already exhausted, so flipping `lint_repair` cannot
        // perturb it. Elites are already clean and repair no-ops.
        let rerolls = repair_population(cfg, menu, &mut next);
        population = next;
        debug_verify_population(&population);
        objs = evaluate_population(&population, dispatcher, &mut cache, cfg, &mut telemetry)?;
        scores = objs.iter().map(Objectives::primary).collect();
        append_generation(
            sink,
            cfg,
            generation,
            &population,
            &objs,
            &scores,
            &telemetry,
            rerolls,
        )?;

        let best_idx = argmax(&scores);
        if scores[best_idx] > best_fitness {
            best_fitness = scores[best_idx];
            best = population[best_idx].clone();
            stalled = 0;
        } else {
            stalled += 1;
        }
        history.push(best_fitness);
    }
    sink.append(&JournalRecord::GaEnd)?;

    let pareto_front = if cfg.pareto {
        let ranking = rank_population(&objs);
        Some(extract_front(&population, &objs, &ranking))
    } else {
        None
    };

    telemetry.total_wall_s = run_start.elapsed().as_secs_f64();
    Ok(GaRun {
        best,
        best_fitness,
        history,
        generations_run: generation,
        evaluations: telemetry.evaluations(),
        cache_hits: telemetry.cache_hits(),
        pareto_front,
        telemetry,
    })
}

/// Repairs every genome of an as-bred population in place (no-op
/// unless [`GaConfig::lint_repair`]), returning total slot re-rolls.
fn repair_population(cfg: &GaConfig, menu: &[Opcode], population: &mut [Vec<Gene>]) -> u64 {
    if !cfg.lint_repair {
        return 0;
    }
    population
        .iter_mut()
        .map(|g| super::repair::repair_genome(g, menu, cfg.seed))
        .sum()
}

#[allow(clippy::too_many_arguments)]
fn append_generation(
    sink: &mut dyn JournalSink,
    cfg: &GaConfig,
    index: usize,
    population: &[Vec<Gene>],
    objs: &[Objectives],
    scores: &[f64],
    telemetry: &GaTelemetry,
    rerolls: u64,
) -> Result<(), AuditError> {
    if cfg.lint_repair {
        // Repair telemetry rides ahead of the generation it shaped; the
        // section walker skips it like the other GA markers.
        sink.append(&JournalRecord::Repair { index, rerolls })?;
    }
    if cfg.pareto {
        // Write-ahead of the generation record: a crash between the two
        // leaves an orphan front, which replay ignores (it matches
        // fronts to generations by index). The full vectors live here;
        // the generation record keeps carrying only the primary scores,
        // exactly as in scalar mode.
        let ranking = rank_population(objs);
        sink.append(&JournalRecord::ParetoFront(ParetoFrontRecord {
            index,
            objectives: objs.to_vec(),
            ranks: ranking.rank.iter().map(|&r| r as u64).collect(),
        }))?;
    }
    sink.append(&JournalRecord::Generation(GenerationRecord {
        index,
        stream_seed: stream_seed(cfg.seed, index as u64),
        population: population.to_vec(),
        scores: scores.to_vec(),
        executed: telemetry.gen_evaluations.last().copied().unwrap_or(0),
        cache_hits: telemetry.gen_cache_hits.last().copied().unwrap_or(0),
        wall_s: telemetry.gen_wall_s.last().copied().unwrap_or(0.0),
        analysis: Some(analyze_population(population)),
    }))
}

/// Static-analyzer summary of one generation: best/mean surrogate swing
/// score under the generic machine model. Journal-only metadata — never
/// feeds back into selection.
fn analyze_population(population: &[Vec<Gene>]) -> GenerationAnalysis {
    let model = MachineModel::generic();
    let mut best = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for genome in population {
        let s = swing_score(&to_sub_block(genome), &model);
        best = best.max(s);
        sum += s;
    }
    GenerationAnalysis {
        best_swing: if population.is_empty() { 0.0 } else { best },
        mean_swing: if population.is_empty() {
            0.0
        } else {
            sum / population.len() as f64
        },
    }
}

/// Debug-build invariant: everything the breeder produces must pass the
/// structural verifier. `Gene::to_inst` lowers through the same checked
/// builders the verifier models, so a finding here means the GA operators
/// and the verifier have drifted apart — catch it at the source, not at
/// NASM emission time.
fn debug_verify_population(population: &[Vec<Gene>]) {
    #[cfg(debug_assertions)]
    for (i, genome) in population.iter().enumerate() {
        let program = audit_cpu::Program::new("ga-candidate", to_sub_block(genome));
        let diags = audit_analyze::verify(&program, &audit_analyze::VerifyTarget::permissive());
        assert!(
            diags.is_empty(),
            "GA bred an unverifiable genome in slot {i}: {diags:?}"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = population;
}

fn check_replay_record(
    cfg: &GaConfig,
    genome_len: usize,
    k: usize,
    rec: &GenerationRecord,
) -> Result<(), AuditError> {
    if rec.index != k {
        return Err(AuditError::resume(format!(
            "journal generations are not contiguous (expected index {k}, found {})",
            rec.index
        )));
    }
    let expected = stream_seed(cfg.seed, k as u64);
    if rec.stream_seed != expected {
        return Err(AuditError::resume(format!(
            "generation {k} was bred from stream {:#x}, but this config derives {expected:#x} \
             — the journal belongs to a different run",
            rec.stream_seed
        )));
    }
    if rec.population.len() != cfg.population || rec.scores.len() != cfg.population {
        return Err(AuditError::resume(format!(
            "generation {k} has {} genomes for a population of {}",
            rec.population.len(),
            cfg.population
        )));
    }
    if rec.population.iter().any(|g| g.len() != genome_len) {
        return Err(AuditError::resume(format!(
            "generation {k} contains genomes of the wrong length (expected {genome_len})"
        )));
    }
    Ok(())
}

/// Reconstructs one replayed generation's objective vectors: the
/// recorded primary scores wrapped as 1-axis vectors in scalar mode, or
/// the full vectors from the generation's journaled `pareto_front`
/// record in Pareto mode.
fn replay_objectives(
    cfg: &GaConfig,
    k: usize,
    rec: &GenerationRecord,
    fronts: &[&ParetoFrontRecord],
) -> Result<Vec<Objectives>, AuditError> {
    if !cfg.pareto {
        return Ok(rec.scores.iter().copied().map(Objectives::scalar).collect());
    }
    let front = fronts
        .iter()
        .find(|f| f.index == k)
        .ok_or_else(|| {
            AuditError::resume(format!(
                "pareto run journal is missing the pareto_front record of generation {k}"
            ))
        })?;
    if front.objectives.len() != rec.scores.len() {
        return Err(AuditError::resume(format!(
            "pareto_front {k} carries {} objective vectors for {} population slots",
            front.objectives.len(),
            rec.scores.len()
        )));
    }
    for (i, (objectives, &score)) in front.objectives.iter().zip(&rec.scores).enumerate() {
        if objectives.primary() != score {
            return Err(AuditError::resume(format!(
                "pareto_front {k} slot {i} disagrees with its generation record \
                 (primary {} vs score {score}) — the journal is inconsistent",
                objectives.primary()
            )));
        }
    }
    Ok(front.objectives.clone())
}

/// Re-inserts a replayed generation into the memo cache in exactly the
/// order the live run did: first-occurrence cache misses, in slot order.
/// Hits and within-generation duplicates were never inserted live, so
/// they are skipped here too — this keeps the deterministic
/// flush-at-capacity timing bit-identical across kill/resume.
fn replay_into_cache(cache: &mut EvalCache, rec: &GenerationRecord, objs: &[Objectives]) {
    if !cache.is_enabled() {
        return;
    }
    let mut seen: HashSet<&[Gene]> = HashSet::new();
    for (genome, objectives) in rec.population.iter().zip(objs) {
        // A `surrogate_budget` run records deferred slots as -inf
        // sentinels; the live run never cached those, so replay must
        // not either.
        if objectives.is_deferred() {
            continue;
        }
        if cache.lookup(genome).is_some() {
            continue;
        }
        if !seen.insert(genome.as_slice()) {
            continue;
        }
        cache.insert(genome, objectives.clone());
    }
}

/// Resolves the configured thread knob to a concrete worker count.
fn resolve_workers(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Scores one generation: cache lookups and within-generation dedup
/// first, then the remaining genomes through the [`EvalDispatcher`]
/// (a local thread pool or a remote broker). Results land in their
/// population slot by index, and the cache is updated in slot order,
/// keeping both selection order *and* cache state identical to a
/// sequential evaluation.
///
/// `cfg.surrogate_rank` reorders the *dispatch* of cache misses by
/// descending static swing score (ties broken by slot). Because results
/// are sorted back into slot order before any cache insert, dispatch
/// order is unobservable — scores, cache state, and `executed` are
/// bit-identical with the flag on or off; only which genome is measured
/// first changes.
///
/// `cfg.surrogate_budget`, by contrast, *truncates* the ranked job list:
/// only the top `budget` misses are dispatched, and every deferred slot
/// scores `f64::NEG_INFINITY` (never cached, so a later generation that
/// re-breeds the genome measures it for real). This changes results and
/// is excluded from the bit-identity invariants.
///
/// `cfg.fast_tier_budget` adds the cascade's middle tier: the jobs that
/// survive the static stages are re-ranked by the tier-1 scoreboard
/// estimate (`audit_cpu::tier`) and truncated again, under the same
/// deferred-slot rules. Static rank → fast tier → full simulation, each
/// stage cheaper than the next and all of them decided on the calling
/// thread (docs/SIMULATION.md).
fn evaluate_population(
    population: &[Vec<Gene>],
    dispatcher: &mut dyn EvalDispatcher,
    cache: &mut EvalCache,
    cfg: &GaConfig,
    telemetry: &mut GaTelemetry,
) -> Result<Vec<Objectives>, AuditError> {
    let t0 = Instant::now();
    let n = population.len();
    let mut scores: Vec<Option<Objectives>> = vec![None; n];
    let mut dup_of: Vec<Option<usize>> = vec![None; n];
    let mut jobs: Vec<usize> = Vec::new();
    let mut cache_hits = 0u64;

    if cache.is_enabled() {
        let mut first_slot: HashMap<&[Gene], usize> = HashMap::new();
        for (i, genome) in population.iter().enumerate() {
            if let Some(f) = cache.lookup(genome) {
                scores[i] = Some(f);
                cache_hits += 1;
            } else if let Some(&primary) = first_slot.get(genome.as_slice()) {
                dup_of[i] = Some(primary);
                cache_hits += 1;
            } else {
                first_slot.insert(genome.as_slice(), i);
                jobs.push(i);
            }
        }
    } else {
        jobs.extend(0..n);
    }

    let budget = cfg.surrogate_budget;
    if (cfg.surrogate_rank || budget > 0) && jobs.len() > 1 {
        let model = MachineModel::generic();
        let mut keyed: Vec<(usize, f64)> = jobs
            .iter()
            .map(|&slot| (slot, swing_score(&to_sub_block(&population[slot]), &model)))
            .collect();
        keyed.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        jobs = keyed.into_iter().map(|(slot, _)| slot).collect();
    }
    let mut deferred: Vec<usize> = if budget > 0 && jobs.len() > budget {
        jobs.split_off(budget)
    } else {
        Vec::new()
    };

    // Cascade tier 1: re-rank the survivors with the fast in-order
    // scoreboard model and keep only the top `fast_tier_budget` for the
    // full simulation. Runs on the calling thread like the static
    // surrogate above, so the pruning decision is a pure function of
    // (population, config) — identical for any dispatcher, thread
    // count, or resumed run. When the budget is 0 this block is dead
    // and the job list (and every downstream byte) is untouched.
    let tier_budget = cfg.fast_tier_budget;
    if tier_budget > 0 && jobs.len() > tier_budget {
        let model = audit_cpu::tier::TierModel::generic();
        let mut keyed: Vec<(usize, f64)> = jobs
            .iter()
            .map(|&slot| {
                (
                    slot,
                    audit_cpu::tier::estimate_swing(&to_sub_block(&population[slot]), &model),
                )
            })
            .collect();
        keyed.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        jobs = keyed.into_iter().map(|(slot, _)| slot).collect();
        deferred.extend(jobs.split_off(tier_budget));
    }

    let mut results = dispatcher.evaluate(population, &jobs)?;
    if results.len() != jobs.len() {
        return Err(AuditError::invalid(
            "ga",
            "dispatcher",
            format!(
                "dispatcher returned {} results for {} jobs",
                results.len(),
                jobs.len()
            ),
        ));
    }
    // Cache inserts must not depend on worker completion order: the
    // flush-at-capacity policy makes insert *order* observable, and the
    // determinism contract (and journal replay) require slot order.
    results.sort_unstable_by_key(|&(slot, _)| slot);

    let executed = results.len() as u64;
    for (slot, objectives) in results {
        cache.insert(&population[slot], objectives.clone());
        scores[slot] = Some(objectives);
    }
    // Deferred-by-budget slots lose every tournament; they are not
    // cached, so the surrogate's verdict is never mistaken for a
    // measurement by a later generation.
    for slot in deferred {
        scores[slot] = Some(Objectives::deferred());
    }
    for i in 0..n {
        if let Some(primary) = dup_of[i] {
            scores[i] = scores[primary].clone();
        }
    }

    telemetry.record(t0.elapsed().as_secs_f64(), executed, cache_hits);
    Ok(scores
        .into_iter()
        .map(|s| s.expect("every population slot is scored"))
        .collect())
}

fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty scores")
}

fn tournament(
    cfg: &GaConfig,
    scores: &[f64],
    ranking: Option<&PopulationRanking>,
    rng: &mut SmallRng,
) -> usize {
    let mut winner = rng.gen_range(0..scores.len());
    for _ in 1..cfg.tournament.max(1) {
        let challenger = rng.gen_range(0..scores.len());
        let wins = match ranking {
            Some(r) => r.better(challenger, winner),
            None => scores[challenger] > scores[winner],
        };
        if wins {
            winner = challenger;
        }
    }
    winner
}

fn crossover(a: &[Gene], b: &[Gene], rng: &mut SmallRng) -> Vec<Gene> {
    let cut = rng.gen_range(0..a.len());
    a[..cut].iter().chain(&b[cut..]).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MemJournal;
    use std::sync::atomic::AtomicU64;

    /// [`evolve`] over a closure fitness on `cfg.threads` local workers.
    fn evolve_with<R: Scored>(
        cfg: &GaConfig,
        menu: &[Opcode],
        genome_len: usize,
        seeds: &[Vec<Gene>],
        fitness: impl Fn(&[Gene]) -> R + Sync,
        sink: &mut dyn JournalSink,
    ) -> Result<GaRun, AuditError> {
        let mut local = LocalDispatcher::new(fitness, cfg.threads);
        evolve(cfg, menu, genome_len, seeds, &mut local, sink)
    }

    /// [`GaRun::resume`] over a closure fitness.
    fn resume_with<R: Scored>(
        journal: &Journal,
        fitness: impl Fn(&[Gene]) -> R + Sync,
        sink: &mut dyn JournalSink,
    ) -> Result<GaRun, AuditError> {
        GaRun::resume(journal, &mut LocalDispatcher::new(fitness, 1), sink)
    }

    fn menu() -> Vec<Opcode> {
        Opcode::stress_menu()
    }

    /// A cheap synthetic fitness: count SimdFma slots. The GA must
    /// saturate it.
    fn fma_count(g: &[Gene]) -> f64 {
        g.iter().filter(|x| x.opcode == Opcode::SimdFma).count() as f64
    }

    /// Drops the `wall_s` field from an encoded journal line — the one
    /// legitimately nondeterministic value in a generation record.
    fn strip_wall(line: &str) -> String {
        match line.find("\"wall_s\":") {
            Some(start) => {
                let rest = &line[start..];
                let end = rest.find(',').map(|e| start + e + 1).unwrap_or(line.len());
                format!("{}{}", &line[..start], &line[end..])
            }
            None => line.to_string(),
        }
    }

    #[test]
    fn ga_maximizes_synthetic_objective() {
        let cfg = GaConfig {
            population: 20,
            generations: 60,
            stall_generations: 60,
            ..GaConfig::default()
        };
        let run = evolve_with(&cfg, &menu(), 12, &[], fma_count, &mut NullSink).unwrap();
        assert!(run.best_fitness >= 6.0, "best {}", run.best_fitness);
        assert!(
            run.history.last().unwrap() > run.history.first().unwrap(),
            "no improvement over the initial population"
        );
    }

    #[test]
    fn history_is_monotone_nondecreasing() {
        let cfg = GaConfig {
            population: 10,
            generations: 20,
            ..GaConfig::default()
        };
        let run = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        assert!(
            run.history.windows(2).all(|w| w[1] >= w[0]),
            "{:?}",
            run.history
        );
    }

    #[test]
    fn stall_exit_fires() {
        // Constant fitness: improvement never happens after gen 0.
        let cfg = GaConfig {
            population: 8,
            generations: 100,
            stall_generations: 4,
            ..GaConfig::default()
        };
        let run = evolve_with(&cfg, &menu(), 8, &[], |_| 1.0, &mut NullSink).unwrap();
        assert_eq!(run.generations_run, 4);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg = GaConfig {
            population: 10,
            generations: 10,
            ..GaConfig::default()
        };
        let a = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        let b = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        assert_eq!(a, b);
        let other = GaConfig { seed: 999, ..cfg };
        let c = evolve_with(&other, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        assert_ne!(a.best, c.best);
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        // The determinism guarantee: same best, best_fitness, and
        // history for any worker count, including an oversubscribed one.
        let base = GaConfig {
            population: 12,
            generations: 12,
            stall_generations: 12,
            threads: 1,
            ..GaConfig::default()
        };
        let sequential = evolve_with(&base, &menu(), 10, &[], fma_count, &mut NullSink).unwrap();
        for threads in [2, 4, 7] {
            let cfg = GaConfig {
                threads,
                ..base.clone()
            };
            let parallel = evolve_with(&cfg, &menu(), 10, &[], fma_count, &mut NullSink).unwrap();
            assert_eq!(sequential, parallel, "diverged at {threads} threads");
            assert_eq!(sequential.history, parallel.history);
            assert_eq!(sequential.best, parallel.best);
        }
    }

    #[test]
    fn surrogate_ranking_is_bit_identical_to_plain_order() {
        // The surrogate only reorders dispatch; results, evaluation
        // counts, and cache-hit counts are part of GaRun equality, so
        // this pins the full contract across worker counts.
        let plain = GaConfig {
            population: 12,
            generations: 10,
            stall_generations: 10,
            threads: 1,
            surrogate_rank: false,
            ..GaConfig::default()
        };
        let baseline = evolve_with(&plain, &menu(), 10, &[], fma_count, &mut NullSink).unwrap();
        for threads in [1, 3, 6] {
            let cfg = GaConfig {
                threads,
                surrogate_rank: true,
                ..plain.clone()
            };
            let ranked = evolve_with(&cfg, &menu(), 10, &[], fma_count, &mut NullSink).unwrap();
            assert_eq!(baseline, ranked, "diverged at {threads} threads");
            assert_eq!(baseline.evaluations, ranked.evaluations);
            assert_eq!(baseline.cache_hits, ranked.cache_hits);
        }
    }

    #[test]
    fn surrogate_ranking_never_increases_evaluations() {
        // "Surrogate" means *ordering*, never *skipping*: the cache-miss
        // set is identical, so the simulation count must be too, even on
        // a longer run where populations churn.
        let base = GaConfig {
            population: 16,
            generations: 20,
            stall_generations: 20,
            ..GaConfig::default()
        };
        let off = evolve_with(&base, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        let on = evolve_with(
            &GaConfig {
                surrogate_rank: true,
                ..base
            },
            &menu(),
            8,
            &[],
            fma_count,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(off.evaluations, on.evaluations);
    }

    #[test]
    fn surrogate_budget_wider_than_population_changes_nothing() {
        // A budget that never truncates the ranked job list must be
        // bit-identical to running with the budget off.
        let base = GaConfig {
            population: 10,
            generations: 8,
            stall_generations: 8,
            ..GaConfig::default()
        };
        let off = evolve_with(&base, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        let on = evolve_with(
            &GaConfig {
                surrogate_budget: base.population,
                ..base
            },
            &menu(),
            8,
            &[],
            fma_count,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(off, on);
        assert_eq!(off.evaluations, on.evaluations);
    }

    #[test]
    fn surrogate_budget_caps_measurements_per_generation() {
        let mut mem = crate::journal::MemJournal::default();
        let cfg = GaConfig {
            population: 12,
            generations: 6,
            stall_generations: 6,
            surrogate_budget: 3,
            ..GaConfig::default()
        };
        let run = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut mem).unwrap();

        let mut saw_marker = false;
        let mut saw_deferred = false;
        let mut executed_total = 0;
        for rec in &mem.records {
            match rec {
                JournalRecord::SurrogateBudget { budget } => {
                    saw_marker = true;
                    assert_eq!(*budget, 3);
                }
                JournalRecord::Generation(g) => {
                    assert!(g.executed <= 3, "generation measured past the budget");
                    executed_total += g.executed;
                    saw_deferred |= g.scores.contains(&f64::NEG_INFINITY);
                }
                _ => {}
            }
        }
        assert_eq!(run.evaluations, executed_total);
        assert!(saw_marker, "journal must carry the surrogate_budget marker");
        assert!(
            saw_deferred,
            "a 3-of-12 budget must defer slots as -inf sentinels"
        );
    }

    #[test]
    fn surrogate_budget_resume_replays_bit_identically() {
        // Deferred slots are journaled as -inf and were never cached, so
        // resume must skip them during cache replay or kill/resume would
        // diverge from an uninterrupted run.
        let mut mem = crate::journal::MemJournal::default();
        let cfg = GaConfig {
            population: 12,
            generations: 6,
            stall_generations: 6,
            surrogate_budget: 4,
            ..GaConfig::default()
        };
        let full = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut mem).unwrap();

        // Cut the journal right after the second generation record, as a
        // crash would.
        let mut prefix = Vec::new();
        let mut gens = 0;
        for rec in &mem.records {
            prefix.push(rec.clone());
            if matches!(rec, JournalRecord::Generation(_)) {
                gens += 1;
                if gens == 2 {
                    break;
                }
            }
        }
        let journal = crate::journal::Journal { records: prefix };
        let resumed = resume_with(&journal, fma_count, &mut NullSink).unwrap();
        assert_eq!(full, resumed);
        assert_eq!(full.history, resumed.history);
    }

    #[test]
    fn cascade_off_leaves_journal_bytes_untouched() {
        // `fast_tier_budget: 0` must leave both results and the exact
        // journal byte stream identical to a config that predates the
        // cascade — the regression gate for the disabled path.
        let cfg = GaConfig {
            population: 10,
            generations: 6,
            stall_generations: 6,
            ..GaConfig::default()
        };
        let mut a = MemJournal::default();
        let mut b = MemJournal::default();
        let off = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut a).unwrap();
        let zero = evolve_with(
            &GaConfig {
                fast_tier_budget: 0,
                ..cfg
            },
            &menu(),
            8,
            &[],
            fma_count,
            &mut b,
        )
        .unwrap();
        assert_eq!(off, zero);
        // Byte-compare modulo the wall-clock field, the one legitimately
        // nondeterministic value in a generation record.
        let lines = |m: &MemJournal| -> Vec<String> {
            m.records
                .iter()
                .map(|r| strip_wall(&r.to_json().encode()))
                .collect()
        };
        assert_eq!(lines(&a), lines(&b));
        assert!(
            !lines(&a).iter().any(|l| l.contains("fast_tier_budget")),
            "disabled cascade must not appear in ga_start config bytes"
        );
        assert!(!a
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Cascade { .. })));
    }

    #[test]
    fn lint_repair_off_leaves_journal_bytes_untouched() {
        // `lint_repair: false` must leave both results and the exact
        // journal byte stream identical to a config that predates the
        // field — the regression gate for the disabled path.
        let cfg = GaConfig {
            population: 10,
            generations: 6,
            stall_generations: 6,
            ..GaConfig::default()
        };
        let mut a = MemJournal::default();
        let mut b = MemJournal::default();
        let off = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut a).unwrap();
        let explicit = evolve_with(
            &GaConfig {
                lint_repair: false,
                ..cfg
            },
            &menu(),
            8,
            &[],
            fma_count,
            &mut b,
        )
        .unwrap();
        assert_eq!(off, explicit);
        let lines = |m: &MemJournal| -> Vec<String> {
            m.records
                .iter()
                .map(|r| strip_wall(&r.to_json().encode()))
                .collect()
        };
        assert_eq!(lines(&a), lines(&b));
        assert!(
            !lines(&a).iter().any(|l| l.contains("lint_repair")),
            "disabled repair must not appear in ga_start config bytes"
        );
        assert!(!a
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Repair { .. })));
    }

    #[test]
    fn lint_repair_populations_lint_clean() {
        // With repair on, every journaled population — initial and
        // bred — must be free of deny-level AUD1xx findings, and each
        // generation record must be preceded by its repair marker.
        let cfg = GaConfig {
            population: 12,
            generations: 5,
            stall_generations: 5,
            lint_repair: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        evolve_with(&cfg, &menu(), 10, &[], fma_count, &mut mem).unwrap();

        let mut pending_repair: Option<usize> = None;
        let mut total_rerolls = 0u64;
        let mut generations = 0usize;
        for rec in &mem.records {
            match rec {
                JournalRecord::Repair { index, rerolls } => {
                    assert!(pending_repair.is_none(), "two repair markers in a row");
                    pending_repair = Some(*index);
                    total_rerolls += rerolls;
                }
                JournalRecord::Generation(g) => {
                    assert_eq!(
                        pending_repair.take(),
                        Some(g.index),
                        "generation {} missing its repair marker",
                        g.index
                    );
                    generations += 1;
                    for genome in &g.population {
                        assert!(
                            crate::ga::repair::offending_slots(genome).is_empty(),
                            "repaired population still lints dirty"
                        );
                    }
                }
                _ => {}
            }
        }
        assert!(generations > 0);
        assert!(
            total_rerolls > 0,
            "a random initial population should need at least one re-roll"
        );
    }

    #[test]
    fn lint_repair_is_bit_identical_across_worker_counts() {
        let base = GaConfig {
            population: 12,
            generations: 8,
            stall_generations: 8,
            lint_repair: true,
            threads: 1,
            ..GaConfig::default()
        };
        let one = evolve_with(&base, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        for threads in [2, 4] {
            let n = evolve_with(
                &GaConfig { threads, ..base },
                &menu(),
                8,
                &[],
                fma_count,
                &mut NullSink,
            )
            .unwrap();
            assert_eq!(one, n, "diverged at {threads} threads");
        }
    }

    #[test]
    fn lint_repair_kill_and_resume_is_bit_identical() {
        let cfg = GaConfig {
            population: 8,
            generations: 6,
            stall_generations: 6,
            lint_repair: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let full = evolve_with(&cfg, &menu(), 6, &[], fma_count, &mut mem).unwrap();

        // Kill right after each generation record (the repair marker
        // rides ahead of it, so every cut keeps matched pairs); resume
        // while appending to the truncated journal.
        let cuts: Vec<usize> = mem
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, JournalRecord::Generation(_)))
            .map(|(i, _)| i + 1)
            .collect();
        for cut in cuts {
            let mut partial = MemJournal {
                records: mem.records[..cut].to_vec(),
            };
            let journal = partial.as_journal();
            let resumed = resume_with(&journal, fma_count, &mut partial).unwrap();
            assert_eq!(full, resumed, "diverged when cut at record {cut}");
            assert_eq!(
                mem.records, partial.records,
                "journal shape diverged when cut at record {cut}"
            );
        }
    }

    #[test]
    fn cascade_wider_than_population_changes_results_nothing() {
        // A budget the job list never exceeds prunes nothing: same
        // GaRun, and the journal differs only by the cascade marker and
        // the config field announcing it.
        let base = GaConfig {
            population: 10,
            generations: 8,
            stall_generations: 8,
            ..GaConfig::default()
        };
        let off = evolve_with(&base, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        let on = evolve_with(
            &GaConfig {
                fast_tier_budget: base.population,
                ..base
            },
            &menu(),
            8,
            &[],
            fma_count,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(off, on);
        assert_eq!(off.evaluations, on.evaluations);
    }

    #[test]
    fn cascade_caps_full_simulations_per_generation() {
        let mut mem = MemJournal::default();
        let cfg = GaConfig {
            population: 12,
            generations: 6,
            stall_generations: 6,
            fast_tier_budget: 3,
            ..GaConfig::default()
        };
        let run = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut mem).unwrap();

        let mut saw_marker = false;
        let mut saw_deferred = false;
        let mut executed_total = 0;
        for rec in &mem.records {
            match rec {
                JournalRecord::Cascade { budget } => {
                    saw_marker = true;
                    assert_eq!(*budget, 3);
                }
                JournalRecord::Generation(g) => {
                    assert!(g.executed <= 3, "generation simulated past the budget");
                    executed_total += g.executed;
                    saw_deferred |= g.scores.contains(&f64::NEG_INFINITY);
                }
                _ => {}
            }
        }
        assert_eq!(run.evaluations, executed_total);
        assert!(saw_marker, "journal must carry the cascade marker");
        assert!(
            saw_deferred,
            "a 3-of-12 cascade budget must defer slots as -inf sentinels"
        );
    }

    #[test]
    fn cascade_is_bit_identical_across_worker_counts() {
        // Pruning happens on the calling thread before dispatch, so the
        // surviving job set — and therefore the whole run — is the same
        // for any worker count.
        let base = GaConfig {
            population: 12,
            generations: 10,
            stall_generations: 10,
            fast_tier_budget: 4,
            threads: 1,
            ..GaConfig::default()
        };
        let sequential = evolve_with(&base, &menu(), 10, &[], fma_count, &mut NullSink).unwrap();
        for threads in [2, 4] {
            let cfg = GaConfig {
                threads,
                ..base.clone()
            };
            let parallel = evolve_with(&cfg, &menu(), 10, &[], fma_count, &mut NullSink).unwrap();
            assert_eq!(sequential, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn cascade_stacks_on_surrogate_budget() {
        // Both stages active: the static budget truncates first, then
        // the fast tier narrows the survivors further. The per-
        // generation simulation count honors the tighter (cascade)
        // budget.
        let mut mem = MemJournal::default();
        let cfg = GaConfig {
            population: 12,
            generations: 6,
            stall_generations: 6,
            surrogate_budget: 8,
            fast_tier_budget: 3,
            ..GaConfig::default()
        };
        let run = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut mem).unwrap();
        let mut executed_total = 0;
        for rec in &mem.records {
            if let JournalRecord::Generation(g) = rec {
                assert!(g.executed <= 3, "cascade budget exceeded");
                executed_total += g.executed;
            }
        }
        assert_eq!(run.evaluations, executed_total);
        assert!(mem
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::SurrogateBudget { budget: 8 })));
        assert!(mem
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Cascade { budget: 3 })));
    }

    #[test]
    fn cascade_resume_replays_bit_identically() {
        // Cascade-deferred slots are journaled as -inf and never cached,
        // so a mid-run kill/resume must reconverge on the identical run.
        let mut mem = MemJournal::default();
        let cfg = GaConfig {
            population: 12,
            generations: 6,
            stall_generations: 6,
            fast_tier_budget: 4,
            ..GaConfig::default()
        };
        let full = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut mem).unwrap();

        let mut prefix = Vec::new();
        let mut gens = 0;
        for rec in &mem.records {
            prefix.push(rec.clone());
            if matches!(rec, JournalRecord::Generation(_)) {
                gens += 1;
                if gens == 2 {
                    break;
                }
            }
        }
        let journal = crate::journal::Journal { records: prefix };
        let resumed = resume_with(&journal, fma_count, &mut NullSink).unwrap();
        assert_eq!(full, resumed);
        assert_eq!(full.history, resumed.history);
    }

    #[test]
    fn cascade_never_caches_tier_estimates() {
        // The fast tier orders and defers; it must never stand in for a
        // measurement. Every fitness the run accounts for has to come
        // from an actual fitness call, and the winner's score must be
        // the true objective, not an analytic swing estimate.
        let calls = AtomicU64::new(0);
        let counted = |g: &[Gene]| {
            calls.fetch_add(1, Ordering::Relaxed);
            fma_count(g)
        };
        let cfg = GaConfig {
            population: 12,
            generations: 8,
            stall_generations: 8,
            fast_tier_budget: 3,
            ..GaConfig::default()
        };
        let run = evolve_with(&cfg, &menu(), 8, &[], counted, &mut NullSink).unwrap();
        assert_eq!(run.evaluations, calls.load(Ordering::Relaxed));
        assert_eq!(run.best_fitness, fma_count(&run.best));
    }

    #[test]
    fn generation_records_carry_analysis_summaries() {
        let mut mem = crate::journal::MemJournal::default();
        let cfg = GaConfig {
            population: 6,
            generations: 3,
            stall_generations: 3,
            ..GaConfig::default()
        };
        evolve_with(&cfg, &menu(), 6, &[], fma_count, &mut mem).unwrap();
        let gens: Vec<_> = mem
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Generation(g) => Some(g),
                _ => None,
            })
            .collect();
        assert!(!gens.is_empty());
        for g in gens {
            let a = g.analysis.expect("live runs always attach analysis");
            assert!(a.best_swing.is_finite() && a.mean_swing.is_finite());
            assert!(a.best_swing >= a.mean_swing);
        }
    }

    #[test]
    fn cache_hits_never_change_results() {
        let cached = GaConfig {
            population: 10,
            generations: 15,
            stall_generations: 15,
            ..GaConfig::default()
        };
        let uncached = GaConfig {
            cache_capacity: 0,
            ..cached.clone()
        };
        let a = evolve_with(&cached, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        let b = evolve_with(&uncached, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        // Same search outcome…
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.history, b.history);
        // …but the cached run did strictly less simulation work: the two
        // elites alone are re-scored from memo every generation.
        assert!(a.cache_hits > 0, "elites must hit the cache");
        assert!(a.evaluations < b.evaluations);
        assert_eq!(b.cache_hits, 0);
        assert_eq!(
            a.evaluations + a.cache_hits,
            b.evaluations,
            "every lookup is either a simulation or a memo hit"
        );
    }

    #[test]
    fn cache_skips_resimulation_of_elites() {
        // Count actual fitness invocations independently of the engine's
        // bookkeeping; memoization must keep them equal to `evaluations`.
        let calls = AtomicU64::new(0);
        let cfg = GaConfig {
            population: 10,
            generations: 8,
            stall_generations: 8,
            ..GaConfig::default()
        };
        let counted = |g: &[Gene]| {
            calls.fetch_add(1, Ordering::Relaxed);
            fma_count(g)
        };
        let run = evolve_with(&cfg, &menu(), 8, &[], counted, &mut NullSink).unwrap();
        let lookups = (cfg.generations as u64 + 1) * cfg.population as u64;
        assert_eq!(calls.load(Ordering::Relaxed), run.evaluations);
        assert_eq!(run.evaluations + run.cache_hits, lookups);
        assert!(
            run.evaluations < lookups,
            "elites should never be re-simulated"
        );
    }

    #[test]
    fn evaluation_accounting_is_honest() {
        let cfg = GaConfig {
            population: 10,
            generations: 5,
            stall_generations: 100,
            ..GaConfig::default()
        };
        let run = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
        // 6 generations × 10 lookups, split between real simulations and
        // memo hits; at least the 2 elites hit per post-initial generation.
        assert_eq!(run.evaluations + run.cache_hits, 10 * 6);
        assert!(run.cache_hits >= 2 * 5, "hits {}", run.cache_hits);
        // Telemetry agrees with the headline counters.
        assert_eq!(run.telemetry.evaluations(), run.evaluations);
        assert_eq!(run.telemetry.cache_hits(), run.cache_hits);
        assert_eq!(run.telemetry.gen_evaluations.len(), 6);
        assert_eq!(run.telemetry.gen_wall_s.len(), 6);
        assert!(run.telemetry.threads >= 1);
        assert!(run.telemetry.cache_hit_rate() > 0.0);
        assert!(run.telemetry.total_wall_s >= 0.0);
    }

    #[test]
    fn zero_threads_auto_detects() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn eval_cache_flushes_at_capacity() {
        let mut cache = EvalCache::new(2);
        let menu = menu();
        let mut rng = SmallRng::seed_from_u64(1);
        let genomes: Vec<Vec<Gene>> = (0..3)
            .map(|_| (0..4).map(|_| Gene::random(&menu, &mut rng)).collect())
            .collect();
        cache.insert(&genomes[0], 1.0);
        cache.insert(&genomes[1], 2.0);
        assert_eq!(cache.len(), 2);
        cache.insert(&genomes[2], 3.0); // exceeds capacity → flush
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&genomes[2]), Some(Objectives::scalar(3.0)));
        assert_eq!(cache.lookup(&genomes[0]), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut cache = EvalCache::new(0);
        let menu = menu();
        let mut rng = SmallRng::seed_from_u64(2);
        let genome: Vec<Gene> = (0..4).map(|_| Gene::random(&menu, &mut rng)).collect();
        cache.insert(&genome, 1.0);
        assert!(!cache.is_enabled());
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(&genome), None);
    }

    #[test]
    fn seeded_population_starts_ahead() {
        let perfect: Vec<Gene> = (0..8)
            .map(|i| Gene {
                opcode: Opcode::SimdFma,
                dst: i,
                src1: 8,
                src2: 9,
                miss: false,
            })
            .collect();
        let cfg = GaConfig {
            population: 10,
            generations: 0,
            ..GaConfig::default()
        };
        let run = evolve_with(&cfg, &menu(), 8, &[perfect], fma_count, &mut NullSink).unwrap();
        assert_eq!(run.best_fitness, 8.0);
        assert_eq!(run.generations_run, 0);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_rejected() {
        let cfg = GaConfig {
            population: 1,
            ..GaConfig::default()
        };
        let _ = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut NullSink).unwrap();
    }

    #[test]
    fn validate_rejects_bad_configs_without_panicking() {
        let bad = [
            GaConfig {
                population: 1,
                ..GaConfig::default()
            },
            GaConfig {
                tournament: 0,
                ..GaConfig::default()
            },
            GaConfig {
                crossover_rate: 1.5,
                ..GaConfig::default()
            },
            GaConfig {
                mutation_rate: f64::NAN,
                ..GaConfig::default()
            },
            GaConfig {
                elitism: 24,
                ..GaConfig::default()
            },
        ];
        for cfg in &bad {
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, AuditError::InvalidConfig { .. }), "{err}");
            let run = evolve_with(cfg, &menu(), 8, &[], fma_count, &mut NullSink);
            assert!(run.is_err());
        }
        assert!(GaConfig::default().validate().is_ok());
    }

    #[test]
    fn try_evolve_rejects_degenerate_searches() {
        let cfg = GaConfig::default();
        let err = evolve_with(&cfg, &[], 8, &[], fma_count, &mut NullSink).unwrap_err();
        assert!(err.to_string().contains("menu"), "{err}");
        let err = evolve_with(&cfg, &menu(), 0, &[], fma_count, &mut NullSink).unwrap_err();
        assert!(err.to_string().contains("genome"), "{err}");
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|g| stream_seed(0xA0D17, g)).collect();
        let unique: HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len(), "stream collision");
        // Pinned: resume depends on this derivation never changing.
        assert_eq!(stream_seed(0, 0), stream_seed(0, 0));
        assert_ne!(stream_seed(0, 0), stream_seed(0, 1));
        assert_ne!(stream_seed(0, 0), stream_seed(1, 0));
    }

    #[test]
    fn journaled_run_matches_plain_run() {
        let cfg = GaConfig {
            population: 8,
            generations: 6,
            stall_generations: 6,
            ..GaConfig::default()
        };
        let plain = evolve_with(&cfg, &menu(), 6, &[], fma_count, &mut NullSink).unwrap();
        let mut mem = MemJournal::default();
        let journaled = evolve_with(&cfg, &menu(), 6, &[], fma_count, &mut mem).unwrap();
        assert_eq!(plain, journaled);
        // ga_start + one record per generation (incl. gen 0) + ga_end.
        assert_eq!(
            mem.records.len(),
            1 + (journaled.generations_run + 1) + 1,
            "unexpected journal shape"
        );
        let JournalRecord::GaStart { cfg: jcfg, .. } = &mem.records[0] else {
            panic!("first record must be ga_start");
        };
        assert_eq!(jcfg, &cfg);
        assert!(matches!(mem.records.last(), Some(JournalRecord::GaEnd)));
    }

    #[test]
    fn kill_and_resume_is_bit_identical_at_every_cut() {
        let cfg = GaConfig {
            population: 8,
            generations: 8,
            stall_generations: 8,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let full = evolve_with(&cfg, &menu(), 6, &[], fma_count, &mut mem).unwrap();
        let gens = full.generations_run + 1;

        for cut in 1..=gens {
            // Simulate a kill after `cut` generation records: keep the
            // ga_start plus the first `cut` generations.
            let truncated = MemJournal {
                records: mem.records[..1 + cut].to_vec(),
            };
            let resumed = resume_with(&truncated.as_journal(), fma_count, &mut NullSink).unwrap();
            assert_eq!(full, resumed, "diverged when cut after {cut} records");
        }
    }

    #[test]
    fn resume_reproduces_cache_flush_timing() {
        // A cache small enough to flush mid-run: resume must reproduce
        // the flush schedule exactly or counters (and potentially
        // results) drift.
        let cfg = GaConfig {
            population: 10,
            generations: 10,
            stall_generations: 10,
            cache_capacity: 12,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let full = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut mem).unwrap();
        let cut = 1 + full.generations_run.div_ceil(2);
        let truncated = MemJournal {
            records: mem.records[..cut].to_vec(),
        };
        let resumed = resume_with(&truncated.as_journal(), fma_count, &mut NullSink).unwrap();
        assert_eq!(full, resumed);
        assert_eq!(full.cache_hits, resumed.cache_hits);
        assert_eq!(full.evaluations, resumed.evaluations);
    }

    #[test]
    fn resume_continues_journaling_to_the_same_shape() {
        let cfg = GaConfig {
            population: 8,
            generations: 5,
            stall_generations: 5,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let full = evolve_with(&cfg, &menu(), 6, &[], fma_count, &mut mem).unwrap();

        // Kill after two generation records; resume while appending to
        // the truncated journal. The rebuilt journal must equal the
        // uninterrupted one record-for-record.
        let mut partial = MemJournal {
            records: mem.records[..3].to_vec(),
        };
        let journal = partial.as_journal();
        let resumed = resume_with(&journal, fma_count, &mut partial).unwrap();
        assert_eq!(full, resumed);
        assert_eq!(mem.records, partial.records);
    }

    #[test]
    fn resume_of_a_complete_section_appends_nothing() {
        let cfg = GaConfig {
            population: 6,
            generations: 3,
            stall_generations: 3,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let full = evolve_with(&cfg, &menu(), 4, &[], fma_count, &mut mem).unwrap();
        let before = mem.records.len();
        let journal = mem.as_journal();
        let resumed = resume_with(&journal, fma_count, &mut mem).unwrap();
        assert_eq!(full, resumed);
        assert_eq!(mem.records.len(), before, "complete section re-appended");
    }

    #[test]
    fn resume_rejects_foreign_journals() {
        let cfg = GaConfig {
            population: 6,
            generations: 2,
            stall_generations: 2,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        evolve_with(&cfg, &menu(), 4, &[], fma_count, &mut mem).unwrap();

        // Tamper with the recorded seed: stream seeds no longer match.
        let mut records = mem.records.clone();
        if let JournalRecord::GaStart { cfg, .. } = &mut records[0] {
            cfg.seed ^= 1;
        }
        let tampered = MemJournal { records };
        let err = resume_with(&tampered.as_journal(), fma_count, &mut NullSink).unwrap_err();
        assert!(matches!(err, AuditError::Resume { .. }), "{err}");

        // And an empty journal has nothing to resume.
        let empty = MemJournal::default();
        let err = resume_with(&empty.as_journal(), fma_count, &mut NullSink).unwrap_err();
        assert!(err.to_string().contains("no GA section"), "{err}");
    }

    /// A synthetic two-axis objective with a genuine trade-off: FMA
    /// slots and IAdd slots compete for the same genome positions, so no
    /// single genome maximizes both.
    fn mo_fitness(g: &[Gene]) -> Objectives {
        let iadd = g.iter().filter(|x| x.opcode == Opcode::IAdd).count() as f64;
        Objectives(vec![fma_count(g), iadd])
    }

    #[test]
    fn pareto_off_leaves_journal_bytes_untouched() {
        // `pareto: false` must leave both results and the exact journal
        // byte stream identical to a config that predates the field —
        // the regression gate for the disabled path.
        let cfg = GaConfig {
            population: 10,
            generations: 6,
            stall_generations: 6,
            ..GaConfig::default()
        };
        let mut a = MemJournal::default();
        let mut b = MemJournal::default();
        let legacy = evolve_with(&cfg, &menu(), 8, &[], fma_count, &mut a).unwrap();
        let explicit = evolve_with(
            &GaConfig {
                pareto: false,
                ..cfg
            },
            &menu(),
            8,
            &[],
            fma_count,
            &mut b,
        )
        .unwrap();
        assert_eq!(legacy, explicit);
        assert!(legacy.pareto_front.is_none());
        let lines = |m: &MemJournal| -> Vec<String> {
            m.records
                .iter()
                .map(|r| strip_wall(&r.to_json().encode()))
                .collect()
        };
        assert_eq!(lines(&a), lines(&b));
        assert!(
            !lines(&a).iter().any(|l| l.contains("pareto")),
            "disabled pareto must not appear in journal bytes"
        );
        assert!(!a
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::ParetoFront(_))));
    }

    #[test]
    fn pareto_is_bit_identical_across_worker_counts() {
        let base = GaConfig {
            population: 12,
            generations: 10,
            stall_generations: 10,
            pareto: true,
            ..GaConfig::default()
        };
        let mut sequential_dispatcher = LocalDispatcher::new(mo_fitness, 1);
        let sequential = evolve(
            &base,
            &menu(),
            10,
            &[],
            &mut sequential_dispatcher,
            &mut NullSink,
        )
        .unwrap();
        let front = sequential
            .pareto_front
            .as_ref()
            .expect("pareto runs report a front");
        assert!(!front.is_empty());
        for m in front {
            assert_eq!(m.objectives.len(), 2);
            assert_eq!(m.objectives, mo_fitness(&m.genome));
        }
        // Front members are mutually non-dominated.
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(!a.objectives.dominates(&b.objectives));
                }
            }
        }
        for threads in [2, 4, 7] {
            let mut dispatcher = LocalDispatcher::new(mo_fitness, threads);
            let parallel = evolve(&base, &menu(), 10, &[], &mut dispatcher, &mut NullSink).unwrap();
            assert_eq!(sequential, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn pareto_front_records_precede_their_generations() {
        let cfg = GaConfig {
            population: 8,
            generations: 5,
            stall_generations: 5,
            pareto: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let mut dispatcher = LocalDispatcher::new(mo_fitness, 1);
        let run = evolve(&cfg, &menu(), 6, &[], &mut dispatcher, &mut mem).unwrap();
        let mut pending_front: Option<&ParetoFrontRecord> = None;
        let mut generations = 0usize;
        for rec in &mem.records {
            match rec {
                JournalRecord::ParetoFront(f) => {
                    assert!(pending_front.is_none(), "two fronts without a generation");
                    assert_eq!(f.objectives.len(), cfg.population);
                    assert_eq!(f.ranks.len(), cfg.population);
                    assert!(f.ranks.contains(&0), "every generation has a rank-0 front");
                    pending_front = Some(f);
                }
                JournalRecord::Generation(g) => {
                    let f = pending_front.take().expect("generation without its front");
                    assert_eq!(f.index, g.index);
                    for (objectives, &score) in f.objectives.iter().zip(&g.scores) {
                        assert_eq!(objectives.primary(), score);
                    }
                    generations += 1;
                }
                _ => {}
            }
        }
        assert!(pending_front.is_none());
        assert_eq!(generations, run.generations_run + 1);
    }

    #[test]
    fn pareto_kill_and_resume_is_bit_identical_at_every_cut() {
        // Cut after *every* record — including between a pareto_front
        // and its generation, where the orphan front must be ignored.
        let cfg = GaConfig {
            population: 8,
            generations: 6,
            stall_generations: 6,
            pareto: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let mut dispatcher = LocalDispatcher::new(mo_fitness, 2);
        let full = evolve(&cfg, &menu(), 6, &[], &mut dispatcher, &mut mem).unwrap();
        for cut in 1..mem.records.len() {
            let truncated = MemJournal {
                records: mem.records[..cut].to_vec(),
            };
            let mut dispatcher = LocalDispatcher::new(mo_fitness, 2);
            let resumed =
                GaRun::resume(&truncated.as_journal(), &mut dispatcher, &mut NullSink).unwrap();
            assert_eq!(full, resumed, "diverged when cut after {cut} records");
        }
    }

    #[test]
    fn pareto_resume_rejects_scalar_closures() {
        let cfg = GaConfig {
            population: 6,
            generations: 3,
            stall_generations: 3,
            pareto: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        let mut dispatcher = LocalDispatcher::new(mo_fitness, 1);
        evolve(&cfg, &menu(), 4, &[], &mut dispatcher, &mut mem).unwrap();
        let err = resume_with(&mem.as_journal(), fma_count, &mut NullSink).unwrap_err();
        assert!(err.to_string().contains("1-axis vectors"), "{err}");
    }
}
