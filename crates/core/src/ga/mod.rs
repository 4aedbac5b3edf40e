//! The genetic search at the heart of AUDIT (paper §3, Fig. 5).
//!
//! A candidate stressmark is a *genome*: the instruction slots of one
//! high-power sub-block (hierarchical generation, §3.C — the sub-block is
//! replicated `S` times to form the HP region, and the LP region is
//! NOPs). The engine evolves a population of genomes against a fitness
//! supplied by the measurement harness, with tournament selection,
//! single-point crossover, per-slot mutation, elitism, and the paper's
//! exit condition (no improvement for several generations).
//!
//! Fitness evaluation — the expensive chip + PDN co-simulation — runs
//! across worker threads with genome-level memoization, while staying
//! bit-identical to a sequential run; see [`engine`] for the
//! determinism contract.

pub mod cost;
pub mod engine;
pub mod genome;
pub mod pareto;
pub mod repair;
pub mod study;

pub use cost::CostFunction;
pub use engine::{
    evolve, stream_seed, EvalCache, EvalDispatcher, GaConfig, GaRun, GaTelemetry,
    LocalDispatcher, Scored,
};
pub use genome::{from_program, to_sub_block, Gene};
pub use repair::{offending_slots, repair_genome, repair_lint_config, REPAIR_MAX_ATTEMPTS};
pub use pareto::{
    crowding_distance, non_dominated_sort, rank_population, FrontMember, Objective, ObjectiveSet,
    Objectives, PopulationRanking,
};
pub use study::{resume_study, run_study, StudySummary};
