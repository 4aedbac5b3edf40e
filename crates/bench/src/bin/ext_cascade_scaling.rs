//! Extension experiment: evaluation-cascade throughput.
//!
//! The tiered cascade (docs/SIMULATION.md) lets the GA consider a full
//! population per generation while paying for only `fast_tier_budget`
//! full simulations — the in-order scoreboard tier prunes the rest in
//! O(insts). This binary pins that claim on a fixed full-simulation
//! budget: the full-sim-only baseline spends its budget on G
//! generations of the whole population; the cascade spends the same
//! nominal budget on 4·G generations at population/4 full sims each,
//! considering four times the candidates. Asserted, and enforced by
//! `scripts/check.sh` so the win stays pinned, not anecdotal:
//!
//! 1. the cascade considers candidates at ≥ 2x the full-sim-only rate
//!    (measured ~3x: the ratio is dominated by deterministic
//!    simulation counts, so machine load largely cancels),
//! 2. on this pinned study the cascade's final fitness is at least the
//!    baseline's — pruning by the tier-1 rank trades per-generation
//!    completeness for breadth of search at equal cost (both runs are
//!    seeded and deterministic, so the comparison is a property of the
//!    build, not a lucky draw), and
//! 3. the cascade run is bit-identical across GA thread counts — the
//!    "identical winning genome" contract holds where it is required:
//!    across threads, workers, and resume, never between different
//!    search schedules.
//!
//! Results land in `BENCH_cascade.json` next to the table, so CI can
//! archive the numbers alongside the pass/fail.

use std::time::Instant;

use audit_bench::{banner, emit, fast_mode};
use audit_core::ga::{self, CostFunction, GaConfig, GaRun, Gene, LocalDispatcher, ObjectiveSet};
use audit_core::harness::Rig;
use audit_core::journal::NullSink;
use audit_core::report::Table;
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec};
use audit_cpu::Opcode;

const GENOME_LEN: usize = 12;

fn main() {
    banner("extension", "tiered-cascade throughput vs full-sim-only");

    let spec = FitnessSpec {
        threads: 2,
        sub_blocks: 4,
        lp_slots: 8,
        cost: CostFunction::MaxDroop,
        spec: MeasureSpec::ga_eval(),
        policy: MeasurePolicy::disabled(),
        objectives: ObjectiveSet::default(),
    };
    let base = GaConfig {
        population: if fast_mode() { 8 } else { 16 },
        generations: if fast_mode() { 4 } else { 10 },
        stall_generations: 100,
        seed: 8,
        threads: 1,
        ..GaConfig::default()
    };
    let budget = base.population / 4;
    let rig = Rig::bulldozer();

    let (full, full_wall) = study(&base, &spec, &rig);
    // Same nominal full-simulation budget: a quarter of the population
    // per generation, four times the generations.
    let cascade_cfg = GaConfig {
        fast_tier_budget: budget,
        generations: base.generations * 4,
        ..base.clone()
    };
    let (cascade, cascade_wall) = study(&cascade_cfg, &spec, &rig);

    // Throughput is candidates *considered* per second: the cascade's
    // point is that every genome in the population still competes each
    // generation — the tier scores the ones that never reach the full
    // simulator.
    let considered = |run: &GaRun| (base.population * run.history.len()) as f64;
    let full_rate = considered(&full) / full_wall.max(1e-9);
    let cascade_rate = considered(&cascade) / cascade_wall.max(1e-9);
    let speedup = cascade_rate / full_rate.max(1e-9);

    let mut t = Table::new(vec![
        "config",
        "gens",
        "wall s",
        "full sims",
        "cand/s",
        "best droop",
    ]);
    for (name, run, wall, rate) in [
        ("full-sim-only", &full, full_wall, full_rate),
        ("cascade p/4", &cascade, cascade_wall, cascade_rate),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{}", run.generations_run),
            format!("{wall:.2}"),
            format!("{}", run.evaluations),
            format!("{rate:.0}"),
            format!("{:.4}", run.best_fitness),
        ]);
    }
    emit(&t);

    let json = format!(
        concat!(
            "{{\"population\":{},\"budget\":{},",
            "\"full\":{{\"generations\":{},\"wall_s\":{:.6},\"full_sims\":{},",
            "\"candidates_per_s\":{:.1},\"best_fitness\":{}}},",
            "\"cascade\":{{\"generations\":{},\"wall_s\":{:.6},\"full_sims\":{},",
            "\"candidates_per_s\":{:.1},\"best_fitness\":{}}},",
            "\"speedup\":{:.3}}}\n"
        ),
        base.population,
        budget,
        full.generations_run,
        full_wall,
        full.evaluations,
        full_rate,
        full.best_fitness,
        cascade.generations_run,
        cascade_wall,
        cascade.evaluations,
        cascade_rate,
        cascade.best_fitness,
        speedup,
    );
    std::fs::write("BENCH_cascade.json", &json).expect("write BENCH_cascade.json");
    println!("wrote BENCH_cascade.json");

    assert!(
        cascade.best_fitness >= full.best_fitness,
        "cascade final droop {:.5} fell below the full-sim-only baseline {:.5} \
         on the pinned study",
        cascade.best_fitness,
        full.best_fitness
    );
    assert!(
        speedup >= 2.0,
        "cascade throughput {speedup:.2}x below the 2x floor"
    );

    // Determinism: the pruning decision is a pure function of
    // (population, config), so GA thread count must not matter.
    let threaded_cfg = GaConfig {
        threads: 2,
        ..cascade_cfg
    };
    let (threaded, _) = study(&threaded_cfg, &spec, &rig);
    assert_eq!(
        cascade, threaded,
        "cascade run diverged at 2 GA threads — determinism contract broken"
    );

    println!(
        "\ncascade considered candidates {speedup:.2}x faster at equal-or-better \
         final droop, bit-identical across thread counts"
    );
}

fn study(cfg: &GaConfig, spec: &FitnessSpec, rig: &Rig) -> (GaRun, f64) {
    let seeds = vec![ga::from_program(
        &audit_stressmark::manual::sm_res(),
        GENOME_LEN,
    )];
    let t0 = Instant::now();
    let fitness = |g: &[Gene]| spec.evaluate_objectives(rig, g);
    let mut local = LocalDispatcher::new(fitness, cfg.threads);
    let run = ga::evolve(
        cfg,
        &Opcode::stress_menu(),
        GENOME_LEN,
        &seeds,
        &mut local,
        &mut NullSink,
    )
    .expect("GA run");
    (run, t0.elapsed().as_secs_f64())
}
