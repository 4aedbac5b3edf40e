//! §3.C (text): hierarchical sub-blocking ablation.
//!
//! The paper: "we compared the hierarchical AUDIT implementation to that
//! proposed in \[13\] and found sub-blocking provided faster convergence as
//! well as better results — 19% higher droop in less than five hours
//! compared to a 30-hour run without hierarchical generation."
//!
//! Here: the same GA budget is spent evolving (a) a K-cycle sub-block
//! replicated S times (hierarchical) vs (b) one flat genome covering the
//! whole HP region (the search space is `menu^(S·K·W)` instead of
//! `menu^(K·W)`). Hierarchical search should converge faster and end
//! higher.

use audit_bench::{banner, emit, fast_mode, rig};
use audit_core::ga::{self, CostFunction, GaConfig, Gene, LocalDispatcher};
use audit_core::journal::NullSink;
use audit_core::report::{mv, Table};
use audit_core::{resonance, MeasureSpec};
use audit_stressmark::Kernel;

fn main() {
    banner("§3.C", "hierarchical sub-blocking vs flat GA");
    let rig = rig();
    let threads = 4;
    let spec = MeasureSpec::ga_eval();

    let res = resonance::find_resonance(&rig, threads, resonance::default_periods(), spec);
    let period = res.period_cycles;
    let width = rig.chip.core.fetch_width as usize;
    let half_cycles = (period / 2) as usize;
    let k_cycles = 6usize;
    let s = (half_cycles / k_cycles).max(1);
    let lp_slots = half_cycles * width;
    println!("resonant period {period} cycles; HP region = {s} sub-blocks × {k_cycles} cycles\n");

    let cfg = GaConfig {
        population: if fast_mode() { 8 } else { 20 },
        generations: if fast_mode() { 6 } else { 24 },
        stall_generations: 100, // equal budget: disable early exit
        ..GaConfig::default()
    };
    let menu = audit_cpu::Opcode::stress_menu();
    let cost = CostFunction::MaxDroop;

    let fitness_for = |sub_blocks: usize| {
        let rig = rig.clone();
        move |genome: &[Gene]| {
            let kernel = Kernel::from_sub_blocks(
                "cand",
                &ga::genome::to_sub_block(genome),
                sub_blocks,
                lp_slots,
            );
            cost.score(&rig.measure_aligned(&vec![kernel.to_program(); threads], spec))
        }
    };

    eprintln!(
        "running hierarchical GA (genome {} slots)…",
        k_cycles * width
    );
    let mut hier_fitness = LocalDispatcher::new(fitness_for(s), cfg.threads);
    let hier = ga::evolve(
        &cfg,
        &menu,
        k_cycles * width,
        &[],
        &mut hier_fitness,
        &mut NullSink,
    )
    .expect("hierarchical GA run");
    eprintln!("running flat GA (genome {} slots)…", half_cycles * width);
    let mut flat_fitness = LocalDispatcher::new(fitness_for(1), cfg.threads);
    let flat = ga::evolve(
        &cfg,
        &menu,
        half_cycles * width,
        &[],
        &mut flat_fitness,
        &mut NullSink,
    )
    .expect("flat GA run");

    let mut t = Table::new(vec!["generation", "hierarchical best", "flat best"]);
    let gens = hier.history.len().max(flat.history.len());
    for g in 0..gens {
        let h = hier.history.get(g).copied().unwrap_or(hier.best_fitness);
        let f = flat.history.get(g).copied().unwrap_or(flat.best_fitness);
        t.row(vec![g.to_string(), mv(h), mv(f)]);
    }
    emit(&t);

    println!(
        "final droop: hierarchical {} vs flat {} ({:+.0}%)",
        mv(hier.best_fitness),
        mv(flat.best_fitness),
        100.0 * (hier.best_fitness / flat.best_fitness - 1.0)
    );
    println!(
        "lookups (equal budget): hierarchical {} / flat {}; simulations actually \
         run: {} / {} (rest served by the fitness cache)",
        hier.evaluations + hier.cache_hits,
        flat.evaluations + flat.cache_hits,
        hier.evaluations,
        flat.evaluations
    );
    println!("expected shape (paper §3.C): hierarchical converges faster and ends");
    println!("higher — the paper measured 19% higher droop in 6× less time.");
}
