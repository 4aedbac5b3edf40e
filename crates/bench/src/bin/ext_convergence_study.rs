//! Extension experiment: GA convergence statistics across seeds.
//!
//! The paper reports single runs ("less than five hours"). For a tool
//! meant to replace a week of expert effort, seed-robustness matters: a
//! framework that only sometimes finds a strong stressmark is not a
//! replacement. This binary runs the resonant generation under several
//! seeds and reports the distribution of outcomes.

use audit_bench::{banner, emit, fast_mode, rig};
use audit_core::ga::{self, CostFunction, GaConfig, Gene};
use audit_core::journal::NullSink;
use audit_core::report::{mv, Table};
use audit_core::{resonance, MeasureSpec};
use audit_stressmark::{manual, Kernel};

fn main() {
    banner("extension", "GA convergence across seeds");
    let rig = rig();
    let threads = if fast_mode() { 2 } else { 4 };
    let spec = MeasureSpec::ga_eval();

    let res = resonance::find_resonance(&rig, threads, resonance::default_periods(), spec);
    let period = res.period_cycles;
    let width = rig.chip.core.fetch_width as usize;
    let k_cycles = 6usize;
    let s = ((period as f64 / 2.0 / k_cycles as f64).round() as usize).max(1);
    let lp_slots = (period as usize - s * k_cycles) * width;
    println!("resonance {period} cycles; {s} sub-blocks × {k_cycles} cycles\n");

    let cfg = GaConfig {
        population: if fast_mode() { 8 } else { 20 },
        generations: if fast_mode() { 5 } else { 24 },
        stall_generations: 100,
        ..GaConfig::default()
    };
    let seeds: Vec<u64> = if fast_mode() {
        vec![1, 2]
    } else {
        vec![1, 2, 3, 4, 5, 6]
    };
    let cost = CostFunction::MaxDroop;
    let fitness = |genome: &[Gene]| {
        let kernel =
            Kernel::from_sub_blocks("cand", &ga::genome::to_sub_block(genome), s, lp_slots);
        cost.score(&rig.measure_aligned(&vec![kernel.to_program(); threads], spec))
    };

    eprintln!("running {} seeds…", seeds.len());
    let study = ga::run_study(
        &cfg,
        &audit_cpu::Opcode::stress_menu(),
        k_cycles * width,
        &seeds,
        &[],
        fitness,
        &mut NullSink,
    )
    .expect("convergence study");

    let mut t = Table::new(vec![
        "seed",
        "best droop",
        "generations",
        "simulations",
        "cache hits",
    ]);
    for i in 0..study.seeds.len() {
        t.row(vec![
            study.seeds[i].to_string(),
            mv(study.best[i]),
            study.generations[i].to_string(),
            study.evaluations[i].to_string(),
            study.cache_hits[i].to_string(),
        ]);
    }
    emit(&t);

    let sm_res = rig
        .measure_aligned(&vec![manual::sm_res(); threads], spec)
        .max_droop();
    println!(
        "mean {} ± {}  (cv {:.1}%),  floor {}",
        mv(study.mean_best()),
        mv(study.std_best()),
        study.cv() * 100.0,
        mv(study.min_best())
    );
    println!("hand-tuned SM-Res reference: {}", mv(sm_res));
    println!();
    println!("expected shape: low seed-to-seed variation, with even the worst seed");
    println!("comparable to the week-of-effort hand stressmark — the automation");
    println!("claim holds statistically, not just anecdotally.");
}
