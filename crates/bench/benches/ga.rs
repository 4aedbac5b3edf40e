//! Criterion benchmarks for the AUDIT search machinery: one full
//! fitness evaluation (the unit of GA cost) and a complete miniature
//! generation loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use audit_core::ga::{self, CostFunction, GaConfig, Gene, LocalDispatcher};
use audit_core::harness::{MeasureSpec, Rig};
use audit_core::journal::NullSink;
use audit_core::resonance;
use audit_cpu::Opcode;
use audit_stressmark::{manual, Kernel};

fn bench_fitness_eval(c: &mut Criterion) {
    let rig = Rig::bulldozer();
    let spec = MeasureSpec::ga_eval();
    let program = manual::sm_res();
    c.bench_function("ga/fitness_eval_4t", |b| {
        b.iter(|| {
            let m = rig.measure_aligned(&vec![program.clone(); 4], spec);
            black_box(m.max_droop())
        });
    });
}

fn bench_mini_ga(c: &mut Criterion) {
    let rig = Rig::bulldozer();
    let spec = MeasureSpec {
        record_cycles: 2_000,
        settle_cycles: 50_000,
        ..MeasureSpec::ga_eval()
    };
    let menu = Opcode::stress_menu();
    let cost = CostFunction::MaxDroop;
    c.bench_function("ga/mini_generation_pop6x2", |b| {
        b.iter(|| {
            let cfg = GaConfig {
                population: 6,
                generations: 2,
                stall_generations: 10,
                threads: 1,
                ..GaConfig::default()
            };
            let fitness = |genome: &[Gene]| {
                let kernel =
                    Kernel::from_sub_blocks("cand", &ga::genome::to_sub_block(genome), 2, 60);
                cost.score(&rig.measure_aligned(&vec![kernel.to_program(); 2], spec))
            };
            let mut local = LocalDispatcher::new(fitness, cfg.threads);
            let run = ga::evolve(&cfg, &menu, 24, &[], &mut local, &mut NullSink).unwrap();
            black_box(run.best_fitness)
        });
    });
}

/// Sequential vs parallel evaluation of the same search — the wall-time
/// side of the determinism contract (results are bit-identical; only
/// throughput may differ).
fn bench_parallel_eval(c: &mut Criterion) {
    let rig = Rig::bulldozer();
    let spec = MeasureSpec {
        record_cycles: 2_000,
        settle_cycles: 50_000,
        ..MeasureSpec::ga_eval()
    };
    let menu = Opcode::stress_menu();
    let cost = CostFunction::MaxDroop;
    let base = GaConfig {
        population: 8,
        generations: 2,
        stall_generations: 10,
        cache_capacity: 0, // measure raw evaluation, not memoization
        ..GaConfig::default()
    };
    for (id, threads) in [("ga/eval_sequential", 1usize), ("ga/eval_parallel", 0)] {
        let cfg = GaConfig {
            threads,
            ..base.clone()
        };
        c.bench_function(id, |b| {
            b.iter(|| {
                let fitness = |genome: &[Gene]| {
                    let kernel =
                        Kernel::from_sub_blocks("cand", &ga::genome::to_sub_block(genome), 2, 60);
                    cost.score(&rig.measure_aligned(&vec![kernel.to_program(); 2], spec))
                };
                let mut local = LocalDispatcher::new(fitness, cfg.threads);
                let run = ga::evolve(&cfg, &menu, 24, &[], &mut local, &mut NullSink).unwrap();
                black_box(run.best_fitness)
            });
        });
    }
}

fn bench_resonance_probe(c: &mut Criterion) {
    let rig = Rig::bulldozer();
    c.bench_function("ga/resonance_probe_3_periods", |b| {
        b.iter(|| {
            let r = resonance::find_resonance(&rig, 2, [20, 30, 40], MeasureSpec::ga_eval());
            black_box(r.period_cycles)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fitness_eval, bench_mini_ga, bench_parallel_eval, bench_resonance_probe
}
criterion_main!(benches);
