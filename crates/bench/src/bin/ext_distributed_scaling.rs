//! Extension experiment: distributed fitness-evaluation scaling.
//!
//! The paper's GA runs took "less than five hours" on one machine. The
//! `audit-net` broker/worker subsystem shards fitness evaluation across
//! processes while guaranteeing a bit-identical result. This binary
//! measures what that buys: the same resonant search dispatched to 1,
//! 2, and 4 loopback workers, reporting wall time and speedup — and
//! asserting that every worker count produced the same `GaRun`.
//!
//! Workers here are in-process threads speaking the real wire protocol
//! over loopback TCP, so the numbers include framing and scheduling
//! overhead but not machine-to-machine latency.

use std::time::Instant;

use audit_bench::{banner, emit, fast_mode};
use audit_core::ga::{self, CostFunction, GaConfig, GaRun, ObjectiveSet};
use audit_core::report::Table;
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec, MemJournal};
use audit_cpu::Opcode;
use audit_net::{run_worker, Broker, BrokerConfig, EvalContext, WorkerOptions};

const GENOME_LEN: usize = 12;

fn main() {
    banner("extension", "distributed evaluation scaling over loopback");

    let spec = FitnessSpec {
        threads: 2,
        sub_blocks: 4,
        lp_slots: 8,
        cost: CostFunction::MaxDroop,
        spec: MeasureSpec::ga_eval(),
        policy: MeasurePolicy::disabled(),
        objectives: ObjectiveSet::default(),
    };
    let cfg = GaConfig {
        population: if fast_mode() { 8 } else { 16 },
        generations: if fast_mode() { 4 } else { 10 },
        stall_generations: 100,
        seed: 7,
        ..GaConfig::default()
    };

    let mut t = Table::new(vec!["workers", "wall s", "evals", "evals/s", "speedup"]);
    let mut reference: Option<(GaRun, MemJournal, f64)> = None;
    for workers in [1usize, 2, 4] {
        let t0 = Instant::now();
        let (run, journal) = distributed_run(&spec, &cfg, workers);
        let wall = t0.elapsed().as_secs_f64();
        let baseline = reference.as_ref().map(|(_, _, w)| *w).unwrap_or(wall);
        t.row(vec![
            format!("{workers}"),
            format!("{wall:.2}"),
            format!("{}", run.evaluations),
            format!("{:.0}", run.evaluations as f64 / wall.max(1e-9)),
            format!("{:.2}x", baseline / wall.max(1e-9)),
        ]);
        match &reference {
            None => reference = Some((run, journal, wall)),
            Some((base_run, base_journal, _)) => {
                assert_eq!(
                    base_run, &run,
                    "GaRun diverged at {workers} workers — determinism contract broken"
                );
                assert_eq!(
                    base_journal.records, journal.records,
                    "journal diverged at {workers} workers"
                );
            }
        }
    }
    emit(&t);
    println!("\nall worker counts produced bit-identical runs and journals");
}

fn distributed_run(spec: &FitnessSpec, cfg: &GaConfig, workers: usize) -> (GaRun, MemJournal) {
    let ctx = EvalContext {
        chip: "bulldozer".into(),
        volts: None,
        throttle: None,
        spec: *spec,
        fast_tier_budget: 0,
    };
    let mut broker = Broker::bind(
        "127.0.0.1:0",
        &ctx,
        BrokerConfig {
            seed: cfg.seed,
            window: 2,
            ..BrokerConfig::default()
        },
    )
    .expect("bind loopback broker");
    let addr = broker.addr().to_string();
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()))
        })
        .collect();
    broker.wait_for_workers(workers).expect("workers join");
    let mut mem = MemJournal::default();
    let run = ga::evolve(
        cfg,
        &Opcode::stress_menu(),
        GENOME_LEN,
        &[],
        &mut broker,
        &mut mem,
    )
    .expect("distributed GA run");
    broker.shutdown();
    for h in handles {
        h.join().expect("worker thread").expect("worker exits cleanly");
    }
    (run, mem)
}
