//! End-to-end fleet tests over loopback.
//!
//! The invariant under test is the crate's reason to exist: every
//! campaign a multi-tenant fleet runs is *bit-identical* to its solo
//! in-process run — same `GaRun`, same journal records, same
//! resilience accounting — regardless of co-tenants, worker count,
//! worker deaths, network chaos, or manager restarts (WAL prefill).

use std::time::Duration;

use audit_core::ga::{
    self, CostFunction, EvalDispatcher, GaConfig, GaRun, Gene, LocalDispatcher, ObjectiveSet,
};
use audit_core::resilient::genome_key;
use audit_core::{FitnessSpec, MeasurePolicy, MeasureSpec, MemJournal, ResilienceReport, Rig};
use audit_cpu::isa::Opcode;
use audit_fleet::{CampaignSpec, Fleet, FleetConfig};
use audit_net::{run_worker, EvalContext, NetFaultPlan, WorkerOptions};

const GENOME_LEN: usize = 10;

fn fspec(policy: MeasurePolicy) -> FitnessSpec {
    FitnessSpec {
        threads: 1,
        sub_blocks: 2,
        lp_slots: 2,
        cost: CostFunction::MaxDroop,
        spec: MeasureSpec::ga_eval(),
        policy,
        objectives: ObjectiveSet::default(),
    }
}

fn ga_cfg(seed: u64) -> GaConfig {
    GaConfig {
        population: 8,
        generations: 4,
        stall_generations: 4,
        seed,
        ..GaConfig::default()
    }
}

fn ctx(spec: FitnessSpec) -> EvalContext {
    EvalContext {
        chip: "bulldozer".into(),
        volts: None,
        throttle: None,
        spec,
        fast_tier_budget: 0,
    }
}

/// The in-process reference run, with the resilience deltas the local
/// dispatcher folds (as `Audit::evolve_dispatched` reports them).
fn local_run(spec: FitnessSpec, cfg: &GaConfig) -> (GaRun, MemJournal, ResilienceReport) {
    let rig = Rig::bulldozer();
    let fitness = |genome: &[Gene]| spec.evaluate_objectives(&rig, genome);
    let mut local = LocalDispatcher::new(fitness, cfg.threads);
    let mut mem = MemJournal::default();
    let run = ga::evolve(
        cfg,
        &Opcode::stress_menu(),
        GENOME_LEN,
        &[],
        &mut local,
        &mut mem,
    )
    .unwrap();
    (run, mem, local.resilience())
}

/// Runs every listed campaign *concurrently* on one fleet sharing
/// `worker_opts.len()` workers, returning each campaign's outcome in
/// submission order.
fn fleet_run(
    tenants: &[(FitnessSpec, GaConfig)],
    worker_opts: &[WorkerOptions],
    wait_for: usize,
    cfg: FleetConfig,
) -> Vec<(GaRun, MemJournal, ResilienceReport)> {
    let mut manager = Fleet::bind("127.0.0.1:0", cfg).unwrap();
    let addr = manager.addr().to_string();
    let workers: Vec<_> = worker_opts
        .iter()
        .map(|opts| {
            let addr = addr.clone();
            let opts = *opts;
            std::thread::spawn(move || run_worker(&addr, &opts))
        })
        .collect();
    manager.wait_for_workers(wait_for).unwrap();
    let runs: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, (spec, cfg))| {
            let pool = manager.handle();
            let spec = *spec;
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let id = pool
                    .register(CampaignSpec {
                        name: format!("tenant-{i}"),
                        ctx: ctx(spec),
                        seed: cfg.seed,
                        weight: 1,
                        wal: None,
                    })
                    .unwrap();
                let mut dispatcher = pool.dispatcher(id);
                let mut mem = MemJournal::default();
                let run = ga::evolve(
                    &cfg,
                    &Opcode::stress_menu(),
                    GENOME_LEN,
                    &[],
                    &mut dispatcher,
                    &mut mem,
                )
                .unwrap();
                let report = pool.finish(id, true);
                (run, mem, report)
            })
        })
        .collect();
    let results = runs.into_iter().map(|t| t.join().unwrap()).collect();
    manager.shutdown();
    for worker in workers {
        worker.join().unwrap().unwrap();
    }
    results
}

/// Two tenants with different seeds and different objective sets —
/// the everyday multi-tenant shape.
fn two_tenants() -> Vec<(FitnessSpec, GaConfig)> {
    let single = fspec(MeasurePolicy::disabled());
    let pareto_spec = FitnessSpec {
        objectives: ObjectiveSet::parse("droop,power").unwrap(),
        ..single
    };
    vec![
        (single, ga_cfg(11)),
        (
            pareto_spec,
            GaConfig {
                pareto: true,
                ..ga_cfg(23)
            },
        ),
    ]
}

#[test]
fn concurrent_tenants_match_their_solo_runs_at_any_worker_count() {
    let tenants = two_tenants();
    let locals: Vec<_> = tenants
        .iter()
        .map(|(spec, cfg)| local_run(*spec, cfg))
        .collect();
    for workers in [1usize, 2, 4] {
        let opts = vec![WorkerOptions::default(); workers];
        let runs = fleet_run(&tenants, &opts, workers, FleetConfig::default());
        for (i, ((run, mem, report), (lrun, lmem, lreport))) in
            runs.iter().zip(locals.iter()).enumerate()
        {
            assert_eq!(run, lrun, "tenant {i} GaRun diverged at {workers} workers");
            assert_eq!(
                mem.records, lmem.records,
                "tenant {i} journal diverged at {workers} workers"
            );
            assert_eq!(
                report, lreport,
                "tenant {i} accounting diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn killed_worker_mid_fleet_is_absorbed_by_the_survivor() {
    // One worker vanishes (no reply, no goodbye) two evaluations in,
    // with two campaigns in flight; the survivor absorbs the
    // re-dispatched work of both.
    let tenants = two_tenants();
    let locals: Vec<_> = tenants
        .iter()
        .map(|(spec, cfg)| local_run(*spec, cfg))
        .collect();
    let opts = [
        WorkerOptions {
            max_evals: Some(2),
            ..WorkerOptions::default()
        },
        WorkerOptions::default(),
    ];
    let runs = fleet_run(&tenants, &opts, 2, FleetConfig::default());
    for (i, ((run, mem, report), (lrun, lmem, lreport))) in
        runs.iter().zip(locals.iter()).enumerate()
    {
        assert_eq!(run, lrun, "tenant {i} diverged after worker death");
        assert_eq!(mem.records, lmem.records, "tenant {i} journal diverged");
        assert_eq!(report, lreport, "tenant {i} accounting diverged");
    }
}

/// A hostile-but-survivable network, tuned like the broker chaos tests:
/// the lease sits safely above worst-case eval latency, the retry
/// budget must not bind, and every job is cross-validated so lies are
/// always caught.
fn chaos_cfg(seed: u64) -> FleetConfig {
    FleetConfig {
        heartbeat: Duration::from_millis(100),
        dead_after: Duration::from_secs(3),
        retries: 20,
        verify_fraction: 1.0,
        chaos: NetFaultPlan::parse(&format!(
            "{seed}:drop=0.02,dup=0.05,corrupt=0.02,stall=0.01,lie=0.05"
        ))
        .unwrap(),
        ..FleetConfig::default()
    }
}

/// Chaos workers rejoin after evictions and severs, each with its own
/// jitter salt so their reconnect schedules decorrelate.
fn chaos_workers(n: usize) -> Vec<WorkerOptions> {
    (0..n)
        .map(|i| WorkerOptions {
            connect_retry: Duration::from_millis(25),
            jitter_salt: 0xF1EE_7000 + i as u64,
            rejoin: true,
            ..WorkerOptions::default()
        })
        .collect()
}

#[test]
fn chaos_storm_never_perturbs_any_tenant() {
    // Frames dropped, duplicated, corrupted, workers stalling out and
    // lying — with two tenants multiplexed over the same hostile wire.
    // CRC32 catches the flips, leases re-dispatch the drops, request-id
    // retirement eats the duplicates, and cross-validation votes out
    // the liars; each tenant still gets its exact solo bytes.
    let tenants = two_tenants();
    let locals: Vec<_> = tenants
        .iter()
        .map(|(spec, cfg)| local_run(*spec, cfg))
        .collect();
    let runs = fleet_run(&tenants, &chaos_workers(2), 2, chaos_cfg(3));
    for (i, ((run, mem, report), (lrun, lmem, lreport))) in
        runs.iter().zip(locals.iter()).enumerate()
    {
        assert_eq!(run, lrun, "tenant {i} GaRun diverged under chaos");
        assert_eq!(mem.records, lmem.records, "tenant {i} journal diverged under chaos");
        assert_eq!(report, lreport, "tenant {i} accounting diverged under chaos");
    }
}

#[test]
fn identical_tenants_hit_the_cross_campaign_cache() {
    // Two identical campaigns back to back on one worker: the second
    // is answered from the worker's cross-campaign eval cache (same
    // context encoding, same genome keys), and the cached answers are
    // still bit-identical to the solo run.
    let spec = fspec(MeasurePolicy::disabled());
    let cfg = ga_cfg(11);
    let (lrun, lmem, lreport) = local_run(spec, &cfg);

    let mut manager = Fleet::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
    let addr = manager.addr().to_string();
    let worker = std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()));
    manager.wait_for_workers(1).unwrap();
    let pool = manager.handle();
    for pass in 0..2 {
        let id = pool
            .register(CampaignSpec {
                name: format!("twin-{pass}"),
                ctx: ctx(spec),
                seed: cfg.seed,
                weight: 1,
                wal: None,
            })
            .unwrap();
        let mut dispatcher = pool.dispatcher(id);
        let mut mem = MemJournal::default();
        let run = ga::evolve(
            &cfg,
            &Opcode::stress_menu(),
            GENOME_LEN,
            &[],
            &mut dispatcher,
            &mut mem,
        )
        .unwrap();
        let report = pool.finish(id, true);
        assert_eq!(run, lrun, "pass {pass} diverged");
        assert_eq!(mem.records, lmem.records, "pass {pass} journal diverged");
        assert_eq!(report, lreport, "pass {pass} accounting diverged");
    }
    let scrape = pool.metrics_text().unwrap();
    let hits: u64 = scrape
        .lines()
        .find_map(|l| l.strip_prefix("audit_fleet_cache_hits_total "))
        .expect("cache hit counter present")
        .parse()
        .unwrap();
    assert!(hits > 0, "second identical campaign never hit the cache:\n{scrape}");
    manager.shutdown();
    worker.join().unwrap().unwrap();
}

#[test]
fn differing_contexts_never_share_cache_entries() {
    // Same seed — so the tenants evaluate byte-identical genomes — but
    // different operating points. If the worker cache keyed on genome
    // content alone, tenant B would be served tenant A's numbers and
    // diverge from its solo run.
    let base = fspec(MeasurePolicy::disabled());
    let cfg = ga_cfg(11);
    let (lrun_a, _, _) = local_run(base, &cfg);

    let mut manager = Fleet::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
    let addr = manager.addr().to_string();
    let worker = std::thread::spawn(move || run_worker(&addr, &WorkerOptions::default()));
    manager.wait_for_workers(1).unwrap();
    let pool = manager.handle();

    let mut outcomes = Vec::new();
    for (i, volts) in [None, Some(1.35)].into_iter().enumerate() {
        let tenant_ctx = EvalContext {
            volts,
            ..ctx(base)
        };
        // The solo reference for this operating point, via the same
        // context the worker rebuilds from the Setup frame.
        let rig = tenant_ctx.rig().unwrap();
        let fitness = |genome: &[Gene]| base.evaluate_objectives(&rig, genome);
        let mut lmem = MemJournal::default();
        let lrun = ga::evolve(
            &cfg,
            &Opcode::stress_menu(),
            GENOME_LEN,
            &[],
            &mut LocalDispatcher::new(fitness, cfg.threads),
            &mut lmem,
        )
        .unwrap();

        let id = pool
            .register(CampaignSpec {
                name: format!("volts-{i}"),
                ctx: tenant_ctx,
                seed: cfg.seed,
                weight: 1,
                wal: None,
            })
            .unwrap();
        let mut dispatcher = pool.dispatcher(id);
        let mut mem = MemJournal::default();
        let run = ga::evolve(
            &cfg,
            &Opcode::stress_menu(),
            GENOME_LEN,
            &[],
            &mut dispatcher,
            &mut mem,
        )
        .unwrap();
        pool.finish(id, true);
        assert_eq!(run, lrun, "tenant {i} diverged from its own solo run");
        assert_eq!(mem.records, lmem.records, "tenant {i} journal diverged");
        outcomes.push(run);
    }
    // The operating points genuinely differ: a cache leak would have
    // made the runs equal.
    assert_ne!(
        outcomes[1], lrun_a,
        "the raised operating point produced the stock run — cache leak?"
    );
    manager.shutdown();
    worker.join().unwrap().unwrap();
}

#[test]
fn wal_prefill_serves_a_full_round_with_no_workers() {
    // The manager-restart degenerate case: every job of the interrupted
    // round was already WAL-logged, so the resumed campaign's first
    // round completes without a single live worker.
    let spec = fspec(MeasurePolicy::disabled());
    let rig = Rig::bulldozer();
    let population: Vec<Vec<audit_core::ga::Gene>> = (0..3)
        .map(|i| {
            vec![
                audit_core::ga::Gene {
                    opcode: if i == 0 { Opcode::Load } else { Opcode::SimdFma },
                    dst: i as u8,
                    src1: 1,
                    src2: 2,
                    miss: i == 1,
                };
                GENOME_LEN
            ]
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("audit-fleet-prefill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("prefill.wal");
    let expected: Vec<f64> = {
        use std::io::Write as _;
        let mut writer = std::fs::File::create(&wal_path).unwrap();
        population
            .iter()
            .map(|genome| {
                let (objectives, _) = spec.evaluate_objectives(&rig, genome);
                let fitness = objectives.primary();
                let line = audit_measure::json::JsonValue::object(vec![
                    ("kind", audit_measure::json::JsonValue::String("result".into())),
                    ("key", audit_core::journal::encode_u64(genome_key(genome))),
                    ("fitness", audit_measure::json::JsonValue::from_f64(fitness)),
                    (
                        "resilience",
                        audit_measure::json::JsonValue::object(vec![
                            ("evaluations", audit_core::journal::encode_u64(1)),
                            ("retries", audit_core::journal::encode_u64(0)),
                            ("quarantined", audit_core::journal::encode_u64(0)),
                            ("backoff_cycles", audit_core::journal::encode_u64(0)),
                        ]),
                    ),
                ]);
                writeln!(writer, "{}", line.encode()).unwrap();
                fitness
            })
            .collect()
    };
    let mut manager = Fleet::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
    let pool = manager.handle();
    let id = pool
        .register(CampaignSpec {
            name: "resumed".into(),
            ctx: ctx(spec),
            seed: 11,
            weight: 1,
            wal: Some(wal_path.clone()),
        })
        .unwrap();
    let mut dispatcher = pool.dispatcher(id);
    let mut scores =
        audit_core::ga::EvalDispatcher::evaluate(&mut dispatcher, &population, &[0, 1, 2])
            .unwrap();
    scores.sort_unstable_by_key(|&(slot, _)| slot);
    let got: Vec<f64> = scores.iter().map(|(_, o)| o.primary()).collect();
    assert_eq!(got, expected);
    let report = pool.finish(id, true);
    assert_eq!(report.evaluations, 3);
    // finish(discard_wal = true): the journal supersedes the WAL.
    assert!(!wal_path.exists(), "completed campaign left its WAL behind");
    manager.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_campaign_keeps_its_wal_for_resume() {
    let spec = fspec(MeasurePolicy::disabled());
    let dir = std::env::temp_dir().join(format!("audit-fleet-keepwal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("kept.wal");
    let mut manager = Fleet::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
    let pool = manager.handle();
    let id = pool
        .register(CampaignSpec {
            name: "doomed".into(),
            ctx: ctx(spec),
            seed: 11,
            weight: 1,
            wal: Some(wal_path.clone()),
        })
        .unwrap();
    pool.finish(id, false);
    assert!(wal_path.exists(), "failed campaign's WAL must survive for --resume");
    manager.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_and_metrics_describe_the_tenants() {
    let tenants = two_tenants();
    let mut manager = Fleet::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
    let addr = manager.addr().to_string();
    let worker_addr = addr.clone();
    let worker = std::thread::spawn(move || run_worker(&worker_addr, &WorkerOptions::default()));
    manager.wait_for_workers(1).unwrap();
    let pool = manager.handle();
    let ids: Vec<u64> = tenants
        .iter()
        .enumerate()
        .map(|(i, (spec, cfg))| {
            pool.register(CampaignSpec {
                name: format!("probe-{i}"),
                ctx: ctx(*spec),
                seed: cfg.seed,
                weight: 1,
                wal: None,
            })
            .unwrap()
        })
        .collect();
    // Run one round of tenant 0 so throughput counters move.
    let (spec, _) = tenants[0];
    let rig = Rig::bulldozer();
    let population: Vec<Vec<audit_core::ga::Gene>> = vec![
        vec![
            audit_core::ga::Gene {
                opcode: Opcode::SimdFma,
                dst: 0,
                src1: 1,
                src2: 2,
                miss: false,
            };
            GENOME_LEN
        ];
        1
    ];
    let expected = spec.evaluate_objectives(&rig, &population[0]).0;
    let mut dispatcher = pool.dispatcher(ids[0]);
    let scores =
        audit_core::ga::EvalDispatcher::evaluate(&mut dispatcher, &population, &[0]).unwrap();
    assert_eq!(scores[0].1, expected);

    // Remote status via the tenant protocol.
    let text = audit_fleet::status(&addr).unwrap();
    assert!(text.contains("1 worker(s), 2 campaign(s)"), "status:\n{text}");
    assert!(text.contains("probe-0") && text.contains("probe-1"), "status:\n{text}");

    // Remote metrics via the same MetricsReq frame the broker answers.
    let scrape = audit_fleet::scrape(&addr).unwrap();
    for needle in [
        "audit_fleet_workers 1",
        "audit_fleet_campaigns 2",
        "audit_fleet_results_total 1",
        "audit_fleet_campaign_rounds_total{campaign=\"probe-0\"} 1",
        "audit_fleet_campaign_rounds_total{campaign=\"probe-1\"} 0",
        "audit_fleet_worker_results_total",
    ] {
        assert!(scrape.contains(needle), "missing `{needle}` in scrape:\n{scrape}");
    }
    for id in ids {
        pool.finish(id, true);
    }
    manager.shutdown();
    worker.join().unwrap().unwrap();
}
