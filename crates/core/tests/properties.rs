//! Property-based tests for the AUDIT framework's pure components:
//! dithering arithmetic, genome lowering, activity patterns, cost
//! functions, and report tables.

use audit_core::analyze::{verify, VerifyTarget};
use audit_core::dither::DitherPlan;
use audit_core::ga::{evolve, to_sub_block, CostFunction, GaConfig, Gene, LocalDispatcher};
use audit_core::journal::{JournalRecord, MemJournal};
use audit_core::patterns::ActivityPattern;
use audit_core::report::{vf_rel, Table};
use audit_cpu::{Opcode, Program};
use proptest::prelude::*;

fn imul_count(g: &[Gene]) -> f64 {
    g.iter().filter(|x| x.opcode == Opcode::IMul).count() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dithering sweep arithmetic: `sweep = M · k^(C−1)` with
    /// `k = (L+H)/(δ+1)`, and padding periods are geometric.
    #[test]
    fn dither_plan_arithmetic(cores in 1u32..9, k in 1u32..16, delta in 0u32..4, m in 1u64..10_000) {
        let period = k * (delta + 1); // guarantee divisibility
        let plan = DitherPlan::approximate(cores, period, m, delta);
        prop_assert_eq!(plan.k(), k as u64);
        prop_assert_eq!(plan.alignment_count(), (k as u128).pow(cores - 1));
        prop_assert_eq!(plan.sweep_cycles(), m as u128 * (k as u128).pow(cores - 1));
        for c in 1..cores {
            prop_assert_eq!(plan.padding_period(c), m as u128 * (k as u128).pow(c - 1));
            // Each padding period divides the full sweep.
            prop_assert_eq!(plan.sweep_cycles() % plan.padding_period(c), 0);
        }
    }

    /// Coarser δ never enlarges the sweep.
    #[test]
    fn approximate_never_slower(cores in 2u32..9, k in 1u32..12, m in 1u64..1_000) {
        for delta in 0u32..4 {
            let period = k * (delta + 1) * 4; // divisible by both quanta
            if period % (delta + 1) != 0 {
                continue;
            }
            let exact = DitherPlan::exact(cores, period, m);
            let approx = DitherPlan::approximate(cores, period, m, delta);
            prop_assert!(approx.sweep_cycles() <= exact.sweep_cycles());
        }
    }

    /// Gene lowering always targets the right register file and honours
    /// the miss flag only on loads.
    #[test]
    fn gene_lowering_invariants(op_idx in 0usize..Opcode::ALL.len(),
                                dst in any::<u8>(), s1 in any::<u8>(), s2 in any::<u8>(),
                                miss in any::<bool>()) {
        let opcode = Opcode::ALL[op_idx];
        let gene = Gene { opcode, dst, src1: s1, src2: s2, miss };
        let inst = gene.to_inst();
        prop_assert_eq!(inst.opcode, opcode);
        prop_assert_eq!(inst.toggle, 1.0);
        if let Some(d) = inst.dst {
            prop_assert_eq!(d.is_fp(), opcode.props().fp_dst);
        }
        let misses = !matches!(inst.mem, audit_cpu::MemBehavior::L1Hit);
        prop_assert_eq!(misses, miss && opcode == Opcode::Load);
    }

    /// For any run seed, every genome the GA breeds — initial random
    /// population, crossover offspring, and mutants alike — lowers to a
    /// program that passes the structural verifier. The journaled
    /// populations are the breeder's raw output, so this covers all
    /// three operators through the public API.
    #[test]
    fn ga_bred_genomes_always_verify(seed in any::<u64>()) {
        let cfg = GaConfig {
            population: 6,
            generations: 2,
            stall_generations: 2,
            seed,
            threads: 1,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        evolve(
            &cfg,
            &Opcode::stress_menu(),
            6,
            &[],
            &mut LocalDispatcher::new(imul_count, cfg.threads),
            &mut mem,
        )
        .expect("tiny GA runs");
        for record in &mem.records {
            let JournalRecord::Generation(generation) = record else { continue };
            for genome in &generation.population {
                let program = Program::new("bred", to_sub_block(genome));
                let diags = verify(&program, &VerifyTarget::permissive());
                prop_assert!(diags.is_empty(), "seed {seed}: {diags:?}");
            }
        }
    }

    /// Lint-driven repair off (the default) is byte-invisible: for any
    /// seed, a run with `lint_repair: false` spelled out journals the
    /// exact same records as one using the default config, no record
    /// mentions repair, and re-running is bit-identical — the journal
    /// compatibility contract that keeps old checkpoints replayable.
    #[test]
    fn lint_repair_off_is_byte_invisible(seed in any::<u64>()) {
        let run = |lint_repair: bool| {
            let cfg = GaConfig {
                population: 6,
                generations: 2,
                stall_generations: 2,
                seed,
                threads: 1,
                lint_repair,
                ..GaConfig::default()
            };
            let mut mem = MemJournal::default();
            evolve(
                &cfg,
                &Opcode::stress_menu(),
                6,
                &[],
                &mut LocalDispatcher::new(imul_count, cfg.threads),
                &mut mem,
            )
            .expect("tiny GA runs");
            mem.records
        };
        let default_off = run(false);
        prop_assert_eq!(&default_off, &run(false)); // determinism
        for record in &default_off {
            prop_assert!(
                !matches!(record, JournalRecord::Repair { .. }),
                "seed {seed}: repair record journaled with repair off"
            );
            let line = record.to_json().encode();
            prop_assert!(!line.contains("lint_repair"), "seed {seed}: {line}");
        }
    }

    /// With repair on, every journaled population — initial and bred
    /// alike — is lint-clean under the repair deny set: zero deny-level
    /// findings survive into any generation the GA evaluates.
    #[test]
    fn lint_repair_populations_are_lint_clean(seed in any::<u64>()) {
        use audit_core::ga::offending_slots;

        let cfg = GaConfig {
            population: 8,
            generations: 3,
            stall_generations: 3,
            seed,
            threads: 1,
            lint_repair: true,
            ..GaConfig::default()
        };
        let mut mem = MemJournal::default();
        evolve(
            &cfg,
            &Opcode::stress_menu(),
            6,
            &[],
            &mut LocalDispatcher::new(imul_count, cfg.threads),
            &mut mem,
        )
        .expect("tiny GA runs");
        for record in &mem.records {
            let JournalRecord::Generation(generation) = record else { continue };
            for genome in &generation.population {
                let slots = offending_slots(genome);
                prop_assert!(
                    slots.is_empty(),
                    "seed {seed}, gen {}: deny-level lints at slots {slots:?}",
                    generation.index
                );
            }
        }
    }

    /// The activity waveform has exactly H high cycles per period.
    #[test]
    fn activity_pattern_duty(h in 1u32..64, l in 1u32..64) {
        let p = ActivityPattern::new(h, l, 0);
        let period = p.period() as u64;
        let highs = (0..period).filter(|&c| p.is_high(c)).count() as u32;
        prop_assert_eq!(highs, h);
        // Periodicity.
        for c in 0..period {
            prop_assert_eq!(p.is_high(c), p.is_high(c + period));
        }
    }

    /// vf_rel formats deltas consistently with its inputs.
    #[test]
    fn vf_rel_roundtrips(delta_mv in -400i32..400) {
        let v_ref = 1.0;
        let v = v_ref - delta_mv as f64 / 1e3;
        let s = vf_rel(v, v_ref);
        if delta_mv == 0 {
            prop_assert_eq!(s, "VF");
        } else if delta_mv > 0 {
            prop_assert_eq!(s, format!("VF - {delta_mv} mV"));
        } else {
            prop_assert_eq!(s, format!("VF + {} mV", -delta_mv));
        }
    }

    /// Tables render one line per row plus header and rule, and CSV has
    /// one line per row plus header.
    #[test]
    fn table_rendering_counts(rows in prop::collection::vec(
        prop::collection::vec("[a-z0-9 ]{0,12}", 3..4), 0..20)) {
        let mut t = Table::new(vec!["a", "b", "c"]);
        for r in &rows {
            t.row(r.clone());
        }
        prop_assert_eq!(t.to_string().lines().count(), rows.len() + 2);
        prop_assert_eq!(t.to_csv().lines().count(), rows.len() + 1);
        prop_assert_eq!(t.len(), rows.len());
    }
}

/// Cost functions rank deeper droops higher, all else equal.
#[test]
fn cost_functions_monotone_in_droop() {
    use audit_core::harness::{MeasureSpec, Rig};
    use audit_stressmark::manual;

    // Two real measurements with different droop, similar structure.
    let rig = Rig::bulldozer();
    let strong = rig.measure_aligned(&vec![manual::sm_res(); 4], MeasureSpec::ga_eval());
    let weak = rig.measure_aligned(&vec![manual::sm_res(); 1], MeasureSpec::ga_eval());
    for cost in [CostFunction::MaxDroop, CostFunction::SensitivePathDroop] {
        assert!(
            cost.score(&strong) > cost.score(&weak),
            "{cost:?} did not rank 4T above 1T"
        );
    }
}

// Resilience-layer properties. These cases co-simulate the harness, so
// the case count is kept small.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Median-of-k with MAD rejection converges: under seeded Gaussian
    /// scope noise of width σ, the reported max droop lands within 6σ
    /// of the noiseless droop (the minimum of ~1500 noisy samples
    /// wanders by ~√(2·ln n)·σ ≈ 3.9σ, so 6σ bounds the filtered
    /// median with margin while a single unfiltered reading has none).
    #[test]
    fn median_of_k_converges_under_noise(seed in any::<u64>(), sigma in 0.001f64..0.01) {
        use audit_core::harness::{MeasureSpec, Rig};
        use audit_core::resilient::MeasurePolicy;
        use audit_measure::{FaultPlan, FaultRates};
        use audit_stressmark::manual;

        let spec = MeasureSpec {
            warmup_cycles: 500,
            record_cycles: 1_500,
            settle_cycles: 20_000,
            ..MeasureSpec::ga_eval()
        };
        let rig = Rig::bulldozer();
        let programs = vec![manual::sm_res(); 2];
        let offsets = vec![0; 2];
        let clean = rig.measure_with_offsets(&programs, &offsets, spec).max_droop();

        let policy = MeasurePolicy {
            faults: FaultPlan::new(seed, FaultRates {
                noise_sigma: sigma,
                ..FaultRates::none()
            }).unwrap(),
            repeat: 5,
            ..MeasurePolicy::disabled()
        };
        let out = policy.measure(&rig, &programs, &offsets, spec, seed ^ 0xD1CE);
        let noisy = out.measurement.expect("noise alone cannot quarantine").max_droop();
        prop_assert!((noisy - clean).abs() <= 6.0 * sigma,
            "median droop {noisy} vs clean {clean} beyond 6σ = {}", 6.0 * sigma);
    }

    /// The tier-1 swing estimate is monotone-consistent with the full
    /// simulator: over a seeded ladder of candidates built from the
    /// builtin opcode menu — every rung the same burst-then-gap loop
    /// shape, with the burst's per-op switching current rising rung by
    /// rung — ranking by [`audit_cpu::tier::estimate_swing`] must agree
    /// with ranking by full-sim `MaxDroop` above a Spearman
    /// rank-correlation floor. Burst amplitude at fixed shape is the
    /// di/dt knob both tiers measure the same way (the scoreboard's
    /// cycle-granular edge metric and the PDN's droop response diverge
    /// on *shape* knobs like burst density, which is exactly why tier 1
    /// only prunes and tier 2 still arbitrates). This is the accuracy
    /// contract the cascade's pruning stage leans on (see
    /// `docs/SIMULATION.md`); the floor is deliberately loose — the
    /// tier only has to sort candidates, not predict droop.
    #[test]
    fn tier_estimate_is_rank_consistent_with_full_sim(seed in any::<u64>()) {
        use audit_core::ga::ObjectiveSet;
        use audit_core::harness::{MeasureSpec, Rig};
        use audit_core::resilient::MeasurePolicy;
        use audit_core::FitnessSpec;
        use audit_cpu::tier::{estimate_swing, TierModel};

        // Seeded xorshift64*, independent of the proptest stub's RNG.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        };

        // A ladder of genomes with the same loop shape — an 8-slot
        // burst followed by a 24-slot NOP gap (long enough that the
        // gap costs fetch cycles even at full front-end bandwidth,
        // so it shows up as quiet cycles in both tiers) — where each
        // rung swaps
        // the burst opcode for one with higher switching current
        // (`issue_amps` 0.35 A through 4.40 A). The amplitude spacing
        // guarantees genuine spread in both rankings; the seed varies
        // the register selectors. Destinations stay distinct per slot
        // and sources read only never-written registers so no rung
        // picks up a seed-dependent dependence chain — the in-order
        // scoreboard smears a chained burst flat while the
        // out-of-order simulator hides much of it, which would make
        // the comparison about schedule modeling rather than the
        // amplitude axis under test.
        let ladder = [
            Opcode::MovImm,
            Opcode::IAdd,
            Opcode::Load,
            Opcode::FMul,
            Opcode::SimdFMul,
            Opcode::SimdFma,
        ];
        const RUNGS: usize = 6;
        const GENOME_LEN: usize = 32;
        const BURST: usize = 8;
        let nop = Gene {
            opcode: Opcode::Nop,
            dst: 0,
            src1: 0,
            src2: 0,
            miss: false,
        };
        let genomes: Vec<Vec<Gene>> = (0..RUNGS)
            .map(|rung| {
                let rotate = next() as usize;
                (0..GENOME_LEN)
                    .map(|slot| {
                        if slot >= BURST {
                            return nop;
                        }
                        Gene {
                            opcode: ladder[rung],
                            dst: ((slot + rotate) % 8) as u8,
                            src1: 8 + (next() % 8) as u8,
                            src2: 8 + (next() % 8) as u8,
                            miss: false,
                        }
                    })
                    .collect()
            })
            .collect();

        let fspec = FitnessSpec {
            threads: 2,
            sub_blocks: 2,
            lp_slots: 2,
            cost: CostFunction::MaxDroop,
            spec: MeasureSpec {
                warmup_cycles: 500,
                record_cycles: 2_000,
                settle_cycles: 30_000,
                ..MeasureSpec::ga_eval()
            },
            policy: MeasurePolicy::disabled(),
            objectives: ObjectiveSet::default(),
        };
        let rig = Rig::bulldozer();
        let model = TierModel::generic();
        let tier: Vec<f64> = genomes
            .iter()
            .map(|g| estimate_swing(&to_sub_block(g), &model))
            .collect();
        let full: Vec<f64> = genomes
            .iter()
            .map(|g| fspec.evaluate_objectives(&rig, g).0.primary())
            .collect();

        // Spearman rank correlation (ordinal ranks; slot index breaks
        // the vanishingly-rare f64 ties deterministically).
        let ranks = |xs: &[f64]| -> Vec<f64> {
            let mut order: Vec<usize> = (0..xs.len()).collect();
            order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]).then(a.cmp(&b)));
            let mut r = vec![0.0; xs.len()];
            for (rank, &i) in order.iter().enumerate() {
                r[i] = rank as f64;
            }
            r
        };
        let (rt, rf) = (ranks(&tier), ranks(&full));
        let n = RUNGS as f64;
        let d2: f64 = rt.iter().zip(&rf).map(|(a, b)| (a - b) * (a - b)).sum();
        let rho = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
        prop_assert!(
            rho >= 0.5,
            "seed {seed}: Spearman ρ = {rho:.3} below floor (tier {tier:?} vs full {full:?})"
        );
    }

    /// A candidate whose every attempt hangs is quarantined after
    /// exactly `retries + 1` attempts — no earlier, no later — for any
    /// retry budget and repeat count.
    #[test]
    fn quarantine_after_exactly_retries_plus_one_hangs(
        seed in any::<u64>(), retries in 0u32..4, repeat in 1u32..4) {
        use audit_core::harness::{MeasureSpec, Rig};
        use audit_core::resilient::{MeasurePolicy, ResilienceLog};
        use audit_measure::{FaultPlan, FaultRates};
        use audit_stressmark::manual;

        let policy = MeasurePolicy {
            faults: FaultPlan::new(seed, FaultRates {
                hang_rate: 1.0,
                ..FaultRates::none()
            }).unwrap(),
            repeat,
            retries,
            cycle_budget: Some(1 << 20),
            ..MeasurePolicy::disabled()
        };
        let rig = Rig::bulldozer();
        let programs = vec![manual::sm_res(); 2];
        let spec = MeasureSpec::ga_eval();
        let out = policy.measure(&rig, &programs, &[0; 2], spec, seed);
        prop_assert!(out.quarantined);
        prop_assert!(out.measurement.is_none());
        prop_assert_eq!(out.attempts, retries + 1);
        prop_assert_eq!(out.retries, retries + 1);
        prop_assert_eq!(out.repeats_kept, 0);
        let log = ResilienceLog::default();
        log.record(&out);
        let report = log.snapshot();
        prop_assert_eq!(report.quarantined, 1);
        prop_assert_eq!(report.retries, u64::from(retries + 1));
    }
}

/// Body of the Pareto ranking property, out-of-line so the
/// `proptest!` macro only munches a one-line call.
fn check_pareto_ranking(vecs: &[Vec<f64>], perm: &[usize]) -> proptest::TestCaseResult {
    use audit_core::ga::{non_dominated_sort, rank_population, Objectives};

    // A slot whose first axis lands in the bottom decile stands in for
    // a budget-deferred candidate (the 1-axis `-inf` sentinel).
    let objs: Vec<Objectives> = vecs
        .iter()
        .map(|v| if v[0] < -0.9 { Objectives::deferred() } else { Objectives(v.clone()) })
        .collect();
    let n = objs.len();

    // Determinism: two runs agree exactly (rank and crowding).
    let ranking = rank_population(&objs);
    prop_assert_eq!(&ranking, &rank_population(&objs));

    // Rank 0 is exactly the non-dominated set.
    for i in 0..n {
        let dominated = objs.iter().any(|o| o.dominates(&objs[i]));
        prop_assert_eq!(ranking.rank[i] == 0, !dominated, "slot {}", i);
    }

    // Permuting the slots permutes the ranks identically.
    let permuted: Vec<Objectives> = perm.iter().map(|&i| objs[i].clone()).collect();
    let permuted_rank = non_dominated_sort(&permuted);
    for (k, &i) in perm.iter().enumerate() {
        prop_assert_eq!(permuted_rank[k], ranking.rank[i], "perm slot {}", k);
    }
    // Crowding is equivariant too whenever no axis value repeats (ties
    // break by slot index, so tied values may legitimately swap their
    // neighbour gaps under permutation).
    let axes = objs.iter().map(Objectives::len).max().unwrap_or(0);
    let axis_distinct = (0..axes).all(|a| {
        let vals: Vec<f64> = objs
            .iter()
            .map(|o| o.0.get(a).copied().unwrap_or(f64::NEG_INFINITY))
            .collect();
        vals.iter()
            .enumerate()
            .all(|(i, x)| vals[i + 1..].iter().all(|y| x.total_cmp(y).is_ne()))
    });
    if axis_distinct {
        let permuted_ranking = rank_population(&permuted);
        for (k, &i) in perm.iter().enumerate() {
            prop_assert_eq!(
                permuted_ranking.crowding[k].total_cmp(&ranking.crowding[i]),
                std::cmp::Ordering::Equal,
                "crowding diverged at perm slot {}",
                k
            );
        }
    }

    // The selection order is a permutation of the slots, best first:
    // rank never decreases and every adjacent pair honours the
    // better-or-equal total order.
    let order = ranking.selection_order();
    let mut seen = vec![false; n];
    for &i in &order {
        prop_assert!(!seen[i], "slot {} listed twice", i);
        seen[i] = true;
    }
    for w in order.windows(2) {
        prop_assert!(ranking.rank[w[0]] <= ranking.rank[w[1]]);
        prop_assert!(ranking.better_or_equal(w[0], w[1]));
        prop_assert!(!ranking.better(w[1], w[0]));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The NSGA-II ranking is a pure function of the dominance
    /// relation: re-running it is bit-identical, permuting the slots
    /// permutes the front ranks identically, rank 0 is exactly the
    /// non-dominated set, and the selection order is a total order
    /// (rank ascending, crowding descending, slot index as the final
    /// tie-break). This is the determinism contract the Pareto engine
    /// leans on for threads:1 ≡ threads:N and kill/resume.
    #[test]
    fn pareto_ranking_is_deterministic_and_permutation_equivariant(
        axes in 1usize..4,
        raw in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 3..4), 2..12),
        perm_seed in any::<u64>(),
    ) {
        // Equal-length vectors: keep the first `axes` of each triple.
        let vecs: Vec<Vec<f64>> = raw.iter().map(|v| v[..axes].to_vec()).collect();
        // Seeded Fisher–Yates for the slot permutation.
        let mut perm: Vec<usize> = (0..vecs.len()).collect();
        let mut rng = prop::TestRng::new(perm_seed);
        for i in (1..perm.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        check_pareto_ranking(&vecs, &perm)?;
    }
}
