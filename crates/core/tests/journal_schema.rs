//! Schema-stability tests for the run-journal NDJSON format.
//!
//! The golden fixture under `tests/fixtures/` is a complete v1 journal
//! written by [`regen_golden_fixture`] (run it with
//! `cargo test -p audit-core --test journal_schema -- --ignored` after
//! an *intentional* format change). The tests pin both directions:
//! today's code must decode the checked-in bytes, and re-encoding the
//! decoded records must reproduce those bytes exactly — so any
//! accidental rename, field drop, or numeric-formatting change fails
//! loudly instead of silently orphaning old checkpoints.

use std::path::PathBuf;

use audit_core::ga::{evolve, GaConfig, Gene, LocalDispatcher, Objectives};
use audit_core::journal::{
    Journal, JournalRecord, JournalWriter, MemJournal, ParetoFrontRecord, ShmooPointResult,
    VminOutcome,
};
use audit_core::resonance::ResonanceResult;
use audit_cpu::Opcode;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal_v1.ndjson")
}

/// Deterministic GA shape shared by the fixture writer and the tests.
fn fixture_cfg() -> GaConfig {
    GaConfig {
        population: 6,
        generations: 4,
        stall_generations: 4,
        seed: 0xA0D17,
        threads: 1,
        ..GaConfig::default()
    }
}

/// Pure fitness used for the fixture's GA section. Exercises negative
/// and fractional scores so float formatting is pinned too.
fn fixture_fitness(g: &[Gene]) -> f64 {
    g.iter()
        .enumerate()
        .map(|(i, gene)| match gene.opcode {
            Opcode::SimdFma => 1.0 + i as f64 / 7.0,
            Opcode::Nop => -0.25,
            _ => 0.125,
        })
        .sum()
}

fn fixture_resonance() -> ResonanceResult {
    ResonanceResult {
        period_cycles: 30,
        frequency_hz: 3.2e9 / 30.0,
        samples: vec![(16, 0.031), (30, 0.08125), (64, 1.0 / 96.0)],
    }
}

/// Builds the fixture's records in memory (everything but `run_start`,
/// which [`JournalWriter::create`] emits itself).
fn fixture_records() -> Vec<JournalRecord> {
    let mut mem = MemJournal::default();
    mem.records.push(JournalRecord::PhaseStart {
        name: "resonance".into(),
    });
    mem.records.push(JournalRecord::PhaseEnd {
        name: "resonance".into(),
        payload: fixture_resonance().to_json(),
    });
    // The resilience kinds (additive in the same schema version): a
    // write-ahead probe that crashes, retries on a timeout, settles,
    // and a quarantined step. `backoff_cycles` of 2^53+1 pins the
    // beyond-f64 u64 codec; the fractional voltage pins float format.
    mem.records.push(JournalRecord::VminStep {
        step: 0,
        voltage: 1.0875,
        attempt: 0,
        outcome: VminOutcome::Pending,
    });
    mem.records.push(JournalRecord::VminStep {
        step: 0,
        voltage: 1.0875,
        attempt: 0,
        outcome: VminOutcome::Crashed,
    });
    mem.records.push(JournalRecord::Retry {
        step: 0,
        attempt: 1,
        reason: "timeout".into(),
        backoff_cycles: 9_007_199_254_740_993,
    });
    mem.records.push(JournalRecord::VminStep {
        step: 0,
        voltage: 1.0875,
        attempt: 2,
        outcome: VminOutcome::Failed,
    });
    mem.records.push(JournalRecord::Quarantine {
        step: 1,
        attempts: 3,
        fallback: -0.125,
    });
    // The multi-objective kinds (additive, same schema version): a
    // generation's Pareto payload with a budget-deferred `-inf`
    // sentinel slot, and one shmoo point journaled write-ahead — the
    // pending line first, then the settled `done` line.
    mem.records.push(JournalRecord::ParetoFront(ParetoFrontRecord {
        index: 0,
        objectives: vec![
            Objectives(vec![0.08125, 52.5, -0.02]),
            Objectives(vec![f64::NEG_INFINITY]),
        ],
        ranks: vec![0, 1],
    }));
    mem.records.push(JournalRecord::ShmooPoint {
        index: 4,
        volts: 1.0875,
        clock_hz: 3.2e9,
        result: None,
    });
    mem.records.push(JournalRecord::ShmooPoint {
        index: 4,
        volts: 1.0875,
        clock_hz: 3.2e9,
        result: Some(ShmooPointResult {
            v_fail: 0.9375,
            margin: 0.15,
            steps: 9,
        }),
    });
    // The analyzer-loop kinds (additive, same schema version): one
    // generation's lint-repair accounting, and a minimize probe
    // journaled write-ahead — the pending line first, then the
    // terminal line carrying the measured droop. `key` of 2^53+3 pins
    // the beyond-f64 u64 codec for the subset content key.
    mem.records.push(JournalRecord::Repair {
        index: 2,
        rerolls: 17,
    });
    mem.records.push(JournalRecord::MinimizeStep {
        step: 3,
        kept: 6,
        key: 9_007_199_254_740_995,
        outcome: VminOutcome::Pending,
        droop: None,
    });
    mem.records.push(JournalRecord::MinimizeStep {
        step: 3,
        kept: 6,
        key: 9_007_199_254_740_995,
        outcome: VminOutcome::Passed,
        droop: Some(0.020625),
    });
    // The distributed-defense kind (additive, same schema version): a
    // byzantine worker out-voted on a cross-validated job and evicted,
    // its in-flight jobs re-dispatched. `key` of 2^53+5 pins the
    // beyond-f64 u64 codec for genome content keys.
    mem.records.push(JournalRecord::WorkerEvicted {
        worker: 3,
        key: 9_007_199_254_740_997,
        quarantined: 2,
    });
    evolve(
        &fixture_cfg(),
        &Opcode::stress_menu(),
        5,
        &[],
        &mut LocalDispatcher::new(fixture_fitness, fixture_cfg().threads),
        &mut mem,
    )
    .expect("fixture GA runs");
    mem.records.push(JournalRecord::RunEnd);
    mem.records
}

/// Regenerates the golden fixture. `#[ignore]`d: run explicitly after
/// an intentional schema change, and commit the diff.
#[test]
#[ignore = "rewrites the golden fixture; run only after an intentional schema change"]
fn regen_golden_fixture() {
    use audit_measure::json::JsonValue;
    let meta = JsonValue::object(vec![(
        "argv",
        JsonValue::Array(vec![
            JsonValue::String("--fast".into()),
            JsonValue::String("--threads".into()),
            JsonValue::String("2".into()),
        ]),
    )]);
    let mut writer =
        JournalWriter::create(fixture_path(), "generate", meta).expect("fixture writes");
    for record in fixture_records() {
        use audit_core::journal::JournalSink;
        writer.append(&record).expect("fixture writes");
    }
}

#[test]
fn golden_journal_decodes() {
    let journal = Journal::load(fixture_path()).expect("golden fixture decodes");
    assert_eq!(journal.mode(), Some("generate"));
    assert!(journal.is_complete());
    let kinds: Vec<&str> = journal.records.iter().map(JournalRecord::kind).collect();
    assert_eq!(kinds[..3], ["run_start", "phase_start", "phase_end"]);
    assert_eq!(kinds[kinds.len() - 2..], ["ga_end", "run_end"]);
    assert!(kinds.iter().filter(|k| **k == "generation").count() >= 2);
    for kind in [
        "vmin_step",
        "retry",
        "quarantine",
        "pareto_front",
        "shmoo_point",
        "repair",
        "minimize_step",
        "worker_evicted",
    ] {
        assert!(kinds.contains(&kind), "fixture lost its `{kind}` record");
    }

    let resonance = ResonanceResult::from_json(
        journal.phase_payload("resonance").expect("resonance payload"),
    )
    .expect("payload decodes");
    assert_eq!(resonance, fixture_resonance());

    let section = journal.last_ga_section().expect("GA section");
    assert!(section.complete);
    assert_eq!(section.cfg, &fixture_cfg());
    assert_eq!(section.genome_len, 5);
    assert_eq!(section.menu, &Opcode::stress_menu()[..]);
    for rec in &section.generations {
        assert_eq!(rec.population.len(), 6);
        assert_eq!(rec.scores.len(), 6);
        assert!(rec.scores.iter().all(|s| s.is_finite()));
    }
}

#[test]
fn golden_journal_reencodes_byte_identically() {
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture exists");
    let journal = Journal::parse(&text).expect("golden fixture decodes");
    for (line, record) in text.lines().zip(&journal.records) {
        assert_eq!(
            record.to_json().encode(),
            line,
            "encode drifted for a `{}` record",
            record.kind()
        );
    }
    assert_eq!(text.lines().count(), journal.records.len());
}

#[test]
fn golden_journal_matches_todays_writer() {
    // A fresh run with the fixture's configuration must produce the
    // same records the fixture holds (wall-clock excluded via the
    // GenerationRecord equality convention) — proving resume of an old
    // journal replays exactly what today's engine would compute.
    let journal = Journal::load(fixture_path()).expect("golden fixture decodes");
    let fresh = fixture_records();
    assert_eq!(&journal.records[1..], &fresh[..]);
}

#[test]
fn schema_field_names_are_pinned() {
    // Field renames orphan old checkpoints. Pin every key of the two
    // stateful record kinds.
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture exists");
    let generation = text
        .lines()
        .find(|l| l.contains("\"generation\""))
        .expect("a generation record");
    for key in [
        "\"kind\"",
        "\"index\"",
        "\"stream_seed\"",
        "\"population\"",
        "\"scores\"",
        "\"executed\"",
        "\"cache_hits\"",
        "\"wall_s\"",
        "\"analysis\"",
        "\"best_swing\"",
        "\"mean_swing\"",
    ] {
        assert!(generation.contains(key), "generation record lost {key}");
    }
    let ga_start = text
        .lines()
        .find(|l| l.contains("\"ga_start\""))
        .expect("a ga_start record");
    for key in [
        "\"cfg\"",
        "\"genome_len\"",
        "\"menu\"",
        "\"seeds\"",
        "\"surrogate_rank\"",
    ] {
        assert!(ga_start.contains(key), "ga_start record lost {key}");
    }
    let run_start = text.lines().next().expect("run_start line");
    for key in ["\"schema\"", "\"mode\"", "\"meta\""] {
        assert!(run_start.contains(key), "run_start record lost {key}");
    }
    let vmin = text
        .lines()
        .find(|l| l.contains("\"vmin_step\""))
        .expect("a vmin_step record");
    for key in ["\"step\"", "\"voltage\"", "\"attempt\"", "\"outcome\""] {
        assert!(vmin.contains(key), "vmin_step record lost {key}");
    }
    let retry = text
        .lines()
        .find(|l| l.contains("\"retry\""))
        .expect("a retry record");
    for key in ["\"step\"", "\"attempt\"", "\"reason\"", "\"backoff_cycles\""] {
        assert!(retry.contains(key), "retry record lost {key}");
    }
    let quarantine = text
        .lines()
        .find(|l| l.contains("\"quarantine\""))
        .expect("a quarantine record");
    for key in ["\"step\"", "\"attempts\"", "\"fallback\""] {
        assert!(quarantine.contains(key), "quarantine record lost {key}");
    }
    let pareto = text
        .lines()
        .find(|l| l.contains("\"pareto_front\""))
        .expect("a pareto_front record");
    for key in ["\"index\"", "\"objectives\"", "\"ranks\""] {
        assert!(pareto.contains(key), "pareto_front record lost {key}");
    }
    let shmoo_done = text
        .lines()
        .find(|l| l.contains("\"shmoo_point\"") && l.contains("\"done\""))
        .expect("a done shmoo_point record");
    for key in [
        "\"index\"",
        "\"volts\"",
        "\"clock_hz\"",
        "\"outcome\"",
        "\"v_fail\"",
        "\"margin\"",
        "\"steps\"",
    ] {
        assert!(shmoo_done.contains(key), "shmoo_point record lost {key}");
    }
    let shmoo_pending = text
        .lines()
        .find(|l| l.contains("\"shmoo_point\"") && l.contains("\"pending\""))
        .expect("a pending shmoo_point record");
    assert!(
        !shmoo_pending.contains("\"v_fail\""),
        "pending shmoo_point grew result fields"
    );
    let repair = text
        .lines()
        .find(|l| l.contains("\"repair\""))
        .expect("a repair record");
    for key in ["\"index\"", "\"rerolls\""] {
        assert!(repair.contains(key), "repair record lost {key}");
    }
    let minimize_done = text
        .lines()
        .find(|l| l.contains("\"minimize_step\"") && l.contains("\"droop\""))
        .expect("a terminal minimize_step record");
    for key in ["\"step\"", "\"kept\"", "\"key\"", "\"outcome\"", "\"droop\""] {
        assert!(minimize_done.contains(key), "minimize_step record lost {key}");
    }
    let minimize_pending = text
        .lines()
        .find(|l| l.contains("\"minimize_step\"") && l.contains("\"pending\""))
        .expect("a pending minimize_step record");
    assert!(
        !minimize_pending.contains("\"droop\""),
        "pending minimize_step grew a droop field"
    );
    let evicted = text
        .lines()
        .find(|l| l.contains("\"worker_evicted\""))
        .expect("a worker_evicted record");
    for key in ["\"worker\"", "\"key\"", "\"quarantined\""] {
        assert!(evicted.contains(key), "worker_evicted record lost {key}");
    }
}

#[test]
fn journal_without_resilience_kinds_still_decodes() {
    // The three resilience kinds are additive: a journal written before
    // they existed (here: the fixture minus those lines) must decode,
    // report completeness, and keep its GA section intact.
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture exists");
    let old: String = text
        .lines()
        .filter(|l| {
            !l.contains("\"vmin_step\"") && !l.contains("\"retry\"")
                && !l.contains("\"quarantine\"")
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(old.len() < text.len(), "filter removed nothing");
    let journal = Journal::parse(&old).expect("pre-resilience journal decodes");
    assert!(journal.is_complete());
    assert!(journal.phase_payload("resonance").is_some());
    let section = journal.last_ga_section().expect("GA section");
    assert!(section.complete);
    assert_eq!(section.cfg, &fixture_cfg());
}

#[test]
fn journal_without_analyzer_loop_kinds_still_decodes() {
    // `repair` and `minimize_step` are additive as well: a journal
    // written before the analyzer↔GA loop existed (the fixture minus
    // those lines) must decode, report completeness, and keep its GA
    // section intact.
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture exists");
    let old: String = text
        .lines()
        .filter(|l| !l.contains("\"repair\"") && !l.contains("\"minimize_step\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(old.len() < text.len(), "filter removed nothing");
    let journal = Journal::parse(&old).expect("pre-analyzer-loop journal decodes");
    assert!(journal.is_complete());
    let section = journal.last_ga_section().expect("GA section");
    assert!(section.complete);
    assert_eq!(section.cfg, &fixture_cfg());
}

#[test]
fn journal_without_distributed_kinds_still_decodes() {
    // `worker_evicted` is additive too: it normally lives in the net
    // broker's WAL, but a journal carrying one (or an old journal with
    // none) must decode with its GA section intact either way.
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture exists");
    let old: String = text
        .lines()
        .filter(|l| !l.contains("\"worker_evicted\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(old.len() < text.len(), "filter removed nothing");
    let journal = Journal::parse(&old).expect("pre-distributed journal decodes");
    assert!(journal.is_complete());
    let section = journal.last_ga_section().expect("GA section");
    assert!(section.complete);
    assert_eq!(section.cfg, &fixture_cfg());
}

#[test]
fn journal_without_multiobjective_kinds_still_decodes() {
    // `pareto_front` and `shmoo_point` are additive too: a journal
    // written before the multi-objective engine existed (the fixture
    // minus those lines) must decode with an empty front list and its
    // GA section intact.
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture exists");
    let old: String = text
        .lines()
        .filter(|l| !l.contains("\"pareto_front\"") && !l.contains("\"shmoo_point\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(old.len() < text.len(), "filter removed nothing");
    let journal = Journal::parse(&old).expect("pre-pareto journal decodes");
    assert!(journal.is_complete());
    let section = journal.last_ga_section().expect("GA section");
    assert!(section.complete);
    assert!(section.fronts.is_empty(), "scalar journal grew fronts");
    assert_eq!(section.cfg, &fixture_cfg());
}
