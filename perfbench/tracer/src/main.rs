//! Per-layer tracer of the `perfbench` benchmark.
//!
//! ```text
//! audit-perfbench-tracer <journal.ndjson> <scratch-dir> <campaigns>
//! ```
//!
//! Replays one benchmark campaign's journaled inputs — its genomes,
//! scores, Pareto fronts and records — through each layer's public
//! functions and prints one JSON object on stdout: the per-call cost of
//! every layer plus the raw spans (calls, items, busy seconds).
//! `<scratch-dir>` receives the throwaway journal and WAL files the
//! append layers write; `<campaigns>` is how many campaigns the fair-share
//! scheduler rotates over.
//!
//! Each layer's timed call lives in exactly one function named after
//! the layer (`pdn_transient_settle`, `net_wal_append`, …), so a change
//! that deletes a layer retires its metric by editing that function
//! alone. Spans are held in memory and written once, at exit.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use audit_core::ga::{rank_population, repair_genome, to_sub_block, Gene, Objectives};
use audit_core::harness::{MeasureSpec, Rig};
use audit_core::journal::{Journal, JournalRecord, JournalSink, JournalWriter};
use audit_core::resilient::genome_key;
use audit_core::{Audit, AuditOptions, ResilienceReport};
use audit_cpu::tier::{estimate_swing, TierModel};
use audit_cpu::{ChipSim, Inst, Program};
use audit_fleet::FairShare;
use audit_measure::{JsonValue, Oscilloscope};
use audit_net::{read_frame, write_frame, FrameOutcome, Msg, Wal};
use audit_pdn::Transient;
use audit_stressmark::Kernel;

/// Chip cycles of the mean-current probe `Rig` runs before the settle.
const PROBE_CYCLES: u64 = 2_000;
/// Distinct journaled genomes pushed through the harness layers.
const HARNESS_GENOMES: usize = 8;
/// Passes over those genomes; each layer reports its per-call mean.
const HARNESS_PASSES: usize = 3;
/// Passes over the whole journal for the cheap per-candidate layers.
const CHEAP_PASSES: usize = 5;
/// Candidates written to the WAL (two appends each).
const WAL_CANDIDATES: usize = 400;
/// Scheduler grants timed as one block.
const SCHEDULER_GRANTS: u64 = 200_000;

/// One layer's accumulated span: calls, work items, busy time.
#[derive(Debug, Default, Clone, Copy)]
struct Span {
    calls: u64,
    items: u64,
    busy: Duration,
}

/// Spans by layer name, in memory until exit.
#[derive(Debug, Default)]
struct Spans(BTreeMap<&'static str, Span>);

impl Spans {
    fn record(&mut self, layer: &'static str, items: u64, busy: Duration) {
        let span = self.0.entry(layer).or_default();
        span.calls += 1;
        span.items += items;
        span.busy += busy;
    }

    fn get(&self, layer: &str) -> Span {
        self.0.get(layer).copied().unwrap_or_default()
    }

    /// Mean busy seconds per call (0 for a layer never called).
    fn per_call(&self, layer: &str) -> f64 {
        let s = self.get(layer);
        if s.calls == 0 {
            0.0
        } else {
            s.busy.as_secs_f64() / s.calls as f64
        }
    }

    /// Mean busy seconds per work item (0 for a layer never called).
    fn per_item(&self, layer: &str) -> f64 {
        let s = self.get(layer);
        if s.items == 0 {
            0.0
        } else {
            s.busy.as_secs_f64() / s.items as f64
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object(
            self.0
                .iter()
                .map(|(name, s)| {
                    (
                        *name,
                        JsonValue::object(vec![
                            ("calls", JsonValue::from_u64(s.calls)),
                            ("items", JsonValue::from_u64(s.items)),
                            ("busy_s", JsonValue::from_f64(s.busy.as_secs_f64())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

// ---- one function per layer -------------------------------------------

/// `core.harness`: one full tier-2 evaluation, as the GA runs it.
fn core_harness_eval(spans: &mut Spans, rig: &Rig, programs: &[Program], spec: MeasureSpec) -> f64 {
    let t = Instant::now();
    let droop = rig.measure_aligned(programs, spec).max_droop();
    spans.record("core.harness.eval", 1, t.elapsed());
    droop
}

/// `cpu.chip` probe: the mean-current dry run on a cloned chip.
fn cpu_chip_probe(spans: &mut Spans, chip: &ChipSim) -> f64 {
    let t = Instant::now();
    let mut probe = chip.clone();
    let mut amps = 0.0;
    for _ in 0..PROBE_CYCLES {
        amps += probe.step().amps;
    }
    spans.record("cpu.chip.probe", PROBE_CYCLES, t.elapsed());
    amps / PROBE_CYCLES as f64
}

/// `pdn.transient` settle: the pure-PDN pre-settle at the mean current.
fn pdn_transient_settle(spans: &mut Spans, transient: &mut Transient, amps: f64, cycles: u64) {
    let t = Instant::now();
    transient.settle(amps, cycles);
    spans.record("pdn.transient.settle", cycles, t.elapsed());
}

/// `cpu.chip` step: the co-simulated warmup + recorded cycles.
fn cpu_chip_step(spans: &mut Spans, chip: &mut ChipSim, cycles: u64) -> Vec<f64> {
    let t = Instant::now();
    let amps: Vec<f64> = (0..cycles).map(|_| chip.step().amps).collect();
    spans.record("cpu.chip.step", cycles, t.elapsed());
    amps
}

/// `pdn.transient` step: the PDN half of co-simulation.
fn pdn_transient_step(spans: &mut Spans, transient: &mut Transient, amps: &[f64]) -> Vec<f64> {
    let t = Instant::now();
    let volts: Vec<f64> = amps.iter().map(|&a| transient.step(a)).collect();
    spans.record("pdn.transient.step", amps.len() as u64, t.elapsed());
    volts
}

/// `measure.scope`: sampling the recorded window.
fn measure_scope_sample(spans: &mut Spans, nominal: f64, decimation: u64, volts: &[f64]) -> f64 {
    let t = Instant::now();
    let mut scope = Oscilloscope::new(nominal).with_envelope_decimation(decimation);
    for &v in volts {
        scope.sample(v);
    }
    let droop = scope.stats().max_droop();
    spans.record("measure.scope.sample", volts.len() as u64, t.elapsed());
    droop
}

/// `cpu.tier`: the cascade's analytic fast-tier estimate.
fn cpu_tier_estimate(spans: &mut Spans, body: &[Inst], model: &TierModel) -> f64 {
    let t = Instant::now();
    let swing = black_box(estimate_swing(black_box(body), model));
    spans.record("cpu.tier.estimate", 1, t.elapsed());
    swing
}

/// `core.ga` rank: NSGA-II ranking of one generation.
fn core_ga_rank(spans: &mut Spans, objs: &[Objectives]) {
    let t = Instant::now();
    black_box(rank_population(black_box(objs)));
    spans.record("core.ga.rank", objs.len() as u64, t.elapsed());
}

/// `core.ga` repair: lint-driven re-roll of one bred genome.
fn core_ga_repair(spans: &mut Spans, genome: &[Gene], menu: &[audit_cpu::Opcode], seed: u64) {
    let mut child = genome.to_vec();
    let t = Instant::now();
    black_box(repair_genome(black_box(&mut child), menu, seed));
    spans.record("core.ga.repair", 1, t.elapsed());
}

/// `net.frame`: one eval request and its result, encoded, framed,
/// unframed and decoded. Returns the bytes both frames put on the wire.
fn net_frame_roundtrip(
    spans: &mut Spans,
    id: u64,
    genome: &[Gene],
    objectives: &Objectives,
) -> u64 {
    let eval = Msg::Eval {
        id,
        genome: genome.to_vec(),
    };
    let result = Msg::Result {
        id,
        objectives: objectives.clone(),
        resilience: ResilienceReport::default(),
        cached: false,
    };
    let t = Instant::now();
    let mut bytes = 0;
    for msg in [&eval, &result] {
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg.to_json()).expect("writing to a Vec cannot fail");
        bytes += wire.len() as u64;
        let FrameOutcome::Frame(payload) =
            read_frame(&mut wire.as_slice()).expect("reading from a slice cannot fail")
        else {
            panic!("a frame just written must read back whole");
        };
        let back = Msg::from_json(&payload).expect("a frame just written must decode");
        assert_eq!(&back, msg, "frame roundtrip changed the message");
    }
    spans.record("net.frame.roundtrip", bytes, t.elapsed());
    bytes
}

/// `net.wal`: the broker's dispatch + result write-ahead appends.
fn net_wal_append(
    spans: &mut Spans,
    wal: &mut Wal,
    key: u64,
    slot: usize,
    objectives: &Objectives,
) {
    let t = Instant::now();
    wal.log_dispatch(key, slot, 0).expect("WAL dispatch append");
    wal.log_result(key, objectives, &ResilienceReport::default())
        .expect("WAL result append");
    spans.record("net.wal.append", 2, t.elapsed());
}

/// `fleet.scheduler`: a block of fair-share grants.
fn fleet_scheduler_next(spans: &mut Spans, sched: &mut FairShare, grants: u64) {
    let t = Instant::now();
    for _ in 0..grants {
        black_box(sched.next(|_| true));
    }
    spans.record("fleet.scheduler.next", grants, t.elapsed());
}

/// `core.journal` append: one durable record append, a whole-file
/// rewrite (the first, `run_start`, creates the file). Returns the
/// file's size afterwards and the time the append took.
fn core_journal_append(
    spans: &mut Spans,
    writer: &mut Option<JournalWriter>,
    path: &Path,
    record: &JournalRecord,
) -> Result<(u64, Duration), String> {
    let t = Instant::now();
    match (writer.as_mut(), record) {
        (Some(w), r) => w.append(r).map_err(|e| format!("journal append: {e}"))?,
        (None, JournalRecord::RunStart { mode, meta, .. }) => {
            let created = JournalWriter::create(path, mode, meta.clone())
                .map_err(|e| format!("journal create: {e}"))?;
            *writer = Some(created);
        }
        (None, _) => return Err("journal does not open with run_start".into()),
    }
    let took = t.elapsed();
    spans.record("core.journal.append", 1, took);
    let size = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok((size, took))
}

/// `core.journal` load: reading and decoding a whole journal.
fn core_journal_load(spans: &mut Spans, path: &Path) -> Journal {
    let t = Instant::now();
    let journal = Journal::load(path).expect("journal load");
    spans.record("core.journal.load", 1, t.elapsed());
    journal
}

// ---- replay ---------------------------------------------------------------

/// The value of `flag` in the journal's recorded argv, if any.
fn argv_flag<'a>(meta: Option<&'a JsonValue>, flag: &str) -> Option<&'a str> {
    let argv = meta?.get("argv")?.as_array()?;
    let at = argv.iter().position(|v| v.as_str() == Some(flag))?;
    argv.get(at + 1)?.as_str()
}

fn run(journal_path: &Path, scratch: &Path, campaigns: u64) -> Result<JsonValue, String> {
    let mut spans = Spans::default();
    let journal = core_journal_load(&mut spans, journal_path);
    for _ in 1..CHEAP_PASSES {
        core_journal_load(&mut spans, journal_path);
    }

    let meta = journal.meta();
    let rig = match argv_flag(meta, "--chip").unwrap_or("bulldozer") {
        "phenom" => Rig::phenom(),
        _ => Rig::bulldozer(),
    };
    let threads: usize = argv_flag(meta, "--threads")
        .unwrap_or("4")
        .parse()
        .map_err(|e| format!("journal --threads: {e}"))?;
    let audit = Audit::new(rig.clone(), AuditOptions::paper());
    let fspec = match argv_flag(meta, "--kind").unwrap_or("res") {
        "ex" => audit.excitation_fitness_spec(threads),
        _ => {
            let period = journal
                .phase_payload("resonance")
                .and_then(|p| p.get("period_cycles"))
                .and_then(JsonValue::as_u64)
                .ok_or("journal has no resonance phase")?;
            let period = u32::try_from(period).map_err(|e| format!("resonance period: {e}"))?;
            audit.resonant_fitness_spec(threads, period)
        }
    };
    let ga = journal
        .last_ga_section()
        .ok_or("journal has no GA section")?;
    let generations = &ga.generations;
    if generations.is_empty() {
        return Err("journal has no generation records".into());
    }
    let programs_of = |genome: &[Gene]| {
        let kernel = Kernel::from_sub_blocks(
            "candidate",
            &to_sub_block(genome),
            fspec.sub_blocks,
            fspec.lp_slots,
        );
        vec![kernel.to_program(); fspec.threads]
    };

    // Harness layers: distinct genomes from generations spread evenly
    // over the search, so early and evolved candidates both weigh in.
    let mut seen = HashSet::new();
    let mut sample: Vec<&[Gene]> = Vec::new();
    for k in 0..HARNESS_GENOMES {
        let g = generations[k * generations.len() / HARNESS_GENOMES];
        let pop = &g.population;
        if let Some(genome) = (0..pop.len())
            .map(|i| &pop[(k + i) % pop.len()])
            .find(|genome| seen.insert(format!("{genome:?}")))
        {
            sample.push(genome);
        }
    }
    let spec = fspec.spec;
    let nominal = rig.pdn.nominal_voltage();
    let mut split_mismatches = 0u64;
    for _ in 0..HARNESS_PASSES {
        for genome in &sample {
            let programs = programs_of(genome);
            let whole = core_harness_eval(&mut spans, &rig, &programs, spec);
            let placement = rig
                .placement(programs.len())
                .map_err(|e| format!("placement: {e}"))?;
            let mut chip = ChipSim::with_start_offsets(
                &rig.chip,
                &placement,
                &programs,
                &vec![0; programs.len()],
            )
            .map_err(|e| format!("chip: {e}"))?;
            let mut transient = Transient::new(&rig.pdn, rig.chip.clock_hz);
            let mean = cpu_chip_probe(&mut spans, &chip);
            pdn_transient_settle(&mut spans, &mut transient, mean, spec.settle_cycles);
            let warmup = spec.warmup_cycles as usize;
            let amps = cpu_chip_step(
                &mut spans,
                &mut chip,
                spec.warmup_cycles + spec.record_cycles,
            );
            let volts = pdn_transient_step(&mut spans, &mut transient, &amps);
            let split = measure_scope_sample(
                &mut spans,
                nominal,
                spec.envelope_decimation,
                &volts[warmup..],
            );
            if split.to_bits() != whole.to_bits() {
                split_mismatches += 1;
            }
        }
    }

    // Per-candidate layers over every journaled genome.
    let model = TierModel::generic();
    let menu = ga.menu;
    let seed = ga.cfg.seed;
    let mut frame_bytes = 0u64;
    let mut frames = 0u64;
    for _ in 0..CHEAP_PASSES {
        for (gi, g) in generations.iter().enumerate() {
            let objs: Vec<Objectives> = match ga.fronts.iter().find(|f| f.index == g.index) {
                Some(front) => front.objectives.clone(),
                None => g.scores.iter().map(|&s| Objectives::scalar(s)).collect(),
            };
            core_ga_rank(&mut spans, &objs);
            for (slot, genome) in g.population.iter().enumerate() {
                cpu_tier_estimate(&mut spans, &to_sub_block(genome), &model);
                core_ga_repair(&mut spans, genome, menu, seed);
                let id = (gi * g.population.len() + slot) as u64;
                frame_bytes += net_frame_roundtrip(&mut spans, id, genome, &objs[slot]);
                frames += 1;
            }
        }
    }

    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let wal_path = scratch.join("trace.wal");
    let _ = std::fs::remove_file(&wal_path);
    let (mut wal, _) = Wal::open(&wal_path).map_err(|e| format!("WAL: {e}"))?;
    'wal: for g in generations {
        for (slot, genome) in g.population.iter().enumerate() {
            if spans.get("net.wal.append").calls as usize >= WAL_CANDIDATES {
                break 'wal;
            }
            let objs = Objectives::scalar(g.scores[slot]);
            net_wal_append(&mut spans, &mut wal, genome_key(genome), slot, &objs);
        }
    }
    wal.discard();

    let mut sched = FairShare::new();
    for id in 0..campaigns.max(1) {
        sched.register(id, 1);
    }
    for _ in 0..CHEAP_PASSES {
        fleet_scheduler_next(&mut spans, &mut sched, SCHEDULER_GRANTS);
    }

    let copy: PathBuf = scratch.join("trace.ndjson");
    let mut writer = None;
    let mut bytes_per_run = 0u64;
    let mut last_append = Duration::ZERO;
    for record in &journal.records {
        let (size, took) = core_journal_append(&mut spans, &mut writer, &copy, record)?;
        bytes_per_run += size;
        last_append = took;
    }
    let rewritten = std::fs::read(&copy).map_err(|e| e.to_string())?;
    let original = std::fs::read(journal_path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&copy);

    let eval = spans.per_call("core.harness.eval");
    let parts = spans.per_call("cpu.chip.probe")
        + spans.per_call("pdn.transient.settle")
        + spans.per_call("cpu.chip.step")
        + spans.per_call("pdn.transient.step")
        + spans.per_call("measure.scope.sample");
    let num = |v: f64| JsonValue::from_f64(v);
    let metrics = JsonValue::object(vec![
        ("core.harness.eval_ms", num(eval * 1e3)),
        ("core.harness.unattributed_frac", num(1.0 - parts / eval)),
        (
            "cpu.chip.probe_ms",
            num(spans.per_call("cpu.chip.probe") * 1e3),
        ),
        (
            "pdn.transient.settle_ms",
            num(spans.per_call("pdn.transient.settle") * 1e3),
        ),
        (
            "cpu.chip.step_ns",
            num(spans.per_item("cpu.chip.step") * 1e9),
        ),
        (
            "pdn.transient.step_ns",
            num(spans.per_item("pdn.transient.step") * 1e9),
        ),
        (
            "measure.scope.sample_ns",
            num(spans.per_item("measure.scope.sample") * 1e9),
        ),
        (
            "cpu.tier.estimate_us",
            num(spans.per_call("cpu.tier.estimate") * 1e6),
        ),
        ("core.ga.rank_us", num(spans.per_call("core.ga.rank") * 1e6)),
        (
            "core.ga.repair_us",
            num(spans.per_call("core.ga.repair") * 1e6),
        ),
        (
            "net.frame.roundtrip_us",
            num(spans.per_call("net.frame.roundtrip") * 1e6),
        ),
        (
            "net.frame.bytes",
            num(frame_bytes as f64 / frames.max(1) as f64),
        ),
        (
            "net.wal.append_us",
            num(spans.per_item("net.wal.append") * 1e6),
        ),
        (
            "fleet.scheduler.next_ns",
            num(spans.per_item("fleet.scheduler.next") * 1e9),
        ),
        (
            "core.journal.append_ms",
            num(spans.per_call("core.journal.append") * 1e3),
        ),
        (
            "core.journal.append_ms_last",
            num(last_append.as_secs_f64() * 1e3),
        ),
        ("core.journal.bytes_per_run", num(bytes_per_run as f64)),
        (
            "core.journal.load_ms",
            num(spans.per_call("core.journal.load") * 1e3),
        ),
    ]);
    Ok(JsonValue::object(vec![
        ("metrics", metrics),
        ("spans", spans.to_json()),
        ("harness_genomes", JsonValue::from_u64(sample.len() as u64)),
        ("split_mismatches", JsonValue::from_u64(split_mismatches)),
        (
            "journal_rewrite_identical",
            JsonValue::Bool(rewritten == original),
        ),
    ]))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [journal, scratch, campaigns] = args.as_slice() else {
        eprintln!("usage: audit-perfbench-tracer <journal.ndjson> <scratch-dir> <campaigns>");
        return ExitCode::from(2);
    };
    let Ok(campaigns) = campaigns.parse::<u64>() else {
        eprintln!("campaigns: cannot parse `{campaigns}`");
        return ExitCode::from(2);
    };
    match run(Path::new(journal), Path::new(scratch), campaigns) {
        Ok(report) => {
            println!("{}", report.encode());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("audit-perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
