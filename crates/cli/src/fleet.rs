//! `audit fleet` — the multi-tenant campaign manager subcommands.
//!
//! `fleet serve` hosts the manager: one socket where workers
//! (`audit work`, unchanged) and tenants (`audit fleet submit`) both
//! connect, many concurrent GA campaigns fair-share-scheduled over the
//! shared worker pool. Each submitted campaign replays the same code
//! path a solo `audit generate --checkpoint` takes — same journal
//! writer, same metadata, same engine — with evaluations dispatched
//! through the pool, so its journal is byte-identical to the solo
//! run's (see docs/FLEET.md). `fleet submit` sends a campaign and
//! blocks until it finishes; `fleet status` and `fleet metrics` read
//! the manager's plain-text endpoints.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use audit_core::audit::Audit;
use audit_core::journal::{Journal, JournalWriter};
use audit_core::resonance::ResonanceResult;
use audit_fleet::{CampaignSpec, Fleet, FleetConfig, PoolHandle, Submission};
use audit_measure::json::JsonValue;
use audit_net::NetFaultPlan;

use crate::args::{ArgError, Args};
use crate::commands::{core_err, eval_context};
use crate::platform;

/// `audit fleet <serve|submit|status|metrics>`.
pub fn fleet(args: &Args) -> Result<(), ArgError> {
    match args.positionals().get(1).map(String::as_str) {
        Some("serve") => serve(args),
        Some("submit") => submit(args),
        Some("status") => status(args),
        Some("metrics") => metrics(args),
        Some(other) => Err(ArgError(format!(
            "unknown fleet subcommand `{other}` (expected serve, submit, status, or metrics)"
        ))),
        None => Err(ArgError(
            "usage: audit fleet (serve | submit | status | metrics) …".into(),
        )),
    }
}

/// `audit fleet serve`: host the campaign manager.
fn serve(args: &Args) -> Result<(), ArgError> {
    let listen = args.str_flag("--listen", "127.0.0.1:0");
    let min_workers = args.num_flag("--min-workers", 1usize)?;
    let campaigns_target = args.num_flag("--campaigns", 0usize)?;
    let window = args.num_flag("--window", 2usize)?;
    let heartbeat = args.num_flag("--heartbeat", 1000u64)?;
    let dead_after = args.num_flag("--dead-after", 10_000u64)?;
    if heartbeat == 0 {
        return Err(ArgError("--heartbeat must be at least 1 ms".into()));
    }
    if dead_after <= heartbeat {
        return Err(ArgError(format!(
            "--dead-after ({dead_after} ms) must exceed --heartbeat ({heartbeat} ms); \
             a worker must miss at least one ping before it is declared lost"
        )));
    }
    let verify_fraction = args.num_flag("--verify-fraction", 0.0f64)?;
    if !(0.0..=1.0).contains(&verify_fraction) {
        return Err(ArgError(format!(
            "--verify-fraction must be within 0..=1, got {verify_fraction}"
        )));
    }
    let chaos = match args.opt_flag("--net-faults") {
        Some(spec) => NetFaultPlan::parse(&spec).map_err(core_err)?,
        None => NetFaultPlan::disabled(),
    };
    args.reject_unknown()?;

    let cfg = FleetConfig {
        window: window.max(1),
        heartbeat: Duration::from_millis(heartbeat),
        dead_after: Duration::from_millis(dead_after),
        verify_fraction,
        chaos,
        ..FleetConfig::default()
    };
    let mut manager = Fleet::bind(&listen, cfg).map_err(core_err)?;
    println!("fleet listening on {}", manager.addr());
    println!("  workers join with : audit work --connect {}", manager.addr());
    println!(
        "  submit with       : audit fleet submit --connect {} --checkpoint run.ndjson [generate flags]",
        manager.addr()
    );
    if min_workers > 0 {
        println!("waiting for {} worker(s)…", min_workers);
        manager.wait_for_workers(min_workers).map_err(core_err)?;
    }

    // Each campaign runs on its own thread (the GA engine blocks per
    // round); the pool thread interleaves their dispatches.
    let finished = Arc::new(AtomicUsize::new(0));
    let mut runners = Vec::new();
    loop {
        if campaigns_target > 0 && finished.load(Ordering::SeqCst) >= campaigns_target {
            break;
        }
        if let Some(sub) = manager.next_submission(Duration::from_millis(200)) {
            let pool = manager.handle();
            let finished = Arc::clone(&finished);
            runners.push(std::thread::spawn(move || {
                run_campaign(&pool, sub);
                finished.fetch_add(1, Ordering::SeqCst);
            }));
        }
    }
    for runner in runners {
        runner.join().ok();
    }
    println!(
        "fleet served {} campaign(s); shutting down",
        finished.load(Ordering::SeqCst)
    );
    manager.shutdown();
    Ok(())
}

/// Drives one submitted campaign to completion and answers the tenant.
fn run_campaign(pool: &PoolHandle, mut sub: Submission) {
    let checkpoint = sub.checkpoint.clone();
    let mut campaign_id = None;
    let outcome = run_campaign_inner(pool, &mut sub, &mut campaign_id);
    let id = campaign_id.unwrap_or(0);
    match outcome {
        Ok(summary) => {
            println!("campaign {id} finished: {checkpoint}");
            sub.finish(id, true, &summary);
        }
        Err(e) => {
            eprintln!("campaign {id} failed ({checkpoint}): {e}");
            sub.finish(id, false, &e.to_string());
        }
    }
}

/// The managed counterpart of `run_distributed`: reconstructs the
/// campaign's configuration from its argv (or, on resume, from the
/// journal's `run_start` metadata — exactly as `generate --resume`
/// does), registers it with the pool, and evolves through a
/// [`CampaignDispatcher`](audit_fleet::CampaignDispatcher). Dispatch is
/// write-ahead-logged to `<checkpoint>.wal`; the WAL is deleted once
/// the campaign completes and kept when it fails, so a manager killed
/// mid-campaign resumes without re-evaluating logged work.
fn run_campaign_inner(
    pool: &PoolHandle,
    sub: &mut Submission,
    campaign_id: &mut Option<u64>,
) -> Result<String, ArgError> {
    let checkpoint = sub.checkpoint.clone();
    let (saved, journal) = if sub.resume {
        let journal = Journal::load(&checkpoint).map_err(core_err)?;
        if journal.mode() != Some("generate") {
            return Err(ArgError(format!(
                "{checkpoint}: not a `generate` checkpoint (mode {:?})",
                journal.mode().unwrap_or("<none>")
            )));
        }
        let meta = journal
            .meta()
            .ok_or_else(|| ArgError(format!("{checkpoint}: journal has no run_start record")))?;
        (platform::args_from_meta(meta)?, Some(journal))
    } else {
        (Args::parse(sub.argv.clone())?, None)
    };
    let complete = journal.as_ref().is_some_and(Journal::is_complete);
    let rig = platform::rig_from(&saved)?;
    let threads = saved.num_flag("--threads", 4usize)?;
    let kind = saved.str_flag("--kind", "res");
    let opts = platform::options_from(&saved)?;
    let audit = Audit::new(rig, opts);

    let mut writer = match &journal {
        Some(_) => JournalWriter::resume(&checkpoint).map_err(core_err)?,
        None => JournalWriter::create(&checkpoint, "generate", platform::generate_meta(&saved))
            .map_err(core_err)?,
    };
    // The resonance sweep runs on the manager, like the solo broker
    // path: it is cheap next to the GA, and the pool needs its result
    // to describe the fitness function to workers.
    let resonance = match journal.as_ref().and_then(|j| j.phase_payload("resonance")) {
        Some(payload) => ResonanceResult::from_json(payload).map_err(core_err)?,
        None => audit
            .journaled_resonance(threads, &mut writer)
            .map_err(core_err)?,
    };
    let (fspec, name, seed_miss_load) = match kind.as_str() {
        "res" => (
            audit.resonant_fitness_spec(threads, resonance.period_cycles),
            format!("A-Res-{threads}T"),
            false,
        ),
        "ex" => (
            audit.excitation_fitness_spec(threads),
            format!("A-Ex-{threads}T"),
            true,
        ),
        other => return Err(ArgError(format!("unknown kind `{other}` (res | ex)"))),
    };
    let ctx = eval_context(&saved, fspec)?;
    let id = pool
        .register(CampaignSpec {
            name: campaign_label(&checkpoint),
            ctx,
            seed: audit.options().ga.seed,
            weight: sub.weight,
            wal: Some(format!("{checkpoint}.wal").into()),
        })
        .map_err(core_err)?;
    *campaign_id = Some(id);
    sub.respond_accepted(id);
    println!("campaign {id} started: {checkpoint}");

    let mut dispatcher = pool.dispatcher(id);
    let ga_resume = journal.as_ref().filter(|j| j.last_ga_section().is_some());
    let run = audit.evolve_dispatched(
        &name,
        &fspec,
        resonance,
        seed_miss_load,
        &[],
        &mut dispatcher,
        &mut writer,
        ga_resume,
    );
    match run {
        Ok(run) => {
            // The journal now supersedes the WAL.
            pool.finish(id, true);
            if !complete {
                writer.finish().map_err(core_err)?;
            }
            Ok(format!(
                "best droop {:.6} V after {} generation(s); checkpoint {checkpoint} \
                 ({} records)",
                run.best_droop,
                run.ga.generations_run,
                writer.len()
            ))
        }
        Err(e) => {
            // Keep the WAL: a resubmit with --resume prefills from it.
            pool.finish(id, false);
            Err(core_err(e))
        }
    }
}

/// The campaign's display name (metrics/status label): the checkpoint
/// file stem.
fn campaign_label(checkpoint: &str) -> String {
    Path::new(checkpoint)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| checkpoint.to_string())
}

/// `audit fleet submit`: send a campaign to a manager and block until
/// it completes.
fn submit(args: &Args) -> Result<(), ArgError> {
    let connect = args.opt_flag("--connect").ok_or_else(|| {
        ArgError("audit fleet submit needs --connect HOST:PORT or unix:/path".into())
    })?;
    let (checkpoint, resume) = match (args.opt_flag("--checkpoint"), args.opt_flag("--resume")) {
        (Some(c), None) => (c, false),
        (None, Some(r)) => (r, true),
        (Some(_), Some(_)) => {
            return Err(ArgError(
                "give either --checkpoint (fresh) or --resume (continue), not both".into(),
            ))
        }
        (None, None) => {
            return Err(ArgError(
                "audit fleet submit needs --checkpoint run.ndjson (or --resume run.ndjson)"
                    .into(),
            ))
        }
    };
    let weight = args.num_flag("--weight", 1u32)?;
    if weight == 0 {
        return Err(ArgError("--weight must be at least 1".into()));
    }
    // The submitted argv is the normalized result-flag list — the same
    // normalization `generate --checkpoint` journals, so the manager's
    // replay produces byte-identical `run_start` metadata.
    let meta = platform::generate_meta(args);
    args.reject_unknown()?;
    let argv: Vec<String> = meta
        .get("argv")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();

    println!("submitting {checkpoint} to {connect}…");
    let (campaign, ok, summary) =
        audit_fleet::submit(&connect, argv, &checkpoint, weight, resume).map_err(core_err)?;
    if !ok {
        return Err(ArgError(format!("campaign {campaign} failed: {summary}")));
    }
    println!("campaign {campaign} finished: {summary}");
    Ok(())
}

/// `audit fleet status`: the manager's per-campaign progress report.
fn status(args: &Args) -> Result<(), ArgError> {
    let connect = args.opt_flag("--connect").ok_or_else(|| {
        ArgError("audit fleet status needs --connect HOST:PORT or unix:/path".into())
    })?;
    args.reject_unknown()?;
    print!("{}", audit_fleet::status(&connect).map_err(core_err)?);
    Ok(())
}

/// `audit fleet metrics`: the manager's plain-text scrape.
fn metrics(args: &Args) -> Result<(), ArgError> {
    let connect = args.opt_flag("--connect").ok_or_else(|| {
        ArgError("audit fleet metrics needs --connect HOST:PORT or unix:/path".into())
    })?;
    args.reject_unknown()?;
    print!("{}", audit_fleet::scrape(&connect).map_err(core_err)?);
    Ok(())
}
