//! End-to-end tests driving the compiled `audit` binary.

use std::process::Command;

fn audit(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_every_command() {
    let out = audit(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "resonance",
        "generate",
        "measure",
        "failure",
        "list",
        "spice",
    ] {
        assert!(text.contains(cmd), "help missing `{cmd}`");
    }
}

#[test]
fn no_arguments_prints_help() {
    let out = audit(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn list_names_benchmarks_and_stressmarks() {
    let out = audit(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in ["zeusmp", "swaptions", "SM1", "SM-Res"] {
        assert!(text.contains(name), "list missing `{name}`");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = audit(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("frobnicate"));
}

#[test]
fn unknown_flag_fails_loudly() {
    let out = audit(&["list", "--turbo"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--turbo"));
}

#[test]
fn unknown_workload_names_the_culprit() {
    let out = audit(&["measure", "--workload", "crysis", "--fast"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("crysis"));
}

#[test]
fn measure_reports_droop() {
    let out = audit(&[
        "measure",
        "--stressmark",
        "sm-res",
        "--threads",
        "2",
        "--fast",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("max droop"));
    assert!(text.contains("mV"));
}

#[test]
fn measure_respects_chip_flag() {
    let out = audit(&[
        "measure",
        "--stressmark",
        "sm2",
        "--chip",
        "phenom",
        "--fast",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("phenom"));
    // SM1 must be refused on the Phenom-class part.
    let out = audit(&[
        "measure",
        "--stressmark",
        "sm1",
        "--chip",
        "phenom",
        "--fast",
    ]);
    assert!(!out.status.success());
}

#[test]
fn generate_saves_and_replays_a_prog_file() {
    let dir = std::env::temp_dir().join("audit-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("gen.prog");
    let asm = dir.join("gen.asm");

    let out = audit(&[
        "generate",
        "--fast",
        "--threads",
        "2",
        "--save",
        prog.to_str().unwrap(),
        "--out",
        asm.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("best droop"));

    // The NASM artifact looks like assembly.
    let asm_text = std::fs::read_to_string(&asm).unwrap();
    assert!(asm_text.contains("BITS 64"));

    // The .prog artifact replays through `measure --file`.
    let out = audit(&[
        "measure",
        "--file",
        prog.to_str().unwrap(),
        "--threads",
        "2",
        "--fast",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("max droop"));
}

#[test]
fn checkpointed_generate_survives_a_kill() {
    let dir = std::env::temp_dir().join("audit-cli-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.ndjson");
    let full_prog = dir.join("full.prog");
    let resumed_prog = dir.join("resumed.prog");

    // Full checkpointed run: records the configuration and every
    // generation in the journal.
    let out = audit(&[
        "generate",
        "--fast",
        "--threads",
        "2",
        "--seed",
        "11",
        "--checkpoint",
        journal.to_str().unwrap(),
        "--save",
        full_prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let full_text = stdout(&out);
    let droop_line = |text: &str| {
        text.lines()
            .find(|l| l.contains("best droop"))
            .map(str::to_string)
            .expect("droop line")
    };

    // Simulate a kill partway through the GA: drop everything after
    // the second generation record (and with it run_end/ga_end).
    let lines: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let cut = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("\"generation\""))
        .map(|(i, _)| i)
        .nth(1)
        .expect("at least two generation records");
    assert!(cut + 1 < lines.len(), "cut must drop something");
    std::fs::write(&journal, format!("{}\n", lines[..=cut].join("\n"))).unwrap();

    // Resume needs no configuration flags — they come from the journal.
    let out = audit(&[
        "generate",
        "--resume",
        journal.to_str().unwrap(),
        "--save",
        resumed_prog.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let resumed_text = stdout(&out);
    assert!(resumed_text.contains("resuming"), "{resumed_text}");
    assert!(resumed_text.contains("ga_start"), "{resumed_text}");

    // Bit-identical final stressmark and droop.
    assert_eq!(
        std::fs::read_to_string(&full_prog).unwrap(),
        std::fs::read_to_string(&resumed_prog).unwrap()
    );
    assert_eq!(droop_line(&full_text), droop_line(&resumed_text));

    // The journal is complete again after the resumed run.
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.lines().last().unwrap().contains("run_end"), "{text}");

    // Resuming a *complete* journal replays without re-running and
    // reports the same result once more.
    let out = audit(&["generate", "--resume", journal.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(droop_line(&full_text), droop_line(&stdout(&out)));

    // A non-generate journal is refused.
    let bogus = dir.join("bogus.ndjson");
    std::fs::write(&bogus, "{\"kind\":\"run_start\",\"schema\":1,\"mode\":\"measure\",\"meta\":{}}\n")
        .unwrap();
    let out = audit(&["generate", "--resume", bogus.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not a `generate` checkpoint"));
}

#[test]
fn eval_batch_journals_still_resume() {
    // `--eval-batch` no longer selects anything: it is a hidden no-op so
    // that checkpoints whose `run_start` argv recorded it still resume.
    let dir = std::env::temp_dir().join("audit-cli-eval-batch-test");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.ndjson");
    let out = audit(&[
        "generate",
        "--fast",
        "--threads",
        "2",
        "--seed",
        "11",
        "--eval-batch",
        "4",
        "--checkpoint",
        journal.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let full_text = stdout(&out);

    // Record the flag the way older builds journaled it, then cut the
    // journal after its second generation record.
    let mut lines: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert!(!lines[0].contains("--eval-batch"), "{}", lines[0]);
    lines[0] = lines[0].replacen("\"argv\":[", "\"argv\":[\"--eval-batch\",\"4\",", 1);
    assert!(lines[0].contains("\"--eval-batch\",\"4\""), "{}", lines[0]);
    let cut = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("\"generation\""))
        .map(|(i, _)| i)
        .nth(1)
        .expect("at least two generation records");
    assert!(cut + 1 < lines.len(), "cut must drop something");
    std::fs::write(&journal, format!("{}\n", lines[..=cut].join("\n"))).unwrap();

    let out = audit(&["generate", "--resume", journal.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Same printed result (wall-clock telemetry aside)…
    let result = |text: &str| -> Vec<String> {
        text.lines()
            .skip_while(|l| !l.starts_with("A-Res"))
            .filter(|l| !l.contains("wall time"))
            .map(str::to_string)
            .collect()
    };
    assert!(!result(&full_text).is_empty(), "{full_text}");
    assert_eq!(result(&full_text), result(&stdout(&out)));
    // …and the same journal, modulo `wall_s`.
    let strip_wall = |line: &str| -> String {
        match line.find("\"wall_s\":") {
            Some(start) => {
                let rest = &line[start..];
                let end = rest.find([',', '}']).map_or(line.len(), |e| start + e);
                format!("{}{}", &line[..start], &line[end..])
            }
            None => line.to_string(),
        }
    };
    let resumed: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .map(strip_wall)
        .collect();
    let expected: Vec<String> = lines.iter().map(|l| strip_wall(l)).collect();
    assert_eq!(resumed, expected);

    // The hidden flag still takes a count of at least one.
    let out = audit(&["generate", "--fast", "--eval-batch", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--eval-batch"), "{}", stderr(&out));
}

#[test]
fn checkpointed_vmin_search_survives_a_kill() {
    let dir = std::env::temp_dir().join("audit-cli-vmin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("vmin.ndjson");

    // Full checkpointed bisection under injected machine crashes.
    let flags = [
        "failure",
        "--stressmark",
        "sm-res",
        "--threads",
        "2",
        "--fast",
        "--faults",
        "5:crash=0.2",
        "--retries",
        "4",
    ];
    let out = audit(&[&flags[..], &["--checkpoint", journal.to_str().unwrap()]].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let full_text = stdout(&out);
    let fails_line = |text: &str| {
        text.lines()
            .find(|l| l.contains("fails at"))
            .map(str::to_string)
            .expect("fails-at line")
    };
    let full_journal = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = full_journal.lines().collect();
    assert!(
        lines.iter().any(|l| l.contains("\"vmin_step\"")),
        "{full_journal}"
    );

    // Kill 1: cut right after the second *terminal* probe outcome, then
    // tear the next line mid-record — the torn final line must be
    // treated as a clean truncation, not a parse error.
    let cut = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            l.contains("\"outcome\":\"failed\"") || l.contains("\"outcome\":\"passed\"")
        })
        .map(|(i, _)| i)
        .nth(1)
        .expect("at least two settled probes");
    let half = lines[cut + 1].len() / 2;
    let torn = format!(
        "{}\n{}",
        lines[..=cut].join("\n"),
        &lines[cut + 1][..half]
    );
    std::fs::write(&journal, torn).unwrap();
    let out = audit(&["failure", "--resume", journal.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let resumed_text = stdout(&out);
    assert!(resumed_text.contains("resuming"), "{resumed_text}");
    assert!(resumed_text.contains("replayed"), "{resumed_text}");
    assert_eq!(fails_line(&full_text), fails_line(&resumed_text));
    // Cut on a step boundary: the finished journal is byte-identical to
    // the uninterrupted one.
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), full_journal);

    // Kill 2: a valid-JSON final line with no `kind` (write buffered,
    // record half-flushed) is also a clean truncation.
    let kindless = format!("{}\n{{}}\n", lines[..=cut].join("\n"));
    std::fs::write(&journal, kindless).unwrap();
    let out = audit(&["failure", "--resume", journal.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(fails_line(&full_text), fails_line(&stdout(&out)));
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), full_journal);

    // Kill 3: cut mid-step, right after a write-ahead `pending` record
    // whose outcome never landed. The orphan pending line stays in the
    // journal (it is the evidence of the kill); the step is re-probed
    // and the search still reaches the identical answer, with every
    // settled outcome matching the uninterrupted run's.
    let pending_cut = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("\"outcome\":\"pending\""))
        .map(|(i, _)| i)
        .nth(2)
        .expect("at least three pending records");
    std::fs::write(&journal, format!("{}\n", lines[..=pending_cut].join("\n"))).unwrap();
    let out = audit(&["failure", "--resume", journal.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(fails_line(&full_text), fails_line(&stdout(&out)));
    let settled = |text: &str| {
        text.lines()
            .filter(|l| {
                l.contains("\"outcome\":\"failed\"") || l.contains("\"outcome\":\"passed\"")
            })
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let rejournal = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(settled(&rejournal), settled(&full_journal));
    assert!(rejournal.lines().last().unwrap().contains("run_end"));

    // A non-failure journal is refused.
    let bogus = dir.join("bogus.ndjson");
    std::fs::write(
        &bogus,
        "{\"kind\":\"run_start\",\"schema\":1,\"mode\":\"generate\",\"meta\":{}}\n",
    )
    .unwrap();
    let out = audit(&["failure", "--resume", bogus.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not a `failure` checkpoint"));
}

#[test]
fn lint_json_output_shape_is_pinned() {
    // Golden test: the machine-readable lint output is a contract.
    // Every diagnostic of a `.prog` file carries a byte `span` — the
    // offending instruction's for per-instruction findings, the whole
    // file's for program-level ones.
    let dir = std::env::temp_dir().join("audit-cli-lint-json-test");
    std::fs::create_dir_all(&dir).unwrap();

    // Per-instruction finding: a dependent add behind an IDiv (AUD104).
    let golden = dir.join("golden.prog");
    std::fs::write(
        &golden,
        "# name: golden\nidiv r0 r14 r15 t=1.00\niadd r1 r0 r15 t=1.00\n",
    )
    .unwrap();
    let out = audit(&["lint", golden.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(
        stdout(&out),
        format!(
            "{{\"program\":\"{}\",\"diagnostics\":[\
             {{\"code\":\"AUD104\",\"severity\":\"warning\",\
             \"message\":\"unpipelined IDiv feeds a dependent consumer; \
             the window drains behind it\",\
             \"inst\":0,\"span\":{{\"line\":2,\"start\":15,\"end\":37}},\
             \"help\":\"break the dependence unless the stall is the \
             point of the stressmark\"}}]}}\n",
            golden.display()
        )
    );

    // Program-level finding: an all-NOP body (AUD102, no inst index)
    // gets the whole file as its span.
    let nops = dir.join("nops.prog");
    std::fs::write(&nops, format!("# name: all-nops\n{}", "nop\n".repeat(8))).unwrap();
    let out = audit(&["lint", nops.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(
        stdout(&out),
        format!(
            "{{\"program\":\"{}\",\"diagnostics\":[\
             {{\"code\":\"AUD102\",\"severity\":\"warning\",\
             \"message\":\"program body is entirely NOPs\",\
             \"span\":{{\"line\":1,\"start\":0,\"end\":49}},\
             \"help\":\"a pure-NOP loop draws no switching current at \
             all\"}}]}}\n",
            nops.display()
        )
    );
}

#[test]
fn checkpointed_minimize_survives_a_kill() {
    let dir = std::env::temp_dir().join("audit-cli-minimize-test");
    std::fs::create_dir_all(&dir).unwrap();
    let witness = dir.join("witness.prog");
    let journal = dir.join("min.ndjson");
    let full_kernel = dir.join("full.prog");
    let resumed_kernel = dir.join("resumed.prog");

    // A witness with a dense resonant core padded by NOP freeloaders.
    let mut text = String::from("# name: padded-witness\n");
    for i in 0..8 {
        text.push_str(&format!("simdfma f{} f12 f13 t=1.00\n", i % 4));
    }
    for _ in 0..8 {
        text.push_str("nop\n");
    }
    std::fs::write(&witness, text).unwrap();

    // Full checkpointed minimization.
    let out = audit(&[
        "minimize",
        witness.to_str().unwrap(),
        "--fast",
        "--threads",
        "2",
        "--checkpoint",
        journal.to_str().unwrap(),
        "--out",
        full_kernel.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let full_text = stdout(&out);
    assert!(full_text.contains("minimized"), "{full_text}");
    let full_journal = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = full_journal.lines().collect();
    assert!(
        lines.iter().any(|l| l.contains("\"minimize_step\"")),
        "{full_journal}"
    );
    // The kernel is strictly smaller than the witness and lints clean.
    let kernel_text = std::fs::read_to_string(&full_kernel).unwrap();
    assert!(kernel_text.lines().count() < 17, "{kernel_text}");
    let out = audit(&["lint", full_kernel.to_str().unwrap(), "--deny-warnings"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Kill right after the first terminal probe, then resume: the
    // stitched journal must be byte-identical to the uninterrupted
    // one and the kernel must match.
    let cut = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("\"minimize_step\"") && l.contains("\"droop\""))
        .map(|(i, _)| i)
        .next()
        .expect("at least one settled probe");
    assert!(cut + 1 < lines.len(), "cut must drop something");
    std::fs::write(&journal, format!("{}\n", lines[..=cut].join("\n"))).unwrap();
    let out = audit(&[
        "minimize",
        "--resume",
        journal.to_str().unwrap(),
        "--out",
        resumed_kernel.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let resumed_text = stdout(&out);
    assert!(resumed_text.contains("resuming"), "{resumed_text}");
    assert!(resumed_text.contains("replayed"), "{resumed_text}");
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), full_journal);
    assert_eq!(
        std::fs::read_to_string(&resumed_kernel).unwrap(),
        kernel_text
    );

    // A non-minimize journal is refused as a --resume target, and a
    // non-generate journal is refused as an *input*.
    let bogus = dir.join("bogus.ndjson");
    std::fs::write(
        &bogus,
        "{\"kind\":\"run_start\",\"schema\":1,\"mode\":\"failure\",\"meta\":{}}\n",
    )
    .unwrap();
    let out = audit(&["minimize", "--resume", bogus.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not a `minimize` checkpoint"));
    let out = audit(&["minimize", bogus.to_str().unwrap(), "--fast"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not a `generate` checkpoint"));
}

#[test]
fn measure_with_faults_reports_resilience() {
    let out = audit(&[
        "measure",
        "--stressmark",
        "sm-res",
        "--threads",
        "2",
        "--fast",
        "--faults",
        "7:noise=0.002",
        "--repeat",
        "3",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("resilience"), "{text}");
    assert!(text.contains("max droop"), "{text}");
}

#[test]
fn spice_writes_a_deck() {
    let dir = std::env::temp_dir().join("audit-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let deck = dir.join("pdn.sp");
    let out = audit(&[
        "spice",
        "--out",
        deck.to_str().unwrap(),
        "--cycles",
        "500",
        "--fast",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&deck).unwrap();
    assert!(text.contains(".tran"));
    assert!(text.contains("PWL("));
}
