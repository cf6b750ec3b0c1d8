//! Black-box tests of the `goofi` binary itself (the GUI-substitute
//! surface a user actually touches).

use std::process::Command;

fn goofi(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_goofi"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmpdb(name: &str) -> String {
    let dir = std::env::temp_dir().join("goofi_bin_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

#[test]
fn no_args_prints_usage() {
    let (ok, stdout, _) = goofi(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, stderr) = goofi(&["launch-missiles"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn workers_zero_is_rejected_with_clear_error() {
    let db = tmpdb("bin-w0.json");
    let (ok, _, stderr) = goofi(&["run", "--db", &db, "--campaign", "c", "--workers", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--workers"), "{stderr}");
    assert!(stderr.contains("positive integer"), "{stderr}");
    assert!(stderr.contains("`0`"), "{stderr}");
}

#[test]
fn workers_non_numeric_is_rejected_with_clear_error() {
    let db = tmpdb("bin-wx.json");
    let (ok, _, stderr) = goofi(&[
        "resume",
        "--db",
        &db,
        "--campaign",
        "c",
        "--workers",
        "many",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--workers"), "{stderr}");
    assert!(stderr.contains("`many`"), "{stderr}");
}

#[test]
fn submit_rejects_workers_naming_the_server_option() {
    // The daemon sizes its worker pool at `goofi serve`; the flag is
    // refused before any connection is attempted.
    let (ok, _, stderr) = goofi(&[
        "submit",
        "--addr",
        "127.0.0.1:1",
        "--campaign",
        "c",
        "--workers",
        "4",
    ]);
    assert!(!ok);
    assert!(stderr.contains("goofi serve --workers"), "{stderr}");
}

#[test]
fn bad_telemetry_mode_is_rejected() {
    let db = tmpdb("bin-tm.json");
    let (ok, _, stderr) = goofi(&["run", "--db", &db, "--campaign", "c", "--telemetry", "loud"]);
    assert!(!ok);
    assert!(stderr.contains("--telemetry"), "{stderr}");
    assert!(stderr.contains("`loud`"), "{stderr}");
}

#[test]
fn telemetry_run_and_report_roundtrip() {
    let db = tmpdb("bin-tel.json");
    let (ok, _, _) = goofi(&[
        "configure",
        "--db",
        &db,
        "--target",
        "t",
        "--workload",
        "fib10",
    ]);
    assert!(ok);
    let (ok, _, _) = goofi(&[
        "setup",
        "--db",
        &db,
        "--campaign",
        "ct",
        "--target",
        "t",
        "--workload",
        "fib10",
        "--experiments",
        "6",
        "--window",
        "0:40",
    ]);
    assert!(ok);
    let (ok, stdout, stderr) = goofi(&[
        "run",
        "--db",
        &db,
        "--campaign",
        "ct",
        "--workers",
        "2",
        "--telemetry",
        "trace",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("Telemetry for campaign 'ct'"), "{stdout}");
    assert!(stdout.contains("phase.experiment"), "{stdout}");

    let trace = tmpdb("bin-tel-trace.jsonl");
    let (ok, stdout, stderr) = goofi(&[
        "report",
        "--db",
        &db,
        "--campaign",
        "ct",
        "--trace-out",
        &trace,
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("phase.experiment"), "{stdout}");
    assert!(stdout.contains("worker"), "{stdout}");
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    assert!(!jsonl.is_empty());
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
}

#[test]
fn report_without_telemetry_omits_section_and_rejects_trace_out() {
    let db = tmpdb("bin-notel.json");
    goofi(&[
        "configure",
        "--db",
        &db,
        "--target",
        "t",
        "--workload",
        "fib10",
    ]);
    goofi(&[
        "setup",
        "--db",
        &db,
        "--campaign",
        "cn",
        "--target",
        "t",
        "--workload",
        "fib10",
        "--experiments",
        "4",
        "--window",
        "0:40",
    ]);
    let (ok, _, _) = goofi(&["run", "--db", &db, "--campaign", "cn"]);
    assert!(ok);
    let (ok, stdout, _) = goofi(&["report", "--db", &db, "--campaign", "cn"]);
    assert!(ok);
    assert!(!stdout.contains("phase.experiment"), "{stdout}");
    let (ok, _, stderr) = goofi(&[
        "report",
        "--db",
        &db,
        "--campaign",
        "cn",
        "--trace-out",
        "/tmp/nope.jsonl",
    ]);
    assert!(!ok);
    assert!(stderr.contains("no stored telemetry"), "{stderr}");
}

#[test]
fn whole_campaign_through_the_binary() {
    let db = tmpdb("bin-flow.json");
    let (ok, stdout, _) = goofi(&[
        "configure",
        "--db",
        &db,
        "--target",
        "thor-card",
        "--workload",
        "fib12",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("configured target"));

    let (ok, stdout, _) = goofi(&[
        "setup",
        "--db",
        &db,
        "--campaign",
        "bin-c",
        "--target",
        "thor-card",
        "--workload",
        "fib12",
        "--experiments",
        "10",
        "--window",
        "0:50",
    ]);
    assert!(ok, "{stdout}");

    let (ok, stdout, stderr) = goofi(&["run", "--db", &db, "--campaign", "bin-c"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("detection coverage"));
    assert!(stderr.contains("finished: 10 experiments"));

    let (ok, stdout, _) = goofi(&["analyze", "--db", &db, "--campaign", "bin-c"]);
    assert!(ok);
    assert!(stdout.contains("overwritten"));

    let (ok, stdout, _) = goofi(&[
        "sql",
        "--db",
        &db,
        "SELECT COUNT(*) AS n FROM LoggedSystemState",
    ]);
    assert!(ok);
    assert!(
        stdout.contains("11"),
        "10 experiments + reference: {stdout}"
    );
}

/// The same campaign run with 1, 2 and 4 workers must leave byte-identical
/// DBs (the runner's reorder buffer streams rows in fault-list order no
/// matter how the scheduler interleaves), in every pruning mode. Across
/// modes, trace and static pruning agree experiment-by-experiment on
/// sort8, so their DBs differ only by the persisted static-analysis row;
/// pruning off differs from trace only on the experiments trace pruned.
#[test]
fn pruning_runs_are_deterministic_across_workers_and_modes() {
    use goofi_core::GoofiStore;

    let setup = |db: &str| {
        let (ok, _, _) = goofi(&[
            "configure",
            "--db",
            db,
            "--target",
            "t",
            "--workload",
            "sort8",
        ]);
        assert!(ok);
        let (ok, _, _) = goofi(&[
            "setup",
            "--db",
            db,
            "--campaign",
            "cd",
            "--target",
            "t",
            "--workload",
            "sort8",
            "--experiments",
            "20",
            "--window",
            "0:300",
            "--preinject",
        ]);
        assert!(ok);
    };

    let mut final_db: Vec<Vec<u8>> = Vec::new();
    let mut pruned_counts: Vec<usize> = Vec::new();
    for mode in ["off", "trace", "static"] {
        let mut variants: Vec<Vec<u8>> = Vec::new();
        for workers in ["1", "2", "4"] {
            let db = tmpdb(&format!("bin-det-{mode}-{workers}.json"));
            setup(&db);
            let (ok, stdout, stderr) = goofi(&[
                "run",
                "--db",
                &db,
                "--campaign",
                "cd",
                "--workers",
                workers,
                "--pruning",
                mode,
            ]);
            assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
            if workers == "1" {
                let pruned = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix("pruned by pre-injection analysis: "))
                    .and_then(|n| n.split_whitespace().next())
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0);
                pruned_counts.push(pruned);
            }
            variants.push(std::fs::read(&db).unwrap());
        }
        assert!(
            variants.windows(2).all(|w| w[0] == w[1]),
            "worker count changed the DB bytes in --pruning {mode}"
        );
        final_db.push(variants.pop().unwrap());
    }
    assert!(pruned_counts[1] > 0, "trace pruning found nothing on sort8");
    assert_eq!(
        pruned_counts[1], pruned_counts[2],
        "trace and static prune different counts on sort8"
    );

    // off vs trace: the per-experiment rows may differ only where trace
    // pruning substituted the reference outcome.
    let rows = |bytes: &[u8], name: &str| {
        let path = tmpdb(name);
        std::fs::write(&path, bytes).unwrap();
        GoofiStore::load(&path)
            .unwrap()
            .experiments_of("cd")
            .unwrap()
    };
    let off_rows = rows(&final_db[0], "bin-det-rows-off.json");
    let trace_rows = rows(&final_db[1], "bin-det-rows-trace.json");
    assert_eq!(off_rows.len(), trace_rows.len());
    let differing = off_rows
        .iter()
        .zip(&trace_rows)
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        differing <= pruned_counts[1],
        "{differing} rows changed but only {} were pruned",
        pruned_counts[1]
    );

    // trace vs static: byte-identical once the static-analysis row (the
    // one legitimate difference) is cleared from both.
    assert_ne!(
        final_db[1], final_db[2],
        "static DB should carry the analysis row"
    );
    let normalize = |bytes: &[u8], name: &str| {
        let path = tmpdb(name);
        std::fs::write(&path, bytes).unwrap();
        let mut store = GoofiStore::load(&path).unwrap();
        store.clear_static_analysis("cd").unwrap();
        // Saving to another path writes a compact copy (saving in place
        // would checkpoint, keeping the cleared row's tombstone).
        let copy = tmpdb(&format!("{name}.copy"));
        store.save(&copy).unwrap();
        std::fs::read(&copy).unwrap()
    };
    assert_eq!(
        normalize(&final_db[1], "bin-det-norm-trace.json"),
        normalize(&final_db[2], "bin-det-norm-static.json"),
        "trace and static DBs differ beyond the static-analysis row"
    );
}

/// With prediction on, the runner synthesises verdict rows for faults
/// the propagation analysis proves washed out — without executing them.
/// The database must come out byte-identical at any worker count, via
/// `resume` instead of `run`, and (the soundness claim made storable)
/// identical to the run that executed every non-pruned fault for real.
#[test]
fn prediction_runs_are_deterministic_across_workers_and_resume() {
    // The sort scratch register R6 carries washout windows beyond the
    // dead set: this campaign predicts faults it cannot prune.
    let setup = |db: &str| {
        let (ok, _, _) = goofi(&[
            "configure",
            "--db",
            db,
            "--target",
            "t",
            "--workload",
            "sort16",
        ]);
        assert!(ok);
        let (ok, _, _) = goofi(&[
            "setup",
            "--db",
            db,
            "--campaign",
            "cx",
            "--target",
            "t",
            "--workload",
            "sort16",
            "--chain",
            "cpu",
            "--field",
            "R6",
            "--experiments",
            "120",
            "--window",
            "0:1100",
            "--seed",
            "7",
        ]);
        assert!(ok);
    };

    let mut variants: Vec<Vec<u8>> = Vec::new();
    for workers in ["1", "2", "4"] {
        let db = tmpdb(&format!("bin-pred-{workers}.json"));
        setup(&db);
        let (ok, stdout, stderr) = goofi(&[
            "run",
            "--db",
            &db,
            "--campaign",
            "cx",
            "--workers",
            workers,
            "--predict",
        ]);
        assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
        if workers == "1" {
            let predicted: usize = stdout
                .lines()
                .find_map(|l| l.strip_prefix("predicted by propagation analysis: "))
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
            assert!(
                predicted > 0,
                "prediction found nothing on sort16/R6: {stdout}"
            );
        }
        variants.push(std::fs::read(&db).unwrap());
    }
    assert!(
        variants.windows(2).all(|w| w[0] == w[1]),
        "worker count changed the DB bytes under --predict"
    );

    // `resume` on a never-run campaign drives the same engine path.
    let db_resume = tmpdb("bin-pred-resume.json");
    setup(&db_resume);
    let (ok, stdout, stderr) = goofi(&[
        "resume",
        "--db",
        &db_resume,
        "--campaign",
        "cx",
        "--predict",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(
        std::fs::read(&db_resume).unwrap(),
        variants[0],
        "resume with prediction diverged from run"
    );
    // Resuming the complete campaign replays rows and changes nothing
    // logically; it does re-persist the static-analysis row, leaving a
    // dead slot behind, so compare the compacted images.
    let (ok, _, _) = goofi(&[
        "resume",
        "--db",
        &db_resume,
        "--campaign",
        "cx",
        "--predict",
    ]);
    assert!(ok);
    let compacted = |bytes: &[u8], name: &str| {
        let path = tmpdb(name);
        std::fs::write(&path, bytes).unwrap();
        let (ok, _, _) = goofi(&["db", "compact", "--db", &path]);
        assert!(ok);
        std::fs::read(&path).unwrap()
    };
    assert_eq!(
        compacted(&std::fs::read(&db_resume).unwrap(), "bin-pred-rr.json"),
        compacted(&variants[0], "bin-pred-base.json"),
        "re-resuming a complete campaign changed its rows"
    );

    // Soundness, end to end: executing every non-pruned fault for real
    // (prediction off) produces the same bytes as synthesising verdicts.
    let db_real = tmpdb("bin-pred-real.json");
    setup(&db_real);
    let (ok, _, _) = goofi(&[
        "run",
        "--db",
        &db_real,
        "--campaign",
        "cx",
        "--pruning",
        "static",
    ]);
    assert!(ok);
    assert_eq!(
        std::fs::read(&db_real).unwrap(),
        variants[0],
        "synthesised verdict rows differ from real execution"
    );
}
