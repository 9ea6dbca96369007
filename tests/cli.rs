//! End-to-end checks of the `dbtune` binary: the subcommands that select
//! knobs must select the same ones from the same pool options.

use std::path::PathBuf;
use std::process::Command;

/// Pool options on the small host, where the hardware defaults differ
/// from instance B's.
const SELECT: [&str; 6] =
    ["SYSBENCH", "hardware=A", "measure=ablation", "samples=150", "knobs=5", "seed=3"];

/// Runs `dbtune <cmd> SELECT.. extra..` and returns its stdout.
fn dbtune(cmd: &str, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dbtune"))
        .arg(cmd)
        .args(SELECT)
        .args(extra)
        .output()
        .expect("dbtune binary runs");
    assert!(out.status.success(), "dbtune {cmd} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("dbtune prints UTF-8")
}

#[test]
fn tune_records_the_knobs_rank_prints() {
    // `rank` prints a header, then `  1. <knob>  <score>` per knob.
    let rank = dbtune("rank", &[]);
    let ranked: Vec<&str> = rank
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().nth(1).expect("rank line names a knob"))
        .collect();
    assert_eq!(ranked.len(), 5, "rank output:\n{rank}");

    let history = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli_history_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&history);
    let tune = dbtune("tune", &["iters=2", &format!("history={}", history.display())]);
    let _ = std::fs::remove_file(&history);
    // `recorded task `sysbench` (5 knobs: a, b, ...) into <history>`
    let recorded = tune
        .lines()
        .find_map(|l| l.split_once(" knobs: ").and_then(|(_, rest)| rest.split_once(") into ")))
        .map(|(knobs, _)| knobs.split(", ").collect::<Vec<_>>())
        .expect("tune reports the recorded knobs");
    assert_eq!(recorded, ranked, "tune output:\n{tune}");
}
