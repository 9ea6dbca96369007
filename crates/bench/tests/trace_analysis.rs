//! End-to-end tests for the trace analysis toolkit: `trace_report` /
//! `trace_diff` / `perf_baseline` against *real* journals produced by a
//! real driver, plus the strengthened structural checks in
//! `trace_validate`.
//!
//! These pin the acceptance criteria of the toolkit:
//! * self time reconstructed from a `fig9_overhead` journal sums to the
//!   instrumented wall time within 1%;
//! * two identical-seed runs diff to zero counter deltas;
//! * `perf_baseline` writes a byte-identical deterministic `"results"`
//!   block across runs, and a self-diff under `mode=gate` is clean;
//! * structurally broken journals (truncation, backwards counters,
//!   parent mismatches) fail validation with the offending line named.

use dbtune_bench::artifact::{load_journal, lookup};
use dbtune_trace::{build_trees, diff_summaries, merge_paths, summarize, DiffConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests that time real driver runs. The test harness
/// runs tests on parallel threads; two drivers sharing the CPU inflate
/// each other's wall times and `*_nanos` counters past the diff
/// threshold, so a run diffed against another would measure the
/// contention, not the code.
fn timed_runs() -> MutexGuard<'static, ()> {
    static TIMED: Mutex<()> = Mutex::new(());
    TIMED.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbtune_trace_analysis_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `fig9_overhead` at tiny scale with tracing into `journal`.
///
/// `workers=1` keeps the evaluation counters exactly reproducible: at
/// two or more workers, concurrent sessions can race the shared cache
/// and both compute a missing entry (the loser's result is discarded),
/// so `sim.evals` varies run to run even at a fixed seed. The results
/// payload is still byte-identical — only the work-count telemetry
/// moves — but the zero-delta diff below needs the single-worker case.
fn run_fig9(dir: &Path, journal: &Path) {
    std::fs::create_dir_all(dir).expect("create driver cwd");
    let exe = env!("CARGO_BIN_EXE_fig9_overhead");
    let out = Command::new(exe)
        .args(["samples=120", "iters=6", "workers=1", "seeds=1"])
        .arg(format!("trace={}", journal.display()))
        .current_dir(dir)
        .output()
        .expect("spawn fig9_overhead");
    assert!(out.status.success(), "fig9_overhead failed: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn trace_report_reconstructs_a_real_journal_with_exact_self_time() {
    let _serial = timed_runs();
    let dir = scratch("report");
    let journal_path = dir.join("fig9.jsonl");
    run_fig9(&dir, &journal_path);

    // In-process: the tree's total self time must equal the instrumented
    // wall time to within 1% (it is exact by construction — the 1% bound
    // is the acceptance criterion's tolerance for clock-skew saturation).
    let journal = load_journal(&journal_path).expect("journal loads");
    let trees = build_trees(&journal.events).expect("journal is structurally sound");
    let merged = merge_paths(&trees);
    let wall: u64 = trees.iter().map(|t| t.total_nanos()).sum();
    let self_sum = merged.deep_self_nanos();
    assert!(wall > 0, "fig9 must record spans");
    let drift = (wall as f64 - self_sum as f64).abs() / wall as f64;
    assert!(drift < 0.01, "self-time sum {self_sum} vs wall {wall}: {:.3}% off", drift * 100.0);

    // The binary: exit 0, report on stdout, both exports written.
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg(journal_path.as_os_str())
        .output()
        .expect("spawn trace_report");
    assert!(out.status.success(), "trace_report failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self-time sum"), "missing summary line:\n{stdout}");
    assert!(stdout.contains("session"), "missing span rows:\n{stdout}");

    let folded = std::fs::read_to_string(dir.join("fig9.folded")).expect("folded written");
    let folded_total: u64 = folded
        .lines()
        .map(|l| {
            l.rsplit(' ')
                .next()
                .expect("collapsed line has a count")
                .parse::<u64>()
                .expect("collapsed line value")
        })
        .sum();
    assert_eq!(folded_total, self_sum, "collapsed-stack values are self times");

    let chrome = std::fs::read_to_string(dir.join("fig9.chrome.json")).expect("chrome written");
    let value: Value = serde_json::from_str(&chrome).expect("chrome export is valid JSON");
    let events = lookup(&value, "traceEvents").and_then(Value::as_array).expect("traceEvents");
    let span_events =
        events.iter().filter(|e| lookup(e, "ph").and_then(Value::as_str) == Some("X")).count();
    let total_spans: usize =
        trees.iter().map(|t| t.roots.iter().map(|r| r.node_count()).sum::<usize>()).sum();
    assert_eq!(span_events, total_spans, "one complete event per span");
}

#[test]
fn identical_seed_runs_diff_to_zero_counter_deltas() {
    let _serial = timed_runs();
    let dir = scratch("diff_clean");
    let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    run_fig9(&dir.join("run_a"), &a);
    run_fig9(&dir.join("run_b"), &b);

    let base = summarize(&load_journal(&a).expect("a loads"));
    let cur = summarize(&load_journal(&b).expect("b loads"));
    let entries = diff_summaries(&base, &cur, &DiffConfig::default());
    let flagged: Vec<_> = entries.iter().filter(|e| e.flagged).collect();
    assert!(flagged.is_empty(), "identical-seed runs must diff clean: {flagged:#?}");

    // Same through the binary, in gate mode.
    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args([a.as_os_str(), b.as_os_str()])
        .arg("mode=gate")
        .output()
        .expect("spawn trace_diff");
    assert!(
        out.status.success(),
        "trace_diff gate failed on identical runs:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("zero counter deltas"));
}

#[test]
fn trace_diff_gate_flags_an_artificially_slowed_span() {
    let dir = scratch("diff_slow");
    let mk = |path: &Path, fit_nanos: u64| {
        let text = format!(
            concat!(
                "{{\"type\":\"meta\",\"version\":1,\"source\":\"unit\"}}\n",
                "{{\"type\":\"span\",\"name\":\"surrogate_fit\",\"parent\":\"session\",",
                "\"depth\":1,\"dur_nanos\":{fit},\"thread\":0,\"seq\":1}}\n",
                "{{\"type\":\"span\",\"name\":\"session\",\"parent\":null,\"depth\":0,",
                "\"dur_nanos\":{total},\"thread\":0,\"seq\":2}}\n",
                "{{\"type\":\"counter\",\"name\":\"sim.evals\",\"value\":10,\"seq\":3}}\n"
            ),
            fit = fit_nanos,
            total = fit_nanos + 1_000_000,
        );
        std::fs::write(path, text).expect("write journal");
    };
    let (base, slow) = (dir.join("base.jsonl"), dir.join("slow.jsonl"));
    mk(&base, 50_000_000);
    mk(&slow, 100_000_000); // 2x slower: past 30% threshold and 5ms floor

    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args([base.as_os_str(), slow.as_os_str()])
        .arg("mode=gate")
        .output()
        .expect("spawn trace_diff");
    assert_eq!(out.status.code(), Some(1), "gate must fail on a 2x-slowed span");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("span.min:surrogate_fit"), "flagged key missing:\n{stdout}");
    assert!(stdout.contains("slower by 100.0%"), "note missing:\n{stdout}");

    // The same pair in warn mode exits zero but still prints the delta.
    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args([base.as_os_str(), slow.as_os_str()])
        .output()
        .expect("spawn trace_diff");
    assert!(out.status.success(), "warn mode must exit 0");
}

#[test]
fn perf_baseline_results_are_deterministic_and_self_diff_is_clean() {
    let _serial = timed_runs();
    let dir = scratch("perf");
    let exe = env!("CARGO_BIN_EXE_perf_baseline");
    let small = ["repeats=2", "iters=16", "workers=1"];
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));

    let out = Command::new(exe)
        .args(small)
        .arg(format!("write={}", a.display()))
        .current_dir(&dir)
        .output()
        .expect("spawn perf_baseline");
    assert!(out.status.success(), "first run failed: {}", String::from_utf8_lossy(&out.stderr));

    // Second run diffs against the first under gate mode: identical
    // results (byte-for-byte) and no wall regressions expected.
    let out = Command::new(exe)
        .args(small)
        .arg(format!("write={}", b.display()))
        .arg(format!("against={}", a.display()))
        .arg("mode=gate")
        .current_dir(&dir)
        .output()
        .expect("spawn perf_baseline");
    assert!(
        out.status.success(),
        "self-diff gate failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("deterministic results identical"));

    // The "results" block is byte-identical across the two artifacts.
    let results_bytes = |path: &Path| {
        let value: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("artifact readable"))
                .expect("artifact parses");
        serde_json::to_string(lookup(&value, "results").expect("results block"))
            .expect("results serialize")
    };
    assert_eq!(results_bytes(&a), results_bytes(&b), "results must be byte-identical");
}

#[test]
fn trace_validate_rejects_structural_violations_with_line_numbers() {
    let dir = scratch("validate");
    let exe = env!("CARGO_BIN_EXE_trace_validate");
    let run = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write journal");
        let out = Command::new(exe).arg(path.as_os_str()).output().expect("spawn trace_validate");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).to_string())
    };
    let meta = "{\"type\":\"meta\",\"version\":1,\"source\":\"unit\"}\n";

    // Truncation: a child closed but its parent never did.
    let (code, stderr) = run(
        "truncated.jsonl",
        &format!(
            "{meta}{}",
            "{\"type\":\"span\",\"name\":\"fit\",\"parent\":\"session\",\"depth\":1,\
             \"dur_nanos\":5,\"thread\":0,\"seq\":1}\n"
        ),
    );
    assert_eq!(code, Some(1), "truncated journal must fail: {stderr}");
    assert!(stderr.contains("parent never did"), "{stderr}");

    // Parent mismatch: recorded parent is not the span that closed above.
    let (code, stderr) = run(
        "mismatch.jsonl",
        &format!(
            "{meta}{}{}",
            "{\"type\":\"span\",\"name\":\"fit\",\"parent\":\"ghost\",\"depth\":1,\
             \"dur_nanos\":5,\"thread\":0,\"seq\":1}\n",
            "{\"type\":\"span\",\"name\":\"session\",\"parent\":null,\"depth\":0,\
             \"dur_nanos\":9,\"thread\":0,\"seq\":2}\n"
        ),
    );
    assert_eq!(code, Some(1), "parent mismatch must fail: {stderr}");
    assert!(stderr.contains(":3:") && stderr.contains("records parent 'ghost'"), "{stderr}");

    // Backwards counter across flushes.
    let (code, stderr) = run(
        "backwards.jsonl",
        &format!(
            "{meta}{}{}",
            "{\"type\":\"counter\",\"name\":\"sim.evals\",\"value\":9,\"seq\":1}\n",
            "{\"type\":\"counter\",\"name\":\"sim.evals\",\"value\":3,\"seq\":2}\n"
        ),
    );
    assert_eq!(code, Some(1), "backwards counter must fail: {stderr}");
    assert!(stderr.contains("went backwards"), "{stderr}");

    // A sound journal still passes with the structural pass on.
    let (code, stderr) = run(
        "sound.jsonl",
        &format!(
            "{meta}{}{}",
            "{\"type\":\"span\",\"name\":\"session\",\"parent\":null,\"depth\":0,\
             \"dur_nanos\":9,\"thread\":0,\"seq\":1}\n",
            "{\"type\":\"counter\",\"name\":\"sim.evals\",\"value\":3,\"seq\":2}\n"
        ),
    );
    assert_eq!(code, Some(0), "sound journal must pass: {stderr}");
}
