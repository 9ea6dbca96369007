//! Cross-run diff: align two runs by span name and metric key, flag
//! regressions with a noise-aware wall-time threshold while holding
//! deterministic quantities to exact equality.
//!
//! The diff policy is derived from each key's kind and name — there is
//! no per-metric table to keep in step with the emitters:
//!
//! * **Noise** (the threshold rule below): a counter whose name ends in
//!   `_nanos` or `_secs` (`exec.worker.busy_nanos`, …) accumulates wall
//!   clock, not work; a gauge whose name starts with `mem.`
//!   (`mem.peak_bytes`, `mem.live_bytes`, `mem.allocs_per_eval`)
//!   measures allocator state — peak depends on cross-thread overlap,
//!   live on flush timing. Span minima and phase/matrix wall seconds are
//!   noise as well.
//! * **Exact**, everything else: every other counter (a `mem.` counter
//!   such as `mem.alloc_count` counts work), every other gauge
//!   (`exec.queue.depth`), span counts, span-attributed allocation
//!   columns, and cell and diag-record counts. These are byte-identical
//!   across runs of the same configuration (the executor's determinism
//!   contract), so *any* delta is flagged: the two runs did different
//!   work, and no timing comparison is meaningful until that is
//!   explained. The fault-injection counters (`exec.retries`,
//!   `exec.retry_exhausted`, `exec.panics_contained`, `sim.faults.*`)
//!   fall under this rule too: fault schedules are pure functions of the
//!   plan seed, so a chaos run's retry count is as deterministic as its
//!   eval count.
//!
//! Noisy keys are compared on the min-of-N statistic (fastest of N
//! observations; the minimum of a deterministic code path estimates its
//! true cost, while means and maxima absorb scheduler noise) and flagged
//! only beyond a relative threshold *and* an absolute floor, so
//! nanosecond-scale spans cannot trip percentage alarms.

use crate::summary::RunSummary;
use std::collections::BTreeSet;

/// Noise model for wall-time comparisons.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Relative regression threshold on min-of-N wall times (0.30 =
    /// flag when 30% slower).
    pub rel_threshold: f64,
    /// Ignore wall-time deltas smaller than this many nanoseconds even
    /// when the relative threshold is exceeded.
    pub abs_floor_nanos: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self { rel_threshold: 0.30, abs_floor_nanos: 5_000_000 }
    }
}

/// What a diff entry compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    /// Deterministic count (exact-equality rule).
    Count,
    /// Wall time (threshold rule).
    WallTime,
}

/// One aligned key's comparison.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Aligned key, prefixed by namespace (`counter:`, `gauge:`,
    /// `span.count:`, `span.min:`, `phase:`, `wall:`, `cells`).
    pub key: String,
    /// Comparison rule applied.
    pub kind: DiffKind,
    /// Baseline value (`None` = key only in current run).
    pub base: Option<f64>,
    /// Current value (`None` = key only in baseline).
    pub cur: Option<f64>,
    /// Whether this entry violates its rule.
    pub flagged: bool,
    /// Human-readable explanation when flagged.
    pub note: String,
}

impl DiffEntry {
    /// Relative change current vs baseline, when both sides exist and
    /// the baseline is nonzero.
    pub fn rel_delta(&self) -> Option<f64> {
        match (self.base, self.cur) {
            (Some(b), Some(c)) if b != 0.0 => Some((c - b) / b),
            _ => None,
        }
    }
}

fn exact_entry(key: String, base: Option<f64>, cur: Option<f64>) -> DiffEntry {
    let (flagged, note) = match (base, cur) {
        (Some(b), Some(c)) if b == c => (false, String::new()),
        (Some(b), Some(c)) => {
            (true, format!("deterministic value changed: {b} -> {c} (runs did different work)"))
        }
        (Some(_), None) => (true, "key missing from current run".to_string()),
        (None, Some(_)) => (true, "key missing from baseline".to_string()),
        (None, None) => (false, String::new()),
    };
    DiffEntry { key, kind: DiffKind::Count, base, cur, flagged, note }
}

fn wall_entry(key: String, base: Option<f64>, cur: Option<f64>, cfg: &DiffConfig) -> DiffEntry {
    noisy_entry(key, base, cur, cfg, "ns")
}

/// The threshold rule for any noisy measurement: wall times (`unit` =
/// "ns") and memory quantities (peak/live bytes, allocation totals),
/// which jitter with thread scheduling and allocator internals the same
/// way wall clock jitters with the scheduler. `abs_floor_nanos` doubles
/// as the floor in the measurement's own unit (5e6 ≈ 5 ms ≈ 5 MB — both
/// are sensible "too small to care" scales).
fn noisy_entry(
    key: String,
    base: Option<f64>,
    cur: Option<f64>,
    cfg: &DiffConfig,
    unit: &str,
) -> DiffEntry {
    let (flagged, note) = match (base, cur) {
        (Some(b), Some(c)) => {
            let regressed =
                c > b * (1.0 + cfg.rel_threshold) && (c - b) > cfg.abs_floor_nanos as f64;
            if regressed {
                let pct = if b > 0.0 { (c - b) / b * 100.0 } else { f64::INFINITY };
                let verb = if unit == "ns" { "slower" } else { "grew" };
                (true, format!("{verb} by {pct:.1}% (min-of-N {b:.0} -> {c:.0} {unit})"))
            } else {
                (false, String::new())
            }
        }
        // Presence changes are reported through the count entries; a
        // one-sided measurement alone is not flagged again.
        _ => (false, String::new()),
    };
    DiffEntry { key, kind: DiffKind::WallTime, base, cur, flagged, note }
}

fn union_keys<'a, V>(
    a: &'a std::collections::BTreeMap<String, V>,
    b: &'a std::collections::BTreeMap<String, V>,
) -> BTreeSet<&'a str> {
    a.keys().map(String::as_str).chain(b.keys().map(String::as_str)).collect()
}

/// Diffs two journal-derived run summaries. Entries come out grouped by
/// key namespace in alignment order; callers sort or filter as needed.
pub fn diff_summaries(base: &RunSummary, cur: &RunSummary, cfg: &DiffConfig) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    for key in union_keys(&base.counters, &cur.counters) {
        let (b, c) =
            (base.counters.get(key).map(|&v| v as f64), cur.counters.get(key).map(|&v| v as f64));
        // The diff policy (module doc): wall-clock accumulators are
        // noise, every other counter is an exact work count.
        if key.ends_with("_nanos") || key.ends_with("_secs") {
            out.push(wall_entry(format!("counter:{key}"), b, c, cfg));
        } else {
            out.push(exact_entry(format!("counter:{key}"), b, c));
        }
    }
    for key in union_keys(&base.gauges, &cur.gauges) {
        let (b, c) =
            (base.gauges.get(key).map(|&v| v as f64), cur.gauges.get(key).map(|&v| v as f64));
        // Allocator-state gauges are noise, every other gauge is exact.
        if key.starts_with("mem.") {
            let unit = if key.contains("bytes") { "bytes" } else { "allocs" };
            out.push(noisy_entry(format!("gauge:{key}"), b, c, cfg, unit));
        } else {
            out.push(exact_entry(format!("gauge:{key}"), b, c));
        }
    }
    // Span-attributed allocation columns: deterministic work counts
    // (the code path fully determines what it allocates), so exact.
    for key in union_keys(&base.mem, &cur.mem) {
        let (b, c) = (base.mem.get(key), cur.mem.get(key));
        out.push(exact_entry(
            format!("mem.allocs:{key}"),
            b.map(|m| m.total_allocs as f64),
            c.map(|m| m.total_allocs as f64),
        ));
        out.push(exact_entry(
            format!("mem.bytes:{key}"),
            b.map(|m| m.total_bytes as f64),
            c.map(|m| m.total_bytes as f64),
        ));
    }
    out.push(exact_entry("cells".to_string(), Some(base.cells as f64), Some(cur.cells as f64)));
    out.push(exact_entry(
        "diag.records".to_string(),
        Some(base.diag_records as f64),
        Some(cur.diag_records as f64),
    ));
    for key in union_keys(&base.spans, &cur.spans) {
        let (b, c) = (base.spans.get(key), cur.spans.get(key));
        out.push(exact_entry(
            format!("span.count:{key}"),
            b.map(|s| s.count as f64),
            c.map(|s| s.count as f64),
        ));
        out.push(wall_entry(
            format!("span.min:{key}"),
            b.map(|s| s.min_nanos as f64),
            c.map(|s| s.min_nanos as f64),
            cfg,
        ));
    }
    out
}

/// The comparable content of one `BENCH_perf.json` artifact, parsed by
/// `dbtune-bench` (this crate stays JSON-free at runtime) and diffed
/// here.
#[derive(Clone, Debug, Default)]
pub struct PerfBaseline {
    /// Deterministic counter totals (`results.counters`).
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Canonical serialization of the whole deterministic `results`
    /// block; exact-compared so *any* determinism drift is flagged.
    pub results_fingerprint: String,
    /// Per-repeat whole-matrix wall seconds (`timing.wall_secs`).
    pub wall_secs: Vec<f64>,
    /// Per-phase per-repeat seconds (`timing.phases`).
    pub phase_secs: std::collections::BTreeMap<String, Vec<f64>>,
    /// Per-span aggregates (`timing.spans`): name → (count, min_nanos).
    pub span_min_nanos: std::collections::BTreeMap<String, u64>,
    /// Per-repeat global peak bytes (`mem.peak_bytes`); empty when the
    /// artifact predates memory profiling.
    pub mem_peak_bytes: Vec<f64>,
    /// Per-repeat global allocation counts (`mem.alloc_count`).
    pub mem_alloc_counts: Vec<f64>,
}

/// Minimum of a per-repeat series (the min-of-N statistic), `None` when
/// empty.
fn min_of(series: &[f64]) -> Option<f64> {
    series.iter().copied().fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.min(v))))
}

/// Diffs two perf-baseline artifacts: counters and the results
/// fingerprint exactly, wall/phase seconds and span minima by the
/// noise-aware rule (seconds are converted to nanos for the floor).
pub fn diff_baselines(base: &PerfBaseline, cur: &PerfBaseline, cfg: &DiffConfig) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    for key in union_keys(&base.counters, &cur.counters) {
        out.push(exact_entry(
            format!("counter:{key}"),
            base.counters.get(key).map(|&v| v as f64),
            cur.counters.get(key).map(|&v| v as f64),
        ));
    }
    let fp_equal = base.results_fingerprint == cur.results_fingerprint;
    out.push(DiffEntry {
        key: "results".to_string(),
        kind: DiffKind::Count,
        base: None,
        cur: None,
        flagged: !fp_equal,
        note: if fp_equal {
            String::new()
        } else {
            "deterministic results block differs between runs".to_string()
        },
    });
    let to_nanos = |s: f64| s * 1e9;
    out.push(wall_entry(
        "wall:matrix".to_string(),
        min_of(&base.wall_secs).map(to_nanos),
        min_of(&cur.wall_secs).map(to_nanos),
        cfg,
    ));
    for key in union_keys(&base.phase_secs, &cur.phase_secs) {
        out.push(wall_entry(
            format!("phase:{key}"),
            base.phase_secs.get(key).and_then(|s| min_of(s)).map(to_nanos),
            cur.phase_secs.get(key).and_then(|s| min_of(s)).map(to_nanos),
            cfg,
        ));
    }
    for key in union_keys(&base.span_min_nanos, &cur.span_min_nanos) {
        out.push(wall_entry(
            format!("span.min:{key}"),
            base.span_min_nanos.get(key).map(|&v| v as f64),
            cur.span_min_nanos.get(key).map(|&v| v as f64),
            cfg,
        ));
    }
    // Memory columns, keyed under the `mem:` namespace so the CI gate
    // can treat them warn-only (runner allocators and std versions move
    // these; wall times at least have the same excuse). Peak uses the
    // caller's floor (5e6 ≈ 5 MB by default); allocation counts get a
    // tighter floor — a thousand allocations is real churn.
    out.push(noisy_entry(
        "mem:peak_bytes".to_string(),
        min_of(&base.mem_peak_bytes),
        min_of(&cur.mem_peak_bytes),
        cfg,
        "bytes",
    ));
    let alloc_cfg = DiffConfig { rel_threshold: cfg.rel_threshold, abs_floor_nanos: 1_000 };
    out.push(noisy_entry(
        "mem:alloc_count".to_string(),
        min_of(&base.mem_alloc_counts),
        min_of(&cur.mem_alloc_counts),
        &alloc_cfg,
        "allocs",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SpanSummary;

    fn summary(evals: u64, fit_min: u64, fit_count: u64) -> RunSummary {
        let mut s = RunSummary::default();
        s.counters.insert("sim.evals".into(), evals);
        s.spans.insert(
            "surrogate_fit".into(),
            SpanSummary {
                count: fit_count,
                total_nanos: fit_min * fit_count,
                min_nanos: fit_min,
                p50_nanos: fit_min,
                p99_nanos: fit_min,
            },
        );
        s
    }

    #[test]
    fn identical_runs_produce_zero_flags() {
        let a = summary(100, 50_000_000, 10);
        let entries = diff_summaries(&a, &a.clone(), &DiffConfig::default());
        assert!(!entries.is_empty());
        assert!(entries.iter().all(|e| !e.flagged), "{entries:#?}");
    }

    #[test]
    fn wall_clock_counters_use_the_noise_rule_not_exactness() {
        let mut a = summary(100, 50_000_000, 10);
        let mut b = summary(100, 50_000_000, 10);
        a.counters.insert("exec.worker.busy_nanos".into(), 13_167_771);
        b.counters.insert("exec.worker.busy_nanos".into(), 14_533_586);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let busy = entries
            .iter()
            .find(|e| e.key == "counter:exec.worker.busy_nanos")
            .expect("busy counter in diff");
        assert_eq!(busy.kind, DiffKind::WallTime);
        assert!(!busy.flagged, "10% jitter on a timing counter is noise: {busy:?}");

        // But a timing counter that regresses past threshold+floor flags.
        b.counters.insert("exec.worker.busy_nanos".into(), 40_000_000);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let busy = entries
            .iter()
            .find(|e| e.key == "counter:exec.worker.busy_nanos")
            .expect("busy counter in diff");
        assert!(busy.flagged, "{busy:?}");
    }

    #[test]
    fn any_counter_delta_is_flagged_exactly() {
        let mut a = summary(100, 50_000_000, 10);
        let mut b = summary(101, 50_000_000, 10);
        // The `mem.` prefix makes only a *gauge* noisy: an allocation
        // counter counts work and is exact like any other counter.
        a.counters.insert("mem.alloc_count".into(), 3179);
        b.counters.insert("mem.alloc_count".into(), 3180);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        for key in ["counter:sim.evals", "counter:mem.alloc_count"] {
            let counter = entries.iter().find(|e| e.key == key).expect("counter in diff");
            assert!(counter.flagged, "a one-off delta on {key} must flag: deterministic");
            assert_eq!(counter.kind, DiffKind::Count, "{key} must use the exact-equality rule");
        }
    }

    #[test]
    fn noise_rule_reads_a_counter_suffix_and_a_gauge_prefix_only() {
        // The naming rule is anchored: `_nanos`/`_secs` must end a
        // counter's name and `mem.` must start a gauge's. A name that
        // merely contains the marker elsewhere is an exact work count.
        let (mut a, mut b) = (RunSummary::default(), RunSummary::default());
        for (key, base, cur) in [
            ("exec.worker.busy_nanos", 50_000_000, 51_000_000),
            ("tuner.fit_secs", 40, 41),
            ("exec.nanos_seen", 10, 11),
            ("sim.secs_rounds", 10, 11),
        ] {
            a.counters.insert(key.into(), base);
            b.counters.insert(key.into(), cur);
        }
        for (key, base, cur) in
            [("mem.live_bytes", 100_000_000, 101_000_000), ("exec.mem.peak_bytes", 100, 101)]
        {
            a.gauges.insert(key.into(), base);
            b.gauges.insert(key.into(), cur);
        }
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let rule = |key: &str| {
            let e = entries.iter().find(|e| e.key == key).expect("key in diff");
            (e.kind, e.flagged)
        };
        // Noise: small drifts stay under the threshold rule.
        assert_eq!(rule("counter:exec.worker.busy_nanos"), (DiffKind::WallTime, false));
        assert_eq!(rule("counter:tuner.fit_secs"), (DiffKind::WallTime, false));
        assert_eq!(rule("gauge:mem.live_bytes"), (DiffKind::WallTime, false));
        // Exact: the same one-off delta flags.
        assert_eq!(rule("counter:exec.nanos_seen"), (DiffKind::Count, true));
        assert_eq!(rule("counter:sim.secs_rounds"), (DiffKind::Count, true));
        assert_eq!(rule("gauge:exec.mem.peak_bytes"), (DiffKind::Count, true));
    }

    #[test]
    fn fault_counters_are_held_to_exact_equality() {
        // Pin the rule assignment: retry/fault counters are derived from
        // seeded schedules, so they diff as deterministic counts — a
        // drifting retry count means the chaos run did different work.
        let mut a = summary(100, 50_000_000, 10);
        let mut b = summary(100, 50_000_000, 10);
        for key in
            ["exec.retries", "exec.retry_exhausted", "exec.panics_contained", "sim.faults.timeout"]
        {
            a.counters.insert(key.into(), 7);
            b.counters.insert(key.into(), 8);
        }
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        for key in
            ["exec.retries", "exec.retry_exhausted", "exec.panics_contained", "sim.faults.timeout"]
        {
            let e = entries
                .iter()
                .find(|e| e.key == format!("counter:{key}"))
                .expect("fault counter in diff");
            assert_eq!(e.kind, DiffKind::Count, "{key} must use the exact-equality rule");
            assert!(e.flagged, "a one-off delta on {key} must flag: {e:?}");
        }
    }

    #[test]
    fn slowed_span_is_flagged_and_fast_jitter_is_not() {
        let base = summary(100, 50_000_000, 10);
        // 2x slower: well past the 30% threshold and the 5ms floor.
        let slowed = summary(100, 100_000_000, 10);
        let cfg = DiffConfig::default();
        let entries = diff_summaries(&base, &slowed, &cfg);
        let span = entries
            .iter()
            .find(|e| e.key == "span.min:surrogate_fit")
            .expect("surrogate_fit span in diff");
        assert!(span.flagged, "{span:?}");
        assert!(span.note.contains("slower by 100.0%"), "{}", span.note);
        assert!((span.rel_delta().expect("baseline is nonzero") - 1.0).abs() < 1e-9);

        // 20% slower: below threshold — noise.
        let jitter = summary(100, 60_000_000, 10);
        let entries = diff_summaries(&base, &jitter, &cfg);
        assert!(!entries.iter().any(|e| e.flagged), "{entries:#?}");

        // 2x slower but tiny in absolute terms: under the floor — noise.
        let tiny_base = summary(100, 1_000, 10);
        let tiny_slow = summary(100, 2_000, 10);
        let entries = diff_summaries(&tiny_base, &tiny_slow, &cfg);
        let span = entries
            .iter()
            .find(|e| e.key == "span.min:surrogate_fit")
            .expect("surrogate_fit span in diff");
        assert!(!span.flagged, "sub-floor deltas are noise: {span:?}");
    }

    #[test]
    fn speedups_are_never_flagged() {
        let base = summary(100, 100_000_000, 10);
        let faster = summary(100, 10_000_000, 10);
        let entries = diff_summaries(&base, &faster, &DiffConfig::default());
        assert!(!entries.iter().any(|e| e.flagged), "{entries:#?}");
    }

    #[test]
    fn one_sided_counters_flag_in_both_directions() {
        // A counter present in only one run means the runs did different
        // work — flagged no matter which side it appears on.
        let mut a = summary(100, 50_000_000, 10);
        let b = summary(100, 50_000_000, 10);
        a.counters.insert("exec.retry_exhausted".into(), 3);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let only_base = entries
            .iter()
            .find(|e| e.key == "counter:exec.retry_exhausted")
            .expect("one-sided counter in diff");
        assert!(only_base.flagged);
        assert_eq!(only_base.kind, DiffKind::Count);
        assert!(only_base.note.contains("missing from current"), "{}", only_base.note);
        assert_eq!(only_base.rel_delta(), None, "one-sided entries have no relative delta");

        let entries = diff_summaries(&b, &a, &DiffConfig::default());
        let only_cur = entries
            .iter()
            .find(|e| e.key == "counter:exec.retry_exhausted")
            .expect("one-sided counter in diff");
        assert!(only_cur.flagged);
        assert!(only_cur.note.contains("missing from baseline"), "{}", only_cur.note);
    }

    #[test]
    fn diag_record_counts_diff_exactly() {
        let a = summary(100, 50_000_000, 10);
        let mut b = summary(100, 50_000_000, 10);
        b.diag_records = 40;
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let diag =
            entries.iter().find(|e| e.key == "diag.records").expect("diag.records entry in diff");
        assert!(diag.flagged, "diag record count is a control-flow count: exact");
        assert_eq!(diag.kind, DiffKind::Count);

        let entries = diff_summaries(&a, &a.clone(), &DiffConfig::default());
        let diag =
            entries.iter().find(|e| e.key == "diag.records").expect("diag.records entry in diff");
        assert!(!diag.flagged);
    }

    #[test]
    fn empty_summaries_diff_clean() {
        // Two freshly-defaulted summaries (e.g. from empty journals)
        // align on the structural keys only and flag nothing.
        let entries =
            diff_summaries(&RunSummary::default(), &RunSummary::default(), &DiffConfig::default());
        assert!(entries.iter().any(|e| e.key == "cells"));
        assert!(entries.iter().any(|e| e.key == "diag.records"));
        assert!(!entries.iter().any(|e| e.flagged), "{entries:#?}");
    }

    #[test]
    fn one_sided_keys_flag_via_count_not_walltime() {
        let mut a = summary(100, 50_000_000, 10);
        let b = summary(100, 50_000_000, 10);
        a.spans.insert(
            "only_in_base".into(),
            SpanSummary { count: 1, total_nanos: 1, min_nanos: 1, p50_nanos: 1, p99_nanos: 1 },
        );
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let count = entries
            .iter()
            .find(|e| e.key == "span.count:only_in_base")
            .expect("count entry for base-only span");
        assert!(count.flagged);
        assert!(count.note.contains("missing from current"));
        let wall = entries
            .iter()
            .find(|e| e.key == "span.min:only_in_base")
            .expect("wall entry for base-only span");
        assert!(!wall.flagged, "presence is reported once, via the count");
    }

    #[test]
    fn mem_columns_are_exact_for_counts_and_thresholded_for_peak() {
        use crate::summary::MemSummary;
        let mut a = summary(100, 50_000_000, 10);
        let mut b = summary(100, 50_000_000, 10);
        a.mem.insert(
            "surrogate_fit".into(),
            MemSummary {
                closes: 10,
                self_bytes: 1_000,
                self_allocs: 5,
                total_bytes: 2_000,
                total_allocs: 9,
            },
        );
        b.mem.insert(
            "surrogate_fit".into(),
            MemSummary {
                closes: 10,
                self_bytes: 1_000,
                self_allocs: 5,
                total_bytes: 2_000,
                total_allocs: 10, // one extra allocation
            },
        );
        a.gauges.insert("mem.peak_bytes".into(), 100_000_000);
        b.gauges.insert("mem.peak_bytes".into(), 110_000_000); // 10%: noise

        // A gauge outside `mem.` is a deterministic quantity: exact.
        a.gauges.insert("exec.queue.depth".into(), 4);
        b.gauges.insert("exec.queue.depth".into(), 5);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let depth = entries
            .iter()
            .find(|e| e.key == "gauge:exec.queue.depth")
            .expect("queue depth entry in diff");
        assert_eq!(depth.kind, DiffKind::Count, "non-mem gauges use the exact rule");
        assert!(depth.flagged, "{depth:?}");
        let allocs = entries
            .iter()
            .find(|e| e.key == "mem.allocs:surrogate_fit")
            .expect("mem allocs entry in diff");
        assert_eq!(allocs.kind, DiffKind::Count);
        assert!(allocs.flagged, "a single-allocation delta is deterministic drift: {allocs:?}");
        let peak =
            entries.iter().find(|e| e.key == "gauge:mem.peak_bytes").expect("peak entry in diff");
        assert_eq!(peak.kind, DiffKind::WallTime, "peak uses the threshold rule");
        assert!(!peak.flagged, "10% peak jitter is noise: {peak:?}");

        // Peak growth past threshold+floor flags, with byte units.
        b.gauges.insert("mem.peak_bytes".into(), 200_000_000);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let peak =
            entries.iter().find(|e| e.key == "gauge:mem.peak_bytes").expect("peak entry in diff");
        assert!(peak.flagged, "{peak:?}");
        assert!(peak.note.contains("bytes"), "{}", peak.note);
    }

    #[test]
    fn baseline_mem_columns_ride_the_noise_rule_and_tolerate_old_artifacts() {
        let mut base = PerfBaseline {
            results_fingerprint: "{}".into(),
            mem_peak_bytes: vec![100_000_000.0, 101_000_000.0],
            mem_alloc_counts: vec![500_000.0, 500_100.0],
            ..Default::default()
        };
        let mut same = base.clone();
        same.mem_peak_bytes = vec![108_000_000.0];
        same.mem_alloc_counts = vec![500_050.0];
        let entries = diff_baselines(&base, &same, &DiffConfig::default());
        assert!(!entries.iter().any(|e| e.flagged), "{entries:#?}");

        // 2x peak regression flags under the mem: namespace.
        let mut grown = base.clone();
        grown.mem_peak_bytes = vec![200_000_000.0];
        let entries = diff_baselines(&base, &grown, &DiffConfig::default());
        let peak = entries.iter().find(|e| e.key == "mem:peak_bytes").expect("peak entry");
        assert!(peak.flagged, "{peak:?}");

        // A 40% allocation-count regression flags even though it is far
        // below the 5e6 wall floor (counts get the tighter floor).
        let mut churny = base.clone();
        churny.mem_alloc_counts = vec![700_000.0];
        let entries = diff_baselines(&base, &churny, &DiffConfig::default());
        let allocs = entries.iter().find(|e| e.key == "mem:alloc_count").expect("alloc entry");
        assert!(allocs.flagged, "{allocs:?}");
        assert!(allocs.note.contains("allocs"), "{}", allocs.note);

        // An old baseline with no mem series diffs clean against a new
        // artifact that has them (one-sided measurements never flag).
        base.mem_peak_bytes.clear();
        base.mem_alloc_counts.clear();
        let entries = diff_baselines(&base, &grown, &DiffConfig::default());
        assert!(!entries.iter().any(|e| e.key.starts_with("mem:") && e.flagged), "{entries:#?}");
    }

    #[test]
    fn baseline_diff_uses_min_of_n_and_exact_results() {
        let mut base = PerfBaseline {
            results_fingerprint: "{\"cells\":[1]}".into(),
            wall_secs: vec![2.0, 1.0, 1.5],
            ..Default::default()
        };
        base.counters.insert("exec.cache.hits".into(), 40);
        base.phase_secs.insert("surrogate_fit_secs".into(), vec![0.5, 0.4]);
        base.span_min_nanos.insert("suggest".into(), 10_000_000);

        // Current run: noisy max but identical min — not flagged.
        let mut same = base.clone();
        same.wall_secs = vec![9.0, 1.0];
        let entries = diff_baselines(&base, &same, &DiffConfig::default());
        assert!(!entries.iter().any(|e| e.flagged), "{entries:#?}");

        // Slowed phase: min doubles.
        let mut slow = base.clone();
        slow.phase_secs.insert("surrogate_fit_secs".into(), vec![0.9, 0.8]);
        let entries = diff_baselines(&base, &slow, &DiffConfig::default());
        let phase = entries
            .iter()
            .find(|e| e.key == "phase:surrogate_fit_secs")
            .expect("phase entry in diff");
        assert!(phase.flagged, "{phase:?}");

        // Results drift: exact flag regardless of timing.
        let mut drift = base.clone();
        drift.results_fingerprint = "{\"cells\":[2]}".into();
        let entries = diff_baselines(&base, &drift, &DiffConfig::default());
        assert!(entries.iter().any(|e| e.key == "results" && e.flagged));
    }
}
