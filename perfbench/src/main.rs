//! End-to-end and per-layer benchmark of the dbtune pipeline.
//!
//! ```text
//! perfbench --workload <tune_hd|knob_select|sweep_lowdim|transfer>
//!           --seed <n> --seconds <s> --trace <0|1> [--journal-dir <dir>]
//! ```
//!
//! With `--trace 0` the binary repeats cycles of units over fixed unit
//! seeds for about `--seconds`, times the set-up of `--seed` in batches
//! between sessions, and reports the end-to-end metrics at the reference
//! host's speed (see `gauge`). With `--trace 1` it runs the seeded unit once untraced and
//! once with the program's journal and memory profiler latched on,
//! checks that both produce the same results, and reports the per-layer
//! metrics; the journal of the traced unit stays in
//! `<journal-dir>/journal-<workload>.jsonl` (default directory
//! `.bench_build/perfbench`). The last line of standard output is one
//! JSON object; the lines before it are a human-readable record of the
//! same run. `README.md` beside this crate describes the metrics and
//! workloads.

mod gauge;
mod host;
mod stats;
mod workloads;
mod wrap;

use host::HostRecord;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{setup, Kind, Prepared, UnitOut};
use wrap::Layers;

/// The end-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("iter_overhead_ms_p50", "ms"),
    ("iter_overhead_ms_p95", "ms"),
    ("best_improvement_pct", "%"),
    ("topk_gain_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// The per-layer metrics: name, unit. A traced run reports every one;
/// a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 69] = [
    ("dbsim.evaluate.calls", "count"),
    ("dbsim.evaluate.busy_s", "s"),
    ("dbsim.crash_ratio", "ratio"),
    ("exec.cache.hits", "count"),
    ("exec.cache.misses", "count"),
    ("exec.cache.hit_ratio", "ratio"),
    ("exec.cell_s_p50", "s"),
    ("exec.cell_s_max", "s"),
    ("exec.idle_s", "s"),
    ("tuner.surrogate_fit_s", "s"),
    ("tuner.acquisition_s", "s"),
    ("tuner.bookkeeping_s", "s"),
    ("tuner.evaluate_s", "s"),
    ("tuner.iter_samples", "count"),
    ("optimizer.vanilla_bo.suggest_s", "s"),
    ("optimizer.vanilla_bo.observe_s", "s"),
    ("optimizer.vanilla_bo.calls", "count"),
    ("optimizer.mixed_bo.suggest_s", "s"),
    ("optimizer.mixed_bo.observe_s", "s"),
    ("optimizer.mixed_bo.calls", "count"),
    ("optimizer.smac.suggest_s", "s"),
    ("optimizer.smac.observe_s", "s"),
    ("optimizer.smac.calls", "count"),
    ("optimizer.tpe.suggest_s", "s"),
    ("optimizer.tpe.observe_s", "s"),
    ("optimizer.tpe.calls", "count"),
    ("optimizer.turbo.suggest_s", "s"),
    ("optimizer.turbo.observe_s", "s"),
    ("optimizer.turbo.calls", "count"),
    ("optimizer.ddpg.suggest_s", "s"),
    ("optimizer.ddpg.observe_s", "s"),
    ("optimizer.ddpg.calls", "count"),
    ("optimizer.ga.suggest_s", "s"),
    ("optimizer.ga.observe_s", "s"),
    ("optimizer.ga.calls", "count"),
    ("gp.extend.self_s", "s"),
    ("gp.predict_batch.self_s", "s"),
    ("gp.predict_batch.calls", "count"),
    ("acquisition.self_s", "s"),
    ("importance.lasso.busy_s", "s"),
    ("importance.gini.busy_s", "s"),
    ("importance.fanova.busy_s", "s"),
    ("importance.ablation.busy_s", "s"),
    ("importance.shap.busy_s", "s"),
    ("transfer.rgpe_gp.build_s", "s"),
    ("transfer.rgpe_gp.suggest_s", "s"),
    ("transfer.rgpe_gp.observe_s", "s"),
    ("transfer.rgpe_gp.calls", "count"),
    ("transfer.rgpe_rf.build_s", "s"),
    ("transfer.rgpe_rf.suggest_s", "s"),
    ("transfer.rgpe_rf.observe_s", "s"),
    ("transfer.rgpe_rf.calls", "count"),
    ("transfer.map_bo.build_s", "s"),
    ("transfer.map_bo.suggest_s", "s"),
    ("transfer.map_bo.observe_s", "s"),
    ("transfer.map_bo.calls", "count"),
    ("transfer.map_smac.build_s", "s"),
    ("transfer.map_smac.suggest_s", "s"),
    ("transfer.map_smac.observe_s", "s"),
    ("transfer.map_smac.calls", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("mem.alloc_count", "count"),
    ("mem.fit.alloc_bytes", "bytes"),
    ("mem.acq.alloc_bytes", "bytes"),
    ("host.cpu_s", "s"),
    ("host.runq_wait_s", "s"),
    ("host.steal_s", "s"),
    ("host.nproc", "count"),
    ("host.loadavg", "load"),
];

struct Args {
    name: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    journal: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?.clone();
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
    }
    Ok(Args {
        kind: Kind::parse(&name)?,
        seed: get("seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        journal: PathBuf::from(map.get("journal-dir").map_or(".bench_build/perfbench", |d| d))
            .join(format!("journal-{name}.jsonl")),
        name,
    })
}

/// Worker threads of the `sweep_lowdim` pool in the traced run. Timed
/// units run every workload on one thread: measured back to back on a
/// 2-core host, a 2-worker grid's wall time wandered by about 8% from
/// run to run, a 1-worker grid's by under 2%.
fn pool_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Least unit time between two set-up batches.
const SETUP_GAP_S: f64 = 1.0;

/// How strongly set-up time follows the host-speed gauge (see
/// `Kind::gauge_beta`).
const SETUP_BETA: f64 = 0.75;

/// Times set-up in batches of a fixed number of set-ups, spread over the
/// run at operation boundaries, so a change in the host's speed during
/// the run reaches set-up as it reaches the units.
struct SetupTimer {
    kind: Kind,
    seed: u64,
    reps: usize,
    last: Instant,
    /// Mean time of one set-up in each batch, at the reference host's
    /// speed.
    samples: Vec<f64>,
    /// Gauge slowness around each batch.
    slowness: Vec<f64>,
    /// Time spent in batches, to be taken out of the units' time.
    spent: f64,
}

impl SetupTimer {
    fn new(kind: Kind, seed: u64) -> Self {
        let mut timer = Self {
            kind,
            seed,
            reps: kind.setup_reps(),
            last: Instant::now(),
            samples: Vec::new(),
            slowness: Vec::new(),
            spent: 0.0,
        };
        timer.batch();
        timer
    }

    fn batch(&mut self) {
        let before = gauge::mark();
        let t = Instant::now();
        for _ in 0..self.reps {
            std::hint::black_box(setup(self.kind, self.seed));
        }
        let dt = t.elapsed().as_secs_f64();
        let slowness = (before * gauge::mark()).sqrt();
        self.samples.push(gauge::adjust(dt / self.reps as f64, slowness, SETUP_BETA));
        self.slowness.push(slowness);
        self.spent += dt;
        self.last = Instant::now();
    }

    /// Runs a batch if `SETUP_GAP_S` has passed since the last one.
    fn between(&mut self) {
        if self.last.elapsed().as_secs_f64() >= SETUP_GAP_S {
            self.batch();
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The run's result line and what it checked.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn new(units: &[&UnitOut]) -> Self {
        Self {
            attempted: units.iter().map(|u| u.attempted).sum(),
            failures: units.iter().flat_map(|u| u.failures.clone()).collect(),
            metrics: Vec::new(),
        }
    }

    /// Records a failure unless `b` reproduced `a`'s results.
    fn same_results(&mut self, a: &UnitOut, b: &UnitOut, what: &str) {
        if a.fingerprint != b.fingerprint {
            self.failures.push(format!(
                "{what}: fingerprint {:016x} differs from {:016x}",
                b.fingerprint, a.fingerprint
            ));
        }
    }

    fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    fn print(&self) {
        for f in &self.failures {
            println!("check failed: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed(),
            metrics.join(", ")
        );
    }
}

fn run_untraced(args: &Args) -> Result<Outcome, String> {
    gauge::enable();
    let mut timer = SetupTimer::new(args.kind, args.seed);
    let beta = args.kind.gauge_beta();

    // The timed units' inputs, and the optimum their knob sets allow;
    // neither is part of the timed set-up.
    let seeds = args.kind.unit_seeds();
    let inputs: Vec<Prepared> = seeds.clone().map(|s| setup(args.kind, s).0).collect();
    let space_gains: Vec<f64> = inputs.iter().flat_map(Prepared::space_gains).collect();

    // Whole cycles over the unit seeds, until the next would end after
    // `--seconds`; every cycle runs the same work. A unit's time and its
    // per-iteration samples are taken to the reference host's speed by
    // the median gauge slowness while it ran.
    let start = Instant::now();
    let mut cycles: Vec<Vec<UnitOut>> = Vec::new();
    let mut cycle_s = Vec::new();
    let mut raw_s = Vec::new();
    let (mut unit_raw_s, mut unit_slowness) = (Vec::new(), Vec::new());
    loop {
        let mut cycle = Vec::new();
        let (mut busy, mut raw_busy) = (0.0, 0.0);
        for input in &inputs {
            gauge::take();
            let spent = timer.spent;
            let t = Instant::now();
            let mut unit = input.run(1, &mut || timer.between());
            gauge::mark();
            let (samples, gauge_s) = gauge::take();
            let raw = t.elapsed().as_secs_f64() - (timer.spent - spent) - gauge_s;
            let slowness = stats::median(&samples);
            let factor = gauge::adjust(1.0, slowness, beta);
            unit.iter_ms.iter_mut().for_each(|ms| *ms *= factor);
            busy += raw * factor;
            raw_busy += raw;
            unit_raw_s.push(raw);
            unit_slowness.push(slowness);
            cycle.push(unit);
            timer.between();
        }
        cycles.push(cycle);
        cycle_s.push(busy);
        raw_s.push(raw_busy);
        if start.elapsed().as_secs_f64() + stats::median(&raw_s) > args.seconds {
            break;
        }
    }

    let units: Vec<&UnitOut> = cycles.iter().flatten().collect();
    let mut outcome = Outcome::new(&units);
    for (c, cycle) in cycles.iter().enumerate().skip(1) {
        for (i, unit) in cycle.iter().enumerate() {
            let what = format!("cycle {c}, unit {i}");
            outcome.same_results(&cycles[0][i], unit, &what);
        }
    }
    let iter_ms: Vec<f64> = units.iter().flat_map(|u| u.iter_ms.iter().copied()).collect();
    let p50 = stats::percentile(&iter_ms, 0.50)?;
    let p95 = stats::percentile(&iter_ms, 0.95)?;
    let improvements: Vec<f64> = cycles[0].iter().flat_map(|u| u.improvements.clone()).collect();
    let gains = match args.kind {
        Kind::KnobSelect => cycles[0].iter().flat_map(|u| u.topk_gains.clone()).collect(),
        _ => space_gains,
    };
    let unit_s: Vec<f64> = cycle_s.iter().map(|s| s / inputs.len() as f64).collect();
    let host = HostRecord::read();
    let ok = (outcome.attempted - outcome.failed()) as f64 / outcome.attempted.max(1) as f64;
    let values = [
        stats::median(&unit_s),
        stats::median(&timer.samples),
        p50,
        p95,
        100.0 * mean(&improvements),
        100.0 * mean(&gains),
        host.peak_rss_mb,
        ok,
    ];
    outcome.metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect();

    println!("workload {} seed {} unit seeds {seeds:?}", args.name, args.seed);
    println!("cycles {} | mean unit wall_s per cycle {unit_s:?}", cycles.len());
    println!("unit wall_s as measured {unit_raw_s:?}");
    println!("gauge slowness per unit {unit_slowness:?} (beta {beta})");
    println!("set-up batches of {}: {:?}", timer.reps, timer.samples);
    println!("gauge slowness per set-up batch {:?} (beta {SETUP_BETA})", timer.slowness);
    println!(
        "iter_overhead samples {} (p50 has {} beyond it, p95 has {})",
        iter_ms.len(),
        stats::beyond(iter_ms.len(), 0.50),
        stats::beyond(iter_ms.len(), 0.95)
    );
    println!("best improvement per session {improvements:?}");
    println!("optimum gain per knob set {gains:?}");
    print_host(&host);
    println!(
        "gauge: median slowness {} | wall_s as measured {}",
        stats::median(&unit_slowness),
        stats::median(&raw_s) / inputs.len() as f64
    );
    for (name, unit, v) in &outcome.metrics {
        println!("{name} = {v} {unit}");
    }
    Ok(outcome)
}

fn print_host(h: &HostRecord) {
    println!(
        "host: cpu \"{}\" nproc {} loadavg {} cpu_s {} runq_wait_s {} steal_s {} peak_rss_mb {}",
        h.cpu_model, h.nproc, h.loadavg, h.cpu_s, h.runq_wait_s, h.steal_s, h.peak_rss_mb
    );
}

/// Self time and close count per span name, folded from the program's
/// own journal.
fn fold_journal(path: &std::path::Path) -> Result<BTreeMap<String, (f64, u64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    let journal = dbtune_trace::load_journal_str(&text)?;
    let trees = dbtune_trace::build_trees(&journal.events)
        .map_err(|e| format!("journal {} is malformed: {e:?}", path.display()))?;
    fn walk(node: &dbtune_trace::SpanNode, out: &mut BTreeMap<String, (f64, u64)>) {
        let e = out.entry(node.name.clone()).or_insert((0.0, 0));
        e.0 += node.self_nanos() as f64 * 1e-9;
        e.1 += 1;
        node.children.iter().for_each(|c| walk(c, out));
    }
    let mut out = BTreeMap::new();
    for tree in &trees {
        tree.roots.iter().for_each(|r| walk(r, &mut out));
    }
    Ok(out)
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let (prepared, setup_layers) = setup(args.kind, args.seed);
    let t = Instant::now();
    let plain = prepared.run(1, &mut || {});
    let plain_s = t.elapsed().as_secs_f64();

    if let Some(dir) = args.journal.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let tele = dbtune_core::telemetry::global();
    tele.enable_journal(&args.journal, "perfbench")
        .map_err(|e| format!("cannot open journal {}: {e}", args.journal.display()))?;
    tele.enable_memprof();
    let t = Instant::now();
    let traced = prepared.run(1, &mut || {});
    let traced_s = t.elapsed().as_secs_f64();
    tele.flush_metrics();
    tele.journal.disable();
    let mem = dbtune_obs::memprof::global_stats();
    let mem_table = dbtune_obs::memprof::table_snapshot();
    let spans = fold_journal(&args.journal)?;

    // The executor's results must not depend on which worker ran which
    // cell: a pooled grid must reproduce the serial one. The pool also
    // supplies the `exec.*` layer numbers.
    let workers = pool_workers();
    let pooled =
        (args.kind == Kind::SweepLowdim && workers > 1).then(|| prepared.run(workers, &mut || {}));
    let mut units = vec![&plain, &traced];
    units.extend(pooled.as_ref());
    let mut outcome = Outcome::new(&units);
    outcome.same_results(&plain, &traced, "traced run");
    if let Some(pooled) = &pooled {
        outcome.same_results(&plain, pooled, &format!("grid on {workers} workers"));
    }

    let mut layers = Layers::default();
    layers.merge(&setup_layers);
    layers.merge(&traced.layers);
    for (k, v) in pooled.iter().flat_map(|p| &p.layers.0) {
        if k.starts_with("exec.") {
            layers.0.insert(k.clone(), *v);
        }
    }
    let calls = layers.get("dbsim.evaluate.calls");
    layers.add("dbsim.crash_ratio", layers.get("dbsim.crashes") / calls.max(1.0));
    layers.add("tuner.iter_samples", traced.iter_ms.len() as f64);
    let span = |name: &str| spans.get(name).copied().unwrap_or((0.0, 0));
    layers.add("gp.extend.self_s", span("gp.extend").0);
    layers.add("gp.predict_batch.self_s", span("gp.predict_batch").0);
    layers.add("gp.predict_batch.calls", span("gp.predict_batch").1 as f64);
    layers.add("acquisition.self_s", span("acquisition").0);
    layers.add("obs.trace_overhead_ratio", traced_s / plain_s);
    layers.add("mem.alloc_count", mem.alloc_count as f64);
    for (name, agg) in mem_table {
        match name {
            "surrogate_fit" => layers.add("mem.fit.alloc_bytes", agg.self_bytes as f64),
            "acquisition" => layers.add("mem.acq.alloc_bytes", agg.self_bytes as f64),
            _ => {}
        }
    }
    let host = HostRecord::read();
    layers.add("host.cpu_s", host.cpu_s);
    layers.add("host.runq_wait_s", host.runq_wait_s);
    layers.add("host.steal_s", host.steal_s);
    layers.add("host.nproc", host.nproc as f64);
    layers.add("host.loadavg", host.loadavg);

    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    for name in layers.0.keys() {
        if !declared.contains(&name.as_str()) && name != "dbsim.crashes" {
            return Err(format!("layer metric {name} is not declared"));
        }
    }
    outcome.metrics = PER_LAYER.iter().map(|&(n, u)| (n, u, layers.get(n))).collect();

    println!("workload {} seed {} (traced; sweep pool {workers} workers)", args.name, args.seed);
    println!(
        "untraced wall_s {plain_s} | traced wall_s {traced_s} | fingerprint {:016x}",
        plain.fingerprint
    );
    println!("iter_overhead samples {}", traced.iter_ms.len());
    print_host(&host);
    for (name, unit, v) in &outcome.metrics {
        println!("{name} = {v} {unit}");
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    host::start();
    let result = if args.trace { run_traced(&args) } else { run_untraced(&args) };
    match result {
        Ok(outcome) => {
            if let Some((name, _, v)) = outcome.metrics.iter().find(|m| !m.2.is_finite()) {
                eprintln!("perfbench: metric {name} is not finite ({v})");
                return ExitCode::FAILURE;
            }
            outcome.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
