//! `dbtune` command-line interface.
//!
//! Thin argument-parsing shell over the workspace crates — every
//! subcommand maps onto one library entry point:
//!
//! ```sh
//! dbtune workloads                        # Table 4/5 metadata
//! dbtune rank SYSBENCH measure=shap       # knob ranking
//! dbtune tune TPC-C optimizer=smac        # tune + append history.json
//! dbtune transfer Twitter                 # RGPE over stored history
//! dbtune benchmark Smallbank              # §8 surrogate benchmark
//! ```
//!
//! Options are `key=value` pairs after the positional workload name; see
//! `dbtune help`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use dbtune::core::exec::CachedObjective;
use dbtune::core::importance::collect_pool;
use dbtune::core::repository::Repository;
use dbtune::core::service::{TuningRequest, TuningService};
use dbtune::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "\
dbtune — database configuration tuning with hyper-parameter optimization

USAGE: dbtune <COMMAND> [WORKLOAD] [key=value ...]

COMMANDS
  workloads   Table 4 workloads and Table 5 hardware instances
  rank        rank all catalog knobs by importance for one workload
  tune        run a tuning session and append it to the history file
  transfer    tune with RGPE acceleration over stored history
  benchmark   train + evaluate the §8 surrogate tuning benchmark
  help        this text

COMMON OPTIONS
  hardware=B            target instance A|B|C|D            (default B)
  seed=42               RNG seed                           (default 42)
  measure=shap          lasso|gini|fanova|ablation|shap    (default shap)
  samples=500           observation-pool size for ranking  (default 500)
  knobs=10              number of knobs to tune            (default 10)

TUNE / TRANSFER OPTIONS
  optimizer=smac        vanilla-bo|mixed-bo|smac|tpe|turbo|ddpg|ga|random|grid
  iters=100             tuning iterations                  (default 100)
  init=10               LHS initial design size            (default 10)
  policy=worst          failed-config handling: worst|discard
  history=history.json  repository file to append/load     (default history.json)
  task=<workload>       repository task name
  pin=knob1,knob2       pin the knob set by name (skips ranking)

BENCHMARK OPTIONS
  samples=400           offline collection size            (default 400)
  iters=100             surrogate-session iterations       (default 100)
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let Some(cmd) = raw.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    let args = Args::parse(&raw[1..])?;
    match cmd.as_str() {
        "workloads" => cmd_workloads(),
        "rank" => cmd_rank(&args),
        "tune" => cmd_tune(&args),
        "transfer" => cmd_transfer(&args),
        "benchmark" => cmd_benchmark(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `dbtune help`)")),
    }
}

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

/// Every `key=` any subcommand understands; typos fail fast instead of
/// silently running with defaults (a mistyped `optimzer=tpe` would
/// otherwise tune with SMAC and report nothing amiss).
const KNOWN_OPTS: &[&str] = &[
    "hardware",
    "history",
    "init",
    "iters",
    "knobs",
    "measure",
    "optimizer",
    "pin",
    "policy",
    "samples",
    "seed",
    "task",
];

struct Args {
    positional: Vec<String>,
    opts: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut opts = BTreeMap::new();
        for a in raw {
            match a.split_once('=') {
                Some((k, v)) => {
                    let k = k.to_ascii_lowercase();
                    if !KNOWN_OPTS.contains(&k.as_str()) {
                        return Err(format!(
                            "unknown option `{k}=` (known: {})",
                            KNOWN_OPTS.join(", ")
                        ));
                    }
                    opts.insert(k, v.to_string());
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Self { positional, opts })
    }

    fn workload(&self) -> Result<Workload, String> {
        let name =
            self.positional.first().ok_or("missing workload name (e.g. `dbtune tune TPC-C`)")?;
        parse_workload(name)
    }

    fn str_opt(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    fn usize_opt(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.opts.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}={v}: not an integer")),
        }
    }

    fn u64_opt(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.opts.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}={v}: not an integer")),
        }
    }

    fn hardware(&self) -> Result<Hardware, String> {
        match self.str_opt("hardware").unwrap_or("B") {
            "A" | "a" => Ok(Hardware::A),
            "B" | "b" => Ok(Hardware::B),
            "C" | "c" => Ok(Hardware::C),
            "D" | "d" => Ok(Hardware::D),
            other => Err(format!("hardware={other}: expected A|B|C|D")),
        }
    }

    fn measure(&self) -> Result<MeasureKind, String> {
        match self.str_opt("measure").unwrap_or("shap") {
            "lasso" => Ok(MeasureKind::Lasso),
            "gini" => Ok(MeasureKind::Gini),
            "fanova" => Ok(MeasureKind::Fanova),
            "ablation" => Ok(MeasureKind::Ablation),
            "shap" => Ok(MeasureKind::Shap),
            other => Err(format!("measure={other}: expected lasso|gini|fanova|ablation|shap")),
        }
    }

    fn optimizer(&self) -> Result<OptimizerKind, String> {
        match self.str_opt("optimizer").unwrap_or("smac") {
            "vanilla-bo" | "vanillabo" | "bo" => Ok(OptimizerKind::VanillaBo),
            "mixed-bo" | "mixed-kernel-bo" | "mixedbo" => Ok(OptimizerKind::MixedKernelBo),
            "smac" => Ok(OptimizerKind::Smac),
            "tpe" => Ok(OptimizerKind::Tpe),
            "turbo" => Ok(OptimizerKind::Turbo),
            "ddpg" => Ok(OptimizerKind::Ddpg),
            "ga" => Ok(OptimizerKind::Ga),
            "random" => Ok(OptimizerKind::Random),
            "grid" => Ok(OptimizerKind::Grid),
            other => Err(format!("optimizer={other}: unknown optimizer")),
        }
    }

    fn failure_policy(&self) -> Result<FailurePolicy, String> {
        match self.str_opt("policy").unwrap_or("worst") {
            "worst" | "worst-seen" => Ok(FailurePolicy::WorstSeen),
            "discard" | "skip" => Ok(FailurePolicy::Discard),
            other => Err(format!("policy={other}: expected worst|discard")),
        }
    }

    fn session_config(&self) -> Result<SessionConfig, String> {
        Ok(SessionConfig {
            iterations: self.usize_opt("iters", 100)?,
            lhs_init: self.usize_opt("init", 10)?,
            seed: self.u64_opt("seed", 42)?,
            failure_policy: self.failure_policy()?,
            ..Default::default()
        })
    }

    /// `pin=knob1,knob2,...` resolved against the catalog.
    fn pinned_knobs(&self, catalog: &KnobCatalog) -> Result<Option<Vec<usize>>, String> {
        let Some(list) = self.str_opt("pin") else { return Ok(None) };
        let mut idx = Vec::new();
        for name in list.split(',').filter(|s| !s.is_empty()) {
            idx.push(catalog.index_of(name).ok_or_else(|| format!("pin: unknown knob `{name}`"))?);
        }
        if idx.is_empty() {
            return Err("pin=: empty knob list".into());
        }
        Ok(Some(idx))
    }
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    let wanted = name.to_ascii_lowercase().replace('-', "");
    Workload::ALL
        .iter()
        .find(|w| w.name().to_ascii_lowercase().replace('-', "") == wanted)
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (one of {})", names.join(", "))
        })
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

fn cmd_workloads() -> Result<(), String> {
    println!("Workloads (Table 4):");
    println!(
        "  {:<10} {:<16} {:>8} {:>7} {:>10}  objective",
        "name", "class", "size GB", "tables", "read-only"
    );
    for w in Workload::ALL {
        let p = w.profile();
        let obj = if w.is_latency_objective() { "95th-pct latency" } else { "throughput" };
        println!(
            "  {:<10} {:<16} {:>8.1} {:>7} {:>9.0}%  {obj}",
            w.name(),
            format!("{:?}", p.class),
            p.size_gb,
            p.tables,
            p.read_only_frac * 100.0,
        );
    }
    println!("\nHardware instances (Table 5):");
    println!("  {:<4} {:>6} {:>8} {:>12}", "name", "cores", "RAM GB", "perf scale");
    for h in [Hardware::A, Hardware::B, Hardware::C, Hardware::D] {
        println!(
            "  {:<4} {:>6} {:>8.0} {:>12.2}",
            h.label(),
            h.cores(),
            h.ram_mb() / 1024.0,
            h.perf_scale()
        );
    }
    Ok(())
}

/// Knob selection as `rank`, `tune` and `benchmark` share it: an LHS
/// pool of `samples=` draws over the full catalog around the
/// `hardware=` defaults, scored by `measure=`. Returns per-knob scores in
/// catalog order.
fn knob_scores(args: &Args, sim: &mut DbSimulator) -> Result<Vec<f64>, String> {
    let seed = args.u64_opt("seed", 42)?;
    let measure = args.measure()?;
    let samples = args.usize_opt("samples", 500)?;
    let catalog = sim.catalog();
    let space =
        TuningSpace::with_default_base(catalog, (0..catalog.len()).collect(), args.hardware()?);
    eprintln!(
        "ranking {} knobs by {measure:?} over a {samples}-sample LHS pool on {}…",
        catalog.len(),
        sim.workload().name()
    );
    let pool = collect_pool(sim, &space, samples, &mut StdRng::seed_from_u64(seed));
    Ok(measure.scores(&space, &pool, seed))
}

/// The knobs to tune: `pin=` if given, else the top `knobs=` by
/// [`knob_scores`].
fn selected_knobs(args: &Args, sim: &mut DbSimulator) -> Result<Vec<usize>, String> {
    match args.pinned_knobs(sim.catalog())? {
        Some(pinned) => Ok(pinned),
        None => Ok(top_k(&knob_scores(args, sim)?, args.usize_opt("knobs", 10)?)),
    }
}

fn cmd_rank(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let top = args.usize_opt("knobs", 10)?;
    let mut sim = DbSimulator::new(workload, args.hardware()?, args.u64_opt("seed", 42)?);
    let scores = knob_scores(args, &mut sim)?;
    let catalog = sim.catalog();
    println!(
        "top {top} of {} knobs for {} by {:?}:",
        catalog.len(),
        workload.name(),
        args.measure()?
    );
    for (rank, &i) in top_k(&scores, top).iter().enumerate() {
        println!("  {:>3}. {:<40} {:>10.4}", rank + 1, catalog.specs()[i].name, scores[i]);
    }
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let hardware = args.hardware()?;
    let seed = args.u64_opt("seed", 42)?;
    let mut sim = DbSimulator::new(workload, hardware, seed);
    let catalog = sim.catalog().clone();

    let selected = selected_knobs(args, &mut sim)?;
    let space = TuningSpace::with_default_base(&catalog, selected.clone(), hardware);

    let optimizer = args.optimizer()?;
    let cfg = args.session_config()?;
    let mut opt = optimizer.build(space.space(), METRICS_DIM, cfg.seed);
    let result = run_session(&mut sim, &space, &mut *opt, &cfg);
    report_session(&space, &result);

    let history = args.str_opt("history").unwrap_or("history.json");
    let task =
        args.str_opt("task").map(str::to_string).unwrap_or_else(|| workload.name().to_lowercase());
    let mut repo = Repository::load(Path::new(history)).map_err(|e| e.to_string())?;
    repo.record_session(&task, &space, &result);
    repo.save(Path::new(history)).map_err(|e| e.to_string())?;
    println!(
        "recorded task `{task}` ({} knobs: {}) into {history}",
        selected.len(),
        space.space().specs().iter().map(|s| s.name).collect::<Vec<_>>().join(", "),
    );
    Ok(())
}

fn report_session(space: &TuningSpace, result: &SessionResult) {
    println!(
        "best improvement over default: {:+.1}% (found at iteration {})",
        result.best_improvement() * 100.0,
        result.iterations_to_best(),
    );
    println!(
        "  default {:.1} -> best {:.1}; {:.2} simulated hours, {:.2}s optimizer overhead",
        result.default_value,
        result.best_value(),
        result.simulated_secs / 3600.0,
        result.overhead_secs.iter().sum::<f64>(),
    );
    if let Some(best) =
        result.observations.iter().filter(|o| !o.failed).max_by(|a, b| a.score.total_cmp(&b.score))
    {
        println!("  best configuration:");
        for (spec, v) in space.space().specs().iter().zip(&best.config) {
            println!("    {:<40} {v}", spec.name);
        }
    }
}

fn cmd_transfer(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let hardware = args.hardware()?;
    let seed = args.u64_opt("seed", 42)?;
    let history = args.str_opt("history").unwrap_or("history.json");
    let task =
        args.str_opt("task").map(str::to_string).unwrap_or_else(|| workload.name().to_lowercase());

    let mut sim = DbSimulator::new(workload, hardware, seed);
    let catalog = sim.catalog().clone();
    let repo = Repository::load(Path::new(history)).map_err(|e| e.to_string())?;
    if repo.is_empty() {
        return Err(format!(
            "no stored history in {history}; run `dbtune tune` first to build one"
        ));
    }
    eprintln!("{} stored task(s) in {history}: {}", repo.len(), repo.task_names().join(", "));

    let mut service = TuningService::with_repository(catalog.clone(), repo);
    let req = TuningRequest {
        task: task.clone(),
        measure: args.measure()?,
        pool_samples: args.usize_opt("samples", 500)?,
        n_knobs: args.usize_opt("knobs", 10)?,
        optimizer: args.optimizer()?,
        transfer: true,
        knobs_override: args.pinned_knobs(&catalog)?,
        session: args.session_config()?,
    };
    let report = service.tune(&mut sim, &req);
    println!(
        "transfer used {} source task(s){}",
        report.n_sources,
        if report.n_sources == 0 {
            " — no stored space matched; tuned from scratch (try pin= to reuse a stored knob set)"
        } else {
            ""
        }
    );
    report_session(&report.space, &report.result);
    service.repository().save(Path::new(history)).map_err(|e| e.to_string())?;
    println!("appended task `{task}` to {history}");
    Ok(())
}

fn cmd_benchmark(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let hardware = args.hardware()?;
    let seed = args.u64_opt("seed", 42)?;
    let samples = args.usize_opt("samples", 400)?;
    let mut sim = DbSimulator::new(workload, hardware, seed);
    let catalog = sim.catalog().clone();

    let selected = selected_knobs(args, &mut sim)?;
    let space = TuningSpace::with_default_base(&catalog, selected, hardware);

    eprintln!("collecting {samples} offline samples on {}…", workload.name());
    let ds = collect_samples(&mut sim, &space, samples, seed);
    let bench = SurrogateBenchmark::train(space.clone(), sim.objective(), &ds, seed);

    let optimizer = args.optimizer()?;
    let cfg = args.session_config()?;
    let t0 = std::time::Instant::now(); // lint: allow(D2) end-to-end speedup report — timing is the deliverable
    let mut opt = optimizer.build(space.space(), METRICS_DIM, cfg.seed);
    let mut obj = CachedObjective::new(&bench, None, seed);
    let result = run_session(&mut obj, &space, &mut *opt, &cfg);
    let report = SpeedupReport::new(obj.n_evals(), t0.elapsed().as_secs_f64());
    println!(
        "{} on the surrogate: {:+.1}% improvement over default",
        optimizer.label(),
        result.best_improvement() * 100.0
    );
    println!(
        "{} surrogate evaluations in {:.3}s end to end; workload replay would have taken {:.1} h -> {:.0}x speedup",
        report.n_evals,
        report.wall_secs,
        report.replay_secs / 3600.0,
        report.speedup,
    );
    Ok(())
}
