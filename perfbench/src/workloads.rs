//! The four workloads. Each builds its inputs in memory from the seed
//! (`setup`), then runs one fixed-size unit of work (`run`) that the
//! benchmark repeats and times. A unit's result fingerprint depends only on
//! the seed, so every repetition must reproduce it exactly.

use crate::wrap::{Layers, TimedMeasure, TimedObjective, TimedOptimizer};
use dbtune_core::exec::{cell_seed, run_grid, CachedObjective, EvalCache};
use dbtune_core::importance::{top_k, ImportanceInput, ImportanceMeasure, MeasureKind};
use dbtune_core::optimizer::{Optimizer, OptimizerKind};
use dbtune_core::sampling;
use dbtune_core::space::TuningSpace;
use dbtune_core::transfer::{BaseKind, MappedOptimizer, RgpeOptimizer, SourceTask, SurrogateKind};
use dbtune_core::tuner::{improvement, orient, run_session, SessionConfig, SessionResult};
use dbtune_dbsim::{DbSimulator, Hardware, Workload, METRICS_DIM};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Iterations of each `tune_hd` session (Vanilla BO and SMAC).
const HD_ITERS: usize = 100;
/// LHS pool size of `knob_select`. The paper collects 6250 samples, and
/// the five rankings of 2000 take about 20 s. At 400 samples SHAP's
/// early-stopped boosting made its cost swing twofold from seed to seed;
/// at 800 it stayed within 20% on the seeds tried.
const POOL: usize = 800;
/// Knobs each `knob_select` ranking keeps (Table 6's top-k).
const TOP_K: usize = 20;
/// Iterations of the SMAC session tuning each measure's top-k.
const SELECT_ITERS: usize = 40;
/// Knobs of the `sweep_lowdim` grid: the first 12 catalog indices.
const LOW_KNOBS: usize = 12;
/// Iterations of each `sweep_lowdim` cell.
const SWEEP_ITERS: usize = 60;
/// Knobs of the `transfer` spaces: the first 20 catalog indices.
const TRANSFER_KNOBS: usize = 20;
/// LHS samples per transfer source history.
const SOURCE_SAMPLES: usize = 60;
/// Iterations of each transfer session.
const TRANSFER_ITERS: usize = 50;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TuneHd,
    KnobSelect,
    SweepLowdim,
    Transfer,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "tune_hd" => Ok(Kind::TuneHd),
            "knob_select" => Ok(Kind::KnobSelect),
            "sweep_lowdim" => Ok(Kind::SweepLowdim),
            "transfer" => Ok(Kind::Transfer),
            other => Err(format!(
                "unknown workload {other:?} (tune_hd, knob_select, sweep_lowdim, transfer)"
            )),
        }
    }

    /// Seeds of the timed units of a `--trace 0` run. Every run times
    /// the same units, so the quality metrics, means over these units'
    /// sessions, read the same on every run and move only when the
    /// program's search does; averaging over several seeds keeps a search
    /// change that is neutral on average from moving them far. A cycle
    /// over the seeds takes 12-18 s on a 2-core Xeon host.
    pub fn unit_seeds(self) -> std::ops::RangeInclusive<u64> {
        match self {
            Kind::TuneHd | Kind::KnobSelect | Kind::SweepLowdim => 1..=3,
            Kind::Transfer => 1..=12,
        }
    }

    /// How strongly the unit's time follows the host-speed gauge: the
    /// slope of log unit time on log gauge slowness, fitted over repeats
    /// of the units on the reference host; on `sweep_lowdim` raised above
    /// the fit, since its per-iteration median follows the gauge more
    /// closely than its unit time (README, "Host speed").
    pub fn gauge_beta(self) -> f64 {
        match self {
            Kind::TuneHd => 0.5,
            Kind::KnobSelect => 0.45,
            Kind::SweepLowdim => 0.8,
            Kind::Transfer => 0.85,
        }
    }

    /// Set-ups timed together as one `setup_s` sample: about 0.1 s of
    /// work.
    pub fn setup_reps(self) -> usize {
        match self {
            Kind::TuneHd => 4000,
            Kind::KnobSelect => 12,
            Kind::SweepLowdim => 1200,
            Kind::Transfer => 35,
        }
    }
}

/// What one unit of work produced.
#[derive(Clone, Debug, Default)]
pub struct UnitOut {
    /// Hash of every result the unit computed.
    pub fingerprint: u64,
    /// Operations (sessions and rankings) attempted.
    pub attempted: u64,
    /// Of those, operations whose output check failed, with the reason.
    pub failures: Vec<String>,
    /// Per-iteration algorithm overhead of every session, milliseconds.
    pub iter_ms: Vec<f64>,
    /// `best_improvement()` of every session, as a fraction.
    pub improvements: Vec<f64>,
    /// Gains of the noise-free optimum of the tuned knob sets over the
    /// default (`knob_select` only; the others score their fixed space
    /// outside the unit, see [`Prepared::space_gains`]).
    pub topk_gains: Vec<f64>,
    /// Per-layer numbers measured by the wrappers.
    pub layers: Layers,
}

/// FNV-1a over 64-bit words: the result fingerprint.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A session's contribution to the unit: fingerprint, the output check,
/// and the quality and phase numbers.
fn absorb_session(out: &mut UnitOut, fp: &mut Fingerprint, label: &str, r: &SessionResult) {
    out.attempted += 1;
    for o in &r.observations {
        fp.floats(&o.config);
        fp.word(o.score.to_bits());
    }
    fp.floats(&r.best_score_trace);
    let trace = &r.best_score_trace;
    if trace.is_empty() || trace.iter().any(|s| !s.is_finite()) {
        out.failures.push(format!("{label}: best-score trace is empty or not finite"));
    } else if trace.windows(2).any(|w| w[1] < w[0]) {
        out.failures.push(format!("{label}: best-score trace decreases"));
    } else if !r.best_improvement().is_finite() {
        out.failures.push(format!("{label}: best improvement is not finite"));
    }
    out.improvements.push(r.best_improvement());
    out.iter_ms.extend(r.overhead_secs.iter().map(|s| s * 1e3));
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    out.layers.add("tuner.surrogate_fit_s", sum(&r.phases.surrogate_fit_secs));
    out.layers.add("tuner.acquisition_s", sum(&r.phases.acquisition_secs));
    out.layers.add("tuner.bookkeeping_s", sum(&r.phases.bookkeeping_secs));
    out.layers.add("tuner.evaluate_s", sum(&r.phases.evaluate_secs));
}

/// One session of `opt` over `space` against `sim` through a
/// [`CachedObjective`], with both the optimizer and the objective timed.
#[allow(clippy::too_many_arguments)]
fn session(
    out: &mut UnitOut,
    fp: &mut Fingerprint,
    sim: &DbSimulator,
    space: &TuningSpace,
    mut opt: TimedOptimizer,
    iterations: usize,
    seed: u64,
    cache: Option<Arc<EvalCache>>,
    noise_seed: u64,
) {
    let mut obj = TimedObjective::new(CachedObjective::new(sim.clone(), cache, noise_seed));
    let cfg = SessionConfig { iterations, lhs_init: 10, seed, ..Default::default() };
    let r = run_session(&mut obj, space, &mut opt, &cfg);
    absorb_session(out, fp, opt.name(), &r);
    opt.report(&mut out.layers);
    obj.report(&mut out.layers);
}

/// Noise-free gain of tuning `selected` knobs (rest at `base`) over the
/// default: `estimate_optimum_over` against `expected_value`.
fn optimum_gain(sim: &DbSimulator, selected: &[usize], base: &[f64]) -> f64 {
    let default = sim.expected_value(base).expect("default configuration must not crash");
    let best = sim.estimate_optimum_over(selected, base).expect("optimum over a non-crashing base");
    improvement(sim.objective(), default, best)
}

/// An LHS sample of `n` configurations of `space` evaluated on `sim`,
/// with crashes scored as the worst score seen (§4.1) — the in-memory
/// form of the drivers' pool collection.
fn lhs_history(
    sim: &mut DbSimulator,
    space: &TuningSpace,
    n: usize,
    seed: u64,
    layers: &mut Layers,
) -> SourceTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let obj = sim.objective();
    let default_score = orient(obj, sim.expected_value(space.base()).expect("default runs"));
    let mut task = SourceTask { name: sim.workload().name().to_string(), ..Default::default() };
    let mut worst = f64::INFINITY;
    let mut busy = 0.0;
    let mut crashes = 0.0;
    for sub in sampling::lhs(space.space(), n, &mut rng) {
        let t = Instant::now();
        let out = sim.evaluate(&space.full_config(&sub));
        busy += t.elapsed().as_secs_f64();
        let score = if out.failed {
            crashes += 1.0;
            if worst.is_finite() {
                worst
            } else {
                default_score - 1.0
            }
        } else {
            orient(obj, out.value)
        };
        worst = worst.min(score);
        task.x.push(sub);
        task.y.push(score);
        task.metrics.push(out.metrics);
    }
    layers.add("dbsim.evaluate.calls", n as f64);
    layers.add("dbsim.evaluate.busy_s", busy);
    layers.add("dbsim.crashes", crashes);
    task
}

/// A workload's inputs.
enum Input {
    TuneHd { sim: DbSimulator, space: TuningSpace, seed: u64 },
    KnobSelect { sim: DbSimulator, pool: SourceTask, catalog_space: TuningSpace, seed: u64 },
    SweepLowdim { sims: Vec<(DbSimulator, TuningSpace)>, seed: u64 },
    Transfer { sim: DbSimulator, space: TuningSpace, sources: Vec<SourceTask>, seed: u64 },
}

/// A workload set up: its inputs.
pub struct Prepared(Input);

/// Builds a workload's inputs from the seed: simulators, catalog and
/// spaces, and the LHS pool (`knob_select`) or source histories
/// (`transfer`). Returns the layer numbers of the set-up (the simulator
/// work of pool and history collection).
pub fn setup(kind: Kind, seed: u64) -> (Prepared, Layers) {
    let mut layers = Layers::default();
    let input = match kind {
        Kind::TuneHd => {
            let sim = DbSimulator::new(Workload::Sysbench, Hardware::B, seed);
            let all = (0..sim.catalog().len()).collect();
            let space = TuningSpace::with_default_base(sim.catalog(), all, Hardware::B);
            Input::TuneHd { sim, space, seed }
        }
        Kind::KnobSelect => {
            let mut sim = DbSimulator::new(Workload::Job, Hardware::B, seed);
            let all = (0..sim.catalog().len()).collect();
            let catalog_space = TuningSpace::with_default_base(sim.catalog(), all, Hardware::B);
            let pool = lhs_history(&mut sim, &catalog_space, POOL, seed ^ 0x9001, &mut layers);
            Input::KnobSelect { sim, pool, catalog_space, seed }
        }
        Kind::SweepLowdim => {
            let sims = [Workload::Job, Workload::Sysbench, Workload::Tpcc]
                .iter()
                .map(|&wl| {
                    let sim = DbSimulator::new(wl, Hardware::B, seed);
                    let space = TuningSpace::with_default_base(
                        sim.catalog(),
                        (0..LOW_KNOBS).collect(),
                        Hardware::B,
                    );
                    (sim, space)
                })
                .collect();
            Input::SweepLowdim { sims, seed }
        }
        Kind::Transfer => {
            let selected: Vec<usize> = (0..TRANSFER_KNOBS).collect();
            let sources = [
                Workload::Seats,
                Workload::Voter,
                Workload::Tatp,
                Workload::Smallbank,
                Workload::Sibench,
            ]
            .iter()
            .enumerate()
            .map(|(i, &wl)| {
                let mut sim = DbSimulator::new(wl, Hardware::B, cell_seed(seed, i));
                let space =
                    TuningSpace::with_default_base(sim.catalog(), selected.clone(), Hardware::B);
                lhs_history(
                    &mut sim,
                    &space,
                    SOURCE_SAMPLES,
                    cell_seed(seed ^ 0x5eed, i),
                    &mut layers,
                )
            })
            .collect();
            let sim = DbSimulator::new(Workload::Sysbench, Hardware::B, seed);
            let space = TuningSpace::with_default_base(sim.catalog(), selected, Hardware::B);
            Input::Transfer { sim, space, sources, seed }
        }
    };
    (Prepared(input), layers)
}

impl Prepared {
    /// Runs one unit of the workload's timed work; `workers` sizes the
    /// `sweep_lowdim` grid's pool (the other workloads are single-threaded).
    /// `between` is called after each session (not inside the grid), so
    /// the caller can do untimed work between them.
    pub fn run(&self, workers: usize, between: &mut dyn FnMut()) -> UnitOut {
        let mut out = UnitOut::default();
        let mut fp = Fingerprint::new();
        match &self.0 {
            Input::TuneHd { sim, space, seed } => {
                for (i, kind) in [OptimizerKind::VanillaBo, OptimizerKind::Smac].iter().enumerate()
                {
                    let s = cell_seed(*seed, i);
                    let opt = TimedOptimizer::new(
                        kind.build(space.space(), METRICS_DIM, s),
                        format!("optimizer.{}", kind.slug()),
                    );
                    session(&mut out, &mut fp, sim, space, opt, HD_ITERS, s, None, *seed);
                    between();
                }
            }
            Input::KnobSelect { sim, pool, catalog_space, seed } => {
                let n = catalog_space.dim();
                let input = ImportanceInput {
                    specs: catalog_space.space().specs(),
                    default: catalog_space.base(),
                    x: &pool.x,
                    y: &pool.y,
                    seed: *seed,
                };
                for (i, kind) in MeasureKind::ALL.iter().enumerate() {
                    let measure = TimedMeasure::new(kind.build());
                    let scores = measure.scores(&input);
                    out.layers.add(format!("importance.{}.busy_s", slug(*kind)), measure.busy_s());
                    out.attempted += 1;
                    fp.floats(&scores);
                    let ranking = top_k(&scores, n);
                    let mut sorted = ranking.clone();
                    sorted.sort_unstable();
                    if scores.len() != n
                        || scores.iter().any(|s| !s.is_finite())
                        || sorted != (0..n).collect::<Vec<_>>()
                    {
                        out.failures.push(format!(
                            "{}: ranking is not a permutation of the {n} knobs",
                            kind.label()
                        ));
                        continue;
                    }
                    let top = ranking[..TOP_K].to_vec();
                    out.topk_gains.push(optimum_gain(sim, &top, catalog_space.base()));
                    let space = TuningSpace::with_default_base(sim.catalog(), top, Hardware::B);
                    let s = cell_seed(*seed, i);
                    let opt = TimedOptimizer::new(
                        OptimizerKind::Smac.build(space.space(), METRICS_DIM, s),
                        "optimizer.smac",
                    );
                    session(&mut out, &mut fp, sim, &space, opt, SELECT_ITERS, s, None, *seed);
                    between();
                }
                fp.floats(&out.topk_gains);
            }
            Input::SweepLowdim { sims, seed } => {
                let cells: Vec<_> = sims
                    .iter()
                    .flat_map(|(sim, space)| OptimizerKind::PAPER.map(|kind| (sim, space, kind)))
                    .collect();
                let cache = EvalCache::shared();
                let t = Instant::now();
                let parts = run_grid(&cells, workers, |index, &(sim, space, kind)| {
                    let t = Instant::now();
                    let mut part = UnitOut::default();
                    let mut fp = Fingerprint::new();
                    let s = cell_seed(*seed, index);
                    let opt = TimedOptimizer::new(
                        kind.build(space.space(), METRICS_DIM, s),
                        format!("optimizer.{}", kind.slug()),
                    );
                    let cache = Some(cache.clone());
                    session(&mut part, &mut fp, sim, space, opt, SWEEP_ITERS, s, cache, *seed);
                    crate::host::note_thread();
                    (part, fp.finish(), t.elapsed().as_secs_f64())
                });
                let grid_s = t.elapsed().as_secs_f64();
                let mut cell_s = Vec::with_capacity(parts.len());
                for (mut part, part_fp, secs) in parts {
                    fp.word(part_fp);
                    out.attempted += part.attempted;
                    out.failures.append(&mut part.failures);
                    out.iter_ms.append(&mut part.iter_ms);
                    out.improvements.append(&mut part.improvements);
                    out.layers.merge(&part.layers);
                    cell_s.push(secs);
                }
                let stats = cache.stats();
                fp.word(stats.hits);
                fp.word(stats.misses);
                let lookups = (stats.hits + stats.misses).max(1) as f64;
                out.layers.add("exec.cache.hits", stats.hits as f64);
                out.layers.add("exec.cache.misses", stats.misses as f64);
                out.layers.add("exec.cache.hit_ratio", stats.hits as f64 / lookups);
                out.layers.add("exec.cell_s_p50", crate::stats::median(&cell_s));
                out.layers.add("exec.cell_s_max", cell_s.iter().copied().fold(0.0, f64::max));
                let busy: f64 = cell_s.iter().sum();
                out.layers.add("exec.idle_s", (workers as f64 * grid_s - busy).max(0.0));
            }
            Input::Transfer { sim, space, sources, seed } => {
                for (i, name) in ["rgpe_gp", "rgpe_rf", "map_bo", "map_smac"].iter().enumerate() {
                    let s = cell_seed(*seed, i);
                    let sp = space.space().clone();
                    let t = Instant::now();
                    let inner: Box<dyn Optimizer> = match i {
                        0 => Box::new(RgpeOptimizer::new(sp, SurrogateKind::MixedGp, sources, s)),
                        1 => Box::new(RgpeOptimizer::new(
                            sp,
                            SurrogateKind::RandomForest,
                            sources,
                            s,
                        )),
                        2 => Box::new(MappedOptimizer::new(
                            sp,
                            BaseKind::MixedBo,
                            sources.clone(),
                            s,
                        )),
                        _ => Box::new(MappedOptimizer::new(sp, BaseKind::Smac, sources.clone(), s)),
                    };
                    out.layers.add(format!("transfer.{name}.build_s"), t.elapsed().as_secs_f64());
                    let opt = TimedOptimizer::new(inner, format!("transfer.{name}"));
                    session(&mut out, &mut fp, sim, space, opt, TRANSFER_ITERS, s, None, *seed);
                    between();
                }
            }
        }
        out.fingerprint = fp.finish();
        out
    }

    /// Noise-free gains of the fixed knob sets the tuning workloads
    /// search — what tuning could reach at best (empty for
    /// `knob_select`, whose gains come from its rankings).
    pub fn space_gains(&self) -> Vec<f64> {
        match &self.0 {
            Input::TuneHd { sim, space, .. } | Input::Transfer { sim, space, .. } => {
                vec![optimum_gain(sim, space.selected(), space.base())]
            }
            Input::SweepLowdim { sims, .. } => {
                sims.iter().map(|(sim, sp)| optimum_gain(sim, sp.selected(), sp.base())).collect()
            }
            Input::KnobSelect { .. } => Vec::new(),
        }
    }
}

/// Metric-name form of an importance measure.
pub fn slug(kind: MeasureKind) -> &'static str {
    match kind {
        MeasureKind::Lasso => "lasso",
        MeasureKind::Gini => "gini",
        MeasureKind::Fanova => "fanova",
        MeasureKind::Ablation => "ablation",
        MeasureKind::Shap => "shap",
    }
}
