//! Thin timing wrappers around the program's public layer interfaces.
//!
//! Each wrapper forwards every call unchanged and times it with the
//! benchmark's own clock, so per-layer numbers come from outside the
//! program: nothing here alters what the wrapped layer computes.

use dbtune_core::importance::{ImportanceInput, ImportanceMeasure};
use dbtune_core::optimizer::{Optimizer, SurrogateIntrospect};
use dbtune_core::space::TuningSpace;
use dbtune_core::tuner::{EvalResult, SimObjective};
use dbtune_dbsim::Objective;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer numbers accumulated by name (`<layer>.<what>`).
#[derive(Clone, Debug, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    /// Adds `v` to the named accumulator.
    pub fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.0.entry(name.into()).or_insert(0.0) += v;
    }

    /// Folds another record into this one.
    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.0 {
            self.add(k.clone(), *v);
        }
    }

    /// The named accumulator (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Times `suggest` and `observe` of any optimizer.
pub struct TimedOptimizer {
    inner: Box<dyn Optimizer>,
    /// Layer prefix the times are reported under (`optimizer.smac`).
    prefix: String,
    suggest_s: f64,
    observe_s: f64,
    calls: u64,
}

impl TimedOptimizer {
    /// Wraps `inner`, reporting under `prefix`.
    pub fn new(inner: Box<dyn Optimizer>, prefix: impl Into<String>) -> Self {
        Self { inner, prefix: prefix.into(), suggest_s: 0.0, observe_s: 0.0, calls: 0 }
    }

    /// Writes `<prefix>.suggest_s`, `.observe_s` and `.calls` into `layers`.
    pub fn report(&self, layers: &mut Layers) {
        layers.add(format!("{}.suggest_s", self.prefix), self.suggest_s);
        layers.add(format!("{}.observe_s", self.prefix), self.observe_s);
        layers.add(format!("{}.calls", self.prefix), self.calls as f64);
    }
}

impl SurrogateIntrospect for TimedOptimizer {
    fn last_prediction(&self) -> Option<(f64, f64)> {
        self.inner.last_prediction()
    }
}

impl Optimizer for TimedOptimizer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        let t = Instant::now();
        let cfg = self.inner.suggest(rng);
        self.suggest_s += t.elapsed().as_secs_f64();
        self.calls += 1;
        cfg
    }

    fn observe(&mut self, cfg: &[f64], score: f64, metrics: &[f64]) {
        let t = Instant::now();
        self.inner.observe(cfg, score, metrics);
        self.observe_s += t.elapsed().as_secs_f64();
    }

    fn wants_lhs_init(&self) -> bool {
        self.inner.wants_lhs_init()
    }
}

/// Times `evaluate` of a tuning objective and counts crashes. After
/// each evaluation it lets the host-speed gauge take a sample, outside
/// the optimizer's `suggest` + `observe` time.
pub struct TimedObjective<O: SimObjective> {
    inner: O,
    busy_s: f64,
    calls: u64,
    crashes: u64,
}

impl<O: SimObjective> TimedObjective<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        Self { inner, busy_s: 0.0, calls: 0, crashes: 0 }
    }

    /// Writes `dbsim.evaluate.calls`, `.busy_s` and `dbsim.crashes`.
    pub fn report(&self, layers: &mut Layers) {
        layers.add("dbsim.evaluate.calls", self.calls as f64);
        layers.add("dbsim.evaluate.busy_s", self.busy_s);
        layers.add("dbsim.crashes", self.crashes as f64);
    }
}

impl<O: SimObjective> SimObjective for TimedObjective<O> {
    fn evaluate(&mut self, full_cfg: &[f64]) -> EvalResult {
        let t = Instant::now();
        let res = self.inner.evaluate(full_cfg);
        self.busy_s += t.elapsed().as_secs_f64();
        self.calls += 1;
        self.crashes += u64::from(res.failed);
        crate::gauge::tick();
        res
    }

    fn objective(&self) -> Objective {
        self.inner.objective()
    }

    fn reference_value(&self, full_cfg: &[f64]) -> f64 {
        self.inner.reference_value(full_cfg)
    }

    fn eval_cursor(&self) -> u64 {
        self.inner.eval_cursor()
    }

    fn seek_eval_cursor(&mut self, cursor: u64) {
        self.inner.seek_eval_cursor(cursor)
    }

    fn optimum_value(&self, space: &TuningSpace) -> Option<f64> {
        self.inner.optimum_value(space)
    }

    fn last_failure_was_transient(&self) -> bool {
        self.inner.last_failure_was_transient()
    }
}

/// Times `scores` of an importance measurement. Like the objective
/// wrapper, it lets the host-speed gauge take a sample after each call.
pub struct TimedMeasure {
    inner: Box<dyn ImportanceMeasure>,
    busy_s: std::cell::Cell<f64>,
}

impl TimedMeasure {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ImportanceMeasure>) -> Self {
        Self { inner, busy_s: std::cell::Cell::new(0.0) }
    }

    /// Seconds spent in `scores` so far.
    pub fn busy_s(&self) -> f64 {
        self.busy_s.get()
    }
}

impl ImportanceMeasure for TimedMeasure {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn scores(&self, input: &ImportanceInput<'_>) -> Vec<f64> {
        let t = Instant::now();
        let s = self.inner.scores(input);
        self.busy_s.set(self.busy_s.get() + t.elapsed().as_secs_f64());
        crate::gauge::tick();
        s
    }
}
