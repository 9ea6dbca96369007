//! `dbtune-lint` — the repo-specific determinism & hygiene static
//! analyzer (see `docs/static-analysis.md`).
//!
//! The workspace's central promise is that every experiment is
//! bit-deterministic: byte-identical results across 1/2/8 workers, with
//! tracing on or off, cache shared or local. Runtime tests can only check
//! the code paths they execute; this crate enforces the underlying
//! invariants *statically*, across all crates and binaries, before any
//! test runs:
//!
//! * **D1** — no iteration over unordered hash collections outside the
//!   telemetry crates;
//! * **D2** — no ambient wall-clock reads outside `dbtune-obs`/`dbtune-trace`;
//! * **D3** — no unseeded randomness anywhere;
//! * **F1** — no NaN-panicking `partial_cmp(..).unwrap()` chains, and no
//!   bare float-literal equality in optimizer/ml code;
//! * **E1** — no context-free `.unwrap()` / `.expect("")` in library code.
//!
//! On top of the line rules sits a workspace-level analysis: a symbol
//! layer ([`symbols`]) parses fn items and call sites out of the masked
//! token stream, [`graph`] resolves them into an intra-workspace call
//! graph, and [`passes`] runs three graph-level families over it —
//! **R** (determinism taint reachable from the results-producing
//! tuner/exec/dbsim paths), **C** (concurrency hygiene: relaxed-load
//! guards, inconsistent lock order), and **S** (telemetry schema
//! agreement between code and `docs/observability.md`).
//!
//! Violations are suppressible line-by-line with a `// lint:` pragma that
//! *must* carry a justification; every pragma is captured in the JSON
//! report, so the suppression inventory is itself reviewable.
//!
//! The analyzer is a line/token-level scanner with brace-aware scope
//! tracking (no rustc plugin, no syn) and depends only on `std`, so it
//! builds in seconds and can run as the first CI job.

pub mod graph;
pub mod passes;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod scanner;
pub mod symbols;
pub mod walk;

pub use report::{Finding, PragmaRecord, Report};
pub use rules::{classify, scan_source, FileClass, RULE_IDS};
pub use walk::{collect_files, scan_workspace};
