//! # perm-exec
//!
//! Expression evaluation, query execution and rule-based optimization for the Perm provenance
//! system — the "planner + executor" substrate that the paper obtains from PostgreSQL.
//!
//! The crate provides:
//!
//! * [`eval`] — scalar expression evaluation with SQL three-valued logic, `LIKE`, `CASE`,
//!   date/interval arithmetic and the scalar function library (the tree-walking interpreter;
//!   the executor runs compiled expressions instead, see [`executor`]).
//! * [`executor`] — a pull-based executor for [`perm_algebra::LogicalPlan`] with compiled
//!   expressions, hash joins, hash aggregation, outer joins, bag/set operations and a
//!   short-circuiting `LIMIT`, plus resource limits (row budget, timeout) used by the
//!   benchmark harness to reproduce the paper's query-timeout behaviour. It runs the
//!   **vectorized** columnar pipeline: operators exchange [`perm_algebra::DataChunk`] batches
//!   (see the private `vector` module), and uncorrelated sublinks run on it too.
//! * [`parallel`] — morsel-driven parallel execution over the same operators: a shared
//!   [`WorkerPool`] plus `Executor::execute_parallel`, with partitioned hash joins,
//!   partitioned parallel aggregation and parallel sort runs (see the module docs for the
//!   determinism guarantees). Both pipelines probe joins through one hash-join kernel (the
//!   private `join` module).
//! * [`reference`] — a naive, fully materializing evaluator kept as the executable
//!   specification; property tests assert both pipelines agree with it.
//! * [`optimizer`] — predicate pushdown, cross-product→join conversion, constant folding and
//!   projection pushdown (column pruning), so that both normal and provenance-rewritten queries
//!   execute with sensible join strategies and narrow intermediate tuples.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Non-test code must surface failures as structured errors, never panic on a recoverable
// condition (tests are exempt via clippy.toml); `cargo xtask lint` checks this header.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod compile;
pub mod error;
pub mod eval;
pub mod executor;
pub mod faults;
mod join;
pub mod log;
pub mod optimizer;
pub mod parallel;
pub mod profile;
pub mod reference;
pub mod reorder;
pub mod stats;
mod vector;

pub use error::ExecError;
pub use eval::{evaluate, evaluate_predicate, like_match};
pub use executor::{
    execute_plan, execute_plan_with_options, CancelToken, ChunkStream, ExecOptions, Executor,
    QueryMemory,
};
pub use log::{Level, QueryIdGuard};
pub use optimizer::{fold_expr, Optimizer, OptimizerReport};
pub use parallel::WorkerPool;
pub use profile::{ProfileSink, QueryProfile};
pub use reference::execute_reference;
pub use reorder::{ReorderPolicy, ReorderReport};
pub use stats::{
    render_plan_with_estimates, ColumnEstimate, Estimator, PlanEstimate, TableStatsView,
};
