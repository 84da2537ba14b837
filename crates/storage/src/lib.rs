//! # perm-storage
//!
//! In-memory, bag-semantic relation storage and a catalog for the Perm provenance system.
//!
//! The paper's prototype extends PostgreSQL; this crate is the storage substrate of our
//! from-scratch reproduction. It provides:
//!
//! * [`Relation`] — a materialised bag of tuples with a schema. Multiplicity is represented by
//!   physical duplication, matching the representation produced by Perm's rewritten queries.
//! * [`Catalog`] — a thread-safe registry of base tables and views. Views are stored as SQL text
//!   and unfolded by the analyzer in `perm-sql`, mirroring the PostgreSQL rewriter stage of the
//!   paper's Figure 5 architecture.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Non-test code must surface failures as structured errors, never panic on a recoverable
// condition (tests are exempt via clippy.toml); `cargo xtask lint` checks this header.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod catalog;
pub mod relation;
pub mod stats;

pub use catalog::{Catalog, CatalogError, CatalogSnapshot, TableEntry, TableInfo, ViewDef};
pub use relation::Relation;
pub use stats::{ColumnStats, TableStats, STATS_REFRESH_PERCENT};
