//! Materialised bag-semantic relations with a dual row/columnar representation.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use perm_algebra::{AlgebraError, DataChunk, Schema, Tuple, Value, DEFAULT_CHUNK_SIZE};

use crate::stats::TableStats;

/// A materialised relation: a schema plus a bag of rows.
///
/// Duplicates are kept (bag semantics); the multiplicity of a tuple is its number of physical
/// occurrences. This is exactly the representation the Perm provenance representation needs: a
/// result tuple is duplicated once per combination of contributing source tuples.
///
/// Rows are stored in one of two interchangeable representations — a `Vec<Tuple>` row view and
/// a columnar view of [`DataChunk`]s of up to [`DEFAULT_CHUNK_SIZE`] rows — and each view is
/// materialised lazily from the other on first access, then cached. The vectorized executor
/// scans [`Relation::chunks`] (base tables convert to columns once, not once per query) and
/// produces chunk-backed results, so a query's rows are never boxed into tuples unless a caller
/// actually asks for [`Relation::tuples`]. Mutation goes through the row view and invalidates
/// the columnar cache.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    /// Row view; lazily materialised from `chunks` when the relation was built columnar.
    tuples: OnceLock<Vec<Tuple>>,
    /// Columnar view; lazily built (and cached) from `tuples` on first chunked scan.
    chunks: OnceLock<Arc<Vec<DataChunk>>>,
    /// Per-column statistics; lazily collected from the columnar view on first request and
    /// dropped by an append that moves the row count past [`crate::STATS_REFRESH_PERCENT`]
    /// (see [`crate::stats`]).
    stats: OnceLock<Arc<TableStats>>,
    /// Total row count, tracked eagerly so neither view has to materialise to answer it.
    rows: usize,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.tuples() == other.tuples()
    }
}

impl Relation {
    fn from_tuple_vec(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        let rows = tuples.len();
        let lock = OnceLock::new();
        let _ = lock.set(tuples);
        Relation { schema, tuples: lock, chunks: OnceLock::new(), stats: OnceLock::new(), rows }
    }

    /// Create an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation::from_tuple_vec(schema, Vec::new())
    }

    /// Create a relation from a schema and tuples.
    ///
    /// Every tuple must have the same arity as the schema.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Relation, AlgebraError> {
        for t in &tuples {
            if t.arity() != schema.arity() {
                return Err(AlgebraError::Internal(format!(
                    "tuple arity {} does not match schema arity {}",
                    t.arity(),
                    schema.arity()
                )));
            }
        }
        Ok(Relation::from_tuple_vec(schema, tuples))
    }

    /// Create a relation without checking tuple arities (used by the executor on data it has
    /// produced itself).
    pub fn from_parts(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        Relation::from_tuple_vec(schema, tuples)
    }

    /// Create a relation directly from columnar chunks (what the vectorized executor returns).
    /// The row view is materialised only if a caller asks for tuples.
    pub fn from_chunks(schema: Schema, chunks: Vec<DataChunk>) -> Relation {
        let rows = chunks.iter().map(|c| c.num_rows()).sum();
        let lock = OnceLock::new();
        let _ = lock.set(Arc::new(chunks));
        Relation { schema, tuples: OnceLock::new(), chunks: lock, stats: OnceLock::new(), rows }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples, in insertion order (materialised from the columnar view on first access if
    /// the relation was produced by the vectorized executor).
    pub fn tuples(&self) -> &[Tuple] {
        self.tuples.get_or_init(|| {
            // A relation always holds at least one view; if the row view is absent the
            // columnar view must be present, so the empty fallback is unreachable.
            let mut out = Vec::with_capacity(self.rows);
            if let Some(chunks) = self.chunks.get() {
                for chunk in chunks.iter() {
                    out.extend(chunk.iter_tuples());
                }
            }
            out
        })
    }

    /// The columnar view: the rows sliced into [`DataChunk`]s of up to [`DEFAULT_CHUNK_SIZE`]
    /// rows. Built once from the row view on first access and cached (cheap `Arc` handout
    /// afterwards), so repeated scans of a stored table pay the conversion once.
    pub fn chunks(&self) -> Arc<Vec<DataChunk>> {
        self.chunks
            .get_or_init(|| {
                // Mirror image of `tuples()`: one of the two views is always present.
                let tuples = self.tuples.get().map(Vec::as_slice).unwrap_or(&[]);
                let arity = self.schema.arity();
                Arc::new(
                    tuples
                        .chunks(DEFAULT_CHUNK_SIZE)
                        .map(|rows| DataChunk::from_tuples(arity, rows))
                        .collect(),
                )
            })
            .clone()
    }

    /// Per-column statistics (row count, distinct values, NULL count, min/max), collected from
    /// the columnar view on first request and cached. Appends keep the cache while the row
    /// count stays within [`crate::STATS_REFRESH_PERCENT`] of the collected `row_count`, so
    /// the handle may describe a slightly smaller relation than the current one. The
    /// collection pass itself reuses [`Relation::chunks`], so a stored table pays the
    /// row→column conversion at most once across scans *and* statistics.
    pub fn stats(&self) -> Arc<TableStats> {
        self.stats
            .get_or_init(|| Arc::new(TableStats::compute(&self.chunks(), self.schema.arity())))
            .clone()
    }

    /// The cached statistics, if they have been collected and not dropped since; never
    /// triggers a collection.
    pub fn cached_stats(&self) -> Option<&Arc<TableStats>> {
        self.stats.get()
    }

    /// Consume the relation returning its tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples();
        self.tuples.into_inner().unwrap_or_default()
    }

    /// Number of tuples (counting duplicates).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Append rows to both views. The columnar cache is maintained *incrementally*: full
    /// chunks are reused by `Arc` bump and only the trailing partial chunk is rebuilt, so a
    /// workload interleaving small INSERT commits with queries pays O(chunk) per commit, not
    /// O(table).
    ///
    /// Cached statistics survive while they still describe the grown relation
    /// ([`TableStats::still_describe`]); otherwise they are dropped and recollected lazily.
    fn append_rows(&mut self, new: Vec<Tuple>) {
        if !self.stats.get().is_some_and(|s| s.still_describe(self.rows + new.len())) {
            self.stats = OnceLock::new();
        }
        if !new.is_empty() {
            if let Some(cached) = self.chunks.get() {
                let arity = self.schema.arity();
                let mut chunks: Vec<DataChunk> = (**cached).clone();
                let mut tail: Vec<Tuple> = Vec::new();
                if chunks.last().is_some_and(|c| c.num_rows() < DEFAULT_CHUNK_SIZE) {
                    if let Some(partial) = chunks.pop() {
                        tail = partial.iter_tuples().collect();
                    }
                }
                tail.extend(new.iter().cloned());
                for batch in tail.chunks(DEFAULT_CHUNK_SIZE) {
                    chunks.push(DataChunk::from_tuples(arity, batch));
                }
                let lock = OnceLock::new();
                let _ = lock.set(Arc::new(chunks));
                self.chunks = lock;
            }
        }
        self.tuples();
        self.rows += new.len();
        if let Some(tuples) = self.tuples.get_mut() {
            tuples.extend(new);
        }
    }

    /// Append a tuple.
    pub fn push(&mut self, tuple: Tuple) -> Result<(), AlgebraError> {
        if tuple.arity() != self.schema.arity() {
            return Err(AlgebraError::Internal(format!(
                "tuple arity {} does not match schema arity {}",
                tuple.arity(),
                self.schema.arity()
            )));
        }
        self.append_rows(vec![tuple]);
        Ok(())
    }

    /// Append many tuples.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Result<(), AlgebraError> {
        let tuples: Vec<Tuple> = tuples.into_iter().collect();
        if let Some(t) = tuples.iter().find(|t| t.arity() != self.schema.arity()) {
            return Err(AlgebraError::Internal(format!(
                "tuple arity {} does not match schema arity {}",
                t.arity(),
                self.schema.arity()
            )));
        }
        self.append_rows(tuples);
        Ok(())
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples().iter()
    }

    /// The multiplicity of each distinct tuple.
    pub fn multiplicities(&self) -> HashMap<&Tuple, usize> {
        let mut counts: HashMap<&Tuple, usize> = HashMap::new();
        for t in self.tuples() {
            *counts.entry(t).or_insert(0) += 1;
        }
        counts
    }

    /// Number of *distinct* tuples.
    pub fn num_distinct_rows(&self) -> usize {
        self.multiplicities().len()
    }

    /// Bag equality: same schema arity and same tuples with the same multiplicities, regardless
    /// of order. Used pervasively in tests.
    pub fn bag_eq(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() || self.num_rows() != other.num_rows() {
            return false;
        }
        self.multiplicities() == other.multiplicities()
    }

    /// Set equality: same distinct tuples, ignoring multiplicities and order.
    pub fn set_eq(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() {
            return false;
        }
        let a: std::collections::HashSet<&Tuple> = self.tuples().iter().collect();
        let b: std::collections::HashSet<&Tuple> = other.tuples().iter().collect();
        a == b
    }

    /// Return a copy sorted by the total value order (stable presentation for tests/examples).
    pub fn sorted(&self) -> Relation {
        let mut tuples = self.tuples().to_vec();
        tuples.sort();
        Relation::from_tuple_vec(self.schema.clone(), tuples)
    }

    /// Project the relation onto the attributes at `positions` (bag semantics).
    pub fn project(&self, positions: &[usize]) -> Relation {
        Relation::from_tuple_vec(
            self.schema.project(positions),
            self.tuples().iter().map(|t| t.project(positions)).collect(),
        )
    }

    /// Value of attribute `name` in row `row`.
    pub fn value_at(&self, row: usize, name: &str) -> Result<&Value, AlgebraError> {
        let col = self.schema.resolve(name)?;
        self.tuples()
            .get(row)
            .and_then(|t| t.get(col))
            .ok_or(AlgebraError::ColumnIndexOutOfBounds { index: row, width: self.num_rows() })
    }

    /// Render the relation as a simple ASCII table (used by examples and the benchmark harness).
    pub fn to_table_string(&self) -> String {
        let names = self.schema.attribute_names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .tuples()
            .iter()
            .map(|t| t.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep: String =
            widths.iter().map(|w| format!("+{}", "-".repeat(w + 2))).collect::<String>() + "+\n";
        out.push_str(&sep);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        out.push_str(&sep);
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::{tuple, DataType};

    fn schema() -> Schema {
        Schema::from_pairs(&[("name", DataType::Text), ("n", DataType::Int)])
    }

    #[test]
    fn new_rejects_arity_mismatch() {
        assert!(Relation::new(schema(), vec![tuple!["a"]]).is_err());
        assert!(Relation::new(schema(), vec![tuple!["a", 1]]).is_ok());
    }

    #[test]
    fn bag_semantics_keeps_duplicates() {
        let mut r = Relation::empty(schema());
        r.push(tuple!["a", 1]).unwrap();
        r.push(tuple!["a", 1]).unwrap();
        r.push(tuple!["b", 2]).unwrap();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.num_distinct_rows(), 2);
        assert_eq!(r.multiplicities()[&tuple!["a", 1]], 2);
    }

    #[test]
    fn bag_eq_is_order_insensitive_but_multiplicity_sensitive() {
        let a =
            Relation::new(schema(), vec![tuple!["a", 1], tuple!["b", 2], tuple!["a", 1]]).unwrap();
        let b =
            Relation::new(schema(), vec![tuple!["b", 2], tuple!["a", 1], tuple!["a", 1]]).unwrap();
        let c = Relation::new(schema(), vec![tuple!["a", 1], tuple!["b", 2]]).unwrap();
        assert!(a.bag_eq(&b));
        assert!(!a.bag_eq(&c));
        assert!(a.set_eq(&c));
    }

    #[test]
    fn project_keeps_duplicates() {
        let r = Relation::new(schema(), vec![tuple!["a", 1], tuple!["b", 1]]).unwrap();
        let p = r.project(&[1]);
        assert_eq!(p.num_rows(), 2);
        assert_eq!(p.schema().attribute_names(), vec!["n"]);
        assert_eq!(p.tuples()[0], tuple![1]);
    }

    #[test]
    fn value_at_resolves_by_name() {
        let r = Relation::new(schema(), vec![tuple!["a", 7]]).unwrap();
        assert_eq!(r.value_at(0, "n").unwrap(), &Value::Int(7));
        assert!(r.value_at(0, "missing").is_err());
        assert!(r.value_at(5, "n").is_err());
    }

    #[test]
    fn table_rendering_contains_headers_and_rows() {
        let r = Relation::new(schema(), vec![tuple!["Merdies", 3]]).unwrap();
        let s = r.to_table_string();
        assert!(s.contains("name"));
        assert!(s.contains("Merdies"));
    }

    #[test]
    fn sorted_orders_rows() {
        let r = Relation::new(schema(), vec![tuple!["b", 2], tuple!["a", 1]]).unwrap();
        let s = r.sorted();
        assert_eq!(s.tuples()[0], tuple!["a", 1]);
    }

    #[test]
    fn chunk_view_round_trips_and_is_cached() {
        use perm_algebra::DEFAULT_CHUNK_SIZE;
        let rows: Vec<_> =
            (0..(DEFAULT_CHUNK_SIZE as i64 + 1)).map(|i| tuple![format!("r{i}"), i]).collect();
        let r = Relation::new(schema(), rows.clone()).unwrap();
        let chunks = r.chunks();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].num_rows(), DEFAULT_CHUNK_SIZE);
        assert_eq!(chunks[1].num_rows(), 1);
        // Cached: the same Arc is handed out again.
        assert!(Arc::ptr_eq(&chunks, &r.chunks()));
        // Round trip through the columnar view.
        let back = Relation::from_chunks(r.schema().clone(), (*chunks).clone());
        assert_eq!(back.num_rows(), rows.len());
        assert_eq!(back.tuples(), rows.as_slice());
        assert!(back.bag_eq(&r));
    }

    #[test]
    fn mutation_maintains_the_chunk_cache_incrementally() {
        let mut r = Relation::new(schema(), vec![tuple!["a", 1]]).unwrap();
        assert_eq!(r.chunks()[0].num_rows(), 1);
        r.push(tuple!["b", 2]).unwrap();
        assert_eq!(r.num_rows(), 2);
        let chunks = r.chunks();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].num_rows(), 2);
        assert_eq!(chunks[0].tuple_at(1), tuple!["b", 2]);

        // Appending past a chunk boundary reuses full chunks by Arc bump and only rebuilds
        // the trailing partial chunk.
        use perm_algebra::DEFAULT_CHUNK_SIZE;
        let rows: Vec<_> =
            (0..(DEFAULT_CHUNK_SIZE as i64 + 1)).map(|i| tuple![format!("r{i}"), i]).collect();
        let mut big = Relation::new(schema(), rows).unwrap();
        let before = big.chunks();
        assert_eq!(before.len(), 2);
        big.push(tuple!["x", -1]).unwrap();
        let after = big.chunks();
        assert_eq!(after.len(), 2);
        assert!(
            Arc::ptr_eq(before[0].column(0), after[0].column(0)),
            "the full leading chunk must be shared, not rebuilt"
        );
        assert_eq!(after[1].num_rows(), 2);
        assert_eq!(after[1].tuple_at(1), tuple!["x", -1]);
        assert_eq!(big.tuples().len(), DEFAULT_CHUNK_SIZE + 2);
        assert_eq!(big.tuples().last().unwrap(), &tuple!["x", -1]);
    }

    #[test]
    fn chunk_backed_relation_supports_row_accessors() {
        let source = Relation::new(schema(), vec![tuple!["a", 1], tuple!["b", 2]]).unwrap();
        let chunked = Relation::from_chunks(source.schema().clone(), (*source.chunks()).clone());
        assert_eq!(chunked.num_rows(), 2);
        assert_eq!(chunked.value_at(1, "n").unwrap(), &Value::Int(2));
        assert_eq!(chunked.sorted().tuples()[0], tuple!["a", 1]);
        assert_eq!(chunked, source);
    }
}
