//! The hash-join kernel shared by the vectorized and the morsel-parallel pipelines.
//!
//! Both pipelines materialize the build (right) input, flatten it into one [`DataChunk`] and
//! wrap it in a [`JoinKernel`]: the equi-join keys go into a [`JoinTable`], the rest of the
//! condition into a [`JoinFilter`]. Probing is chunk-wise through a [`ProbeState`], which
//! buffers matching (probe row, build row) index pairs and suspends mid-row whenever a batch
//! fills, so the caller decides when to gather an output chunk:
//!
//! * the vectorized pipeline builds a one-partition table on the calling thread and probes
//!   lazily, one output batch per pull, so downstream `LIMIT`s stop it early;
//! * the parallel pipeline builds a key-hash partitioned table on the worker pool and probes
//!   one morsel (probe chunk) per task, sharing the kernel read-only between workers.
//!
//! Bucket chains run in increasing build-row order, so every probe row sees its candidates in
//! exactly the nested-loop order and both pipelines emit the same row sequence.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use perm_algebra::{Array, DataChunk, JoinKind, LogicalPlan, ScalarExpr, Tuple, Value};

use crate::compile::CompiledExpr;
use crate::error::ExecError;
use crate::executor::{hash_joinable, split_equi_join_condition, EquiKey, ExecContext, Executor};
use crate::vector::chunk_from_columns;

/// Sentinel terminating a hash-join bucket chain.
const CHAIN_END: u32 = u32::MAX;

/// Build-side index marking a NULL-padded output row (an unmatched outer-join probe row).
const PAD: u32 = u32::MAX;

/// Candidate count at which a join filter switches from per-pair tuple evaluation to the
/// vectorized path: below this the per-call chunk assembly costs more than it saves.
const VECTORIZED_FILTER_THRESHOLD: usize = 8;

/// A compiled join condition (loop-mode full condition or hash-mode residual) plus the
/// combined-schema columns it actually reads, split by side.
///
/// Provenance rewrites push joins whose inputs carry dozens of duplicated payload columns;
/// deciding a match must not materialize those payloads. Both evaluation strategies below touch
/// only the columns the condition references: the vectorized path broadcasts the probe row's
/// used values and gathers the used build columns into a narrow chunk (everything else is a
/// NULL placeholder column that is never read), the per-pair path boxes used cells into a
/// sparse tuple.
struct JoinFilter {
    expr: CompiledExpr,
    /// Probe-side columns the condition reads.
    probe_cols: Vec<usize>,
    /// Build-side columns the condition reads, rebased onto the build chunk.
    build_cols: Vec<usize>,
    left_arity: usize,
    right_arity: usize,
}

impl JoinFilter {
    /// `source` is the uncompiled condition `expr` came from (used for column analysis); a
    /// sublink-bearing condition may read columns invisible to `columns_used`, so it
    /// conservatively reads everything.
    fn new(
        expr: CompiledExpr,
        source: &ScalarExpr,
        left_arity: usize,
        right_arity: usize,
    ) -> JoinFilter {
        let used: Vec<usize> = if source.has_sublink() {
            (0..left_arity + right_arity).collect()
        } else {
            source.columns_used()
        };
        let probe_cols: Vec<usize> = used.iter().copied().filter(|&c| c < left_arity).collect();
        let build_cols: Vec<usize> =
            used.iter().filter(|&&c| c >= left_arity).map(|&c| c - left_arity).collect();
        JoinFilter { expr, probe_cols, build_cols, left_arity, right_arity }
    }

    /// Evaluate the condition for probe row `row` against `candidates` build rows (`None` =
    /// the whole build side) in one vectorized pass; returns the matching build-row indices in
    /// candidate order. Error semantics match per-pair evaluation: kernels run in row order,
    /// so the first failing candidate raises.
    fn matches_vectorized(
        &self,
        probe: &DataChunk,
        row: usize,
        build: &DataChunk,
        candidates: Option<&[u32]>,
    ) -> Result<Vec<u32>, ExecError> {
        let rows = candidates.map_or(build.num_rows(), <[u32]>::len);
        if rows == 0 {
            return Ok(Vec::new());
        }
        let mut columns: Vec<Arc<Array>> = Vec::with_capacity(self.left_arity + self.right_arity);
        let mut probe_used = self.probe_cols.iter().peekable();
        for c in 0..self.left_arity {
            if probe_used.next_if(|&&u| u == c).is_some() {
                columns.push(Arc::new(Array::repeat(&probe.column(c).value(row), rows)));
            } else {
                columns.push(Arc::new(Array::Null { len: rows }));
            }
        }
        let mut build_used = self.build_cols.iter().peekable();
        for c in 0..self.right_arity {
            if build_used.next_if(|&&u| u == c).is_some() {
                match candidates {
                    Some(idx) => columns.push(Arc::new(gather_build(build.column(c), idx))),
                    None => columns.push(build.column(c).clone()),
                }
            } else {
                columns.push(Arc::new(Array::Null { len: rows }));
            }
        }
        let mask = self.expr.eval_mask(&chunk_from_columns(columns, rows))?;
        Ok(mask
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(i, _)| candidates.map_or(i as u32, |idx| idx[i]))
            .collect())
    }

    /// Evaluate one (probe row, build row) pair through a sparse tuple: only used cells are
    /// boxed, the rest stay NULL. Used for short hash chains where vectorization doesn't pay.
    fn matches_pair(
        &self,
        probe: &DataChunk,
        row: usize,
        build: &DataChunk,
        candidate: usize,
    ) -> Result<bool, ExecError> {
        let mut values = vec![Value::Null; self.left_arity + self.right_arity];
        for &c in &self.probe_cols {
            values[c] = probe.column(c).value(row);
        }
        for &c in &self.build_cols {
            values[self.left_arity + c] = build.column(c).value(candidate);
        }
        self.expr.eval_predicate(&Tuple::new(values))
    }
}

/// Build-side join gather. Provenance rewrites duplicate whole source tuples through joins, so
/// columns whose copies are expensive (text, boxed values) — or that are already dictionary
/// views from an upstream join — become [`Array::Dict`] views sharing the build column as the
/// dictionary: per output row only a 4-byte index is written. Cheap native columns gather
/// plainly; a view would only add a resolution hop to every downstream read.
fn gather_build(col: &Arc<Array>, indices: &[u32]) -> Array {
    match col.as_ref() {
        Array::Text { .. } | Array::Any { .. } | Array::Dict { .. } | Array::RunLength { .. } => {
            col.take_dict(indices)
        }
        _ => col.take(indices),
    }
}

/// The key of row `i` of `chunk` over the columns `column` picks from `keys`, or `None` when
/// a key value cannot match under its comparison (see [`hash_joinable`]).
fn row_key(
    chunk: &DataChunk,
    keys: &[EquiKey],
    column: impl Fn(&EquiKey) -> usize,
    i: usize,
) -> Option<Vec<Value>> {
    let mut values = Vec::with_capacity(keys.len());
    for k in keys {
        let v = chunk.column(column(k)).value(i);
        if !hash_joinable(&v, k.null_safe) {
            return None;
        }
        values.push(v);
    }
    Some(values)
}

/// Deterministic hash that routes a key to its partition (build and probe must agree across
/// threads and runs; `DefaultHasher::new()` is unkeyed and stable).
fn route_hash(values: &[Value]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for v in values {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

/// The routing hash of build row `i` (`keys[..].right` rebased onto the build side), or
/// `None` when the row cannot match.
pub(crate) fn build_row_hash(build: &DataChunk, keys: &[EquiKey], i: usize) -> Option<u64> {
    if let [key] = keys {
        let v = build.column(key.right).value(i);
        return hash_joinable(&v, key.null_safe).then(|| route_hash(std::slice::from_ref(&v)));
    }
    row_key(build, keys, |k| k.right, i).map(|values| route_hash(&values))
}

/// One key-hash partition of a [`JoinTable`]: key → first build row of its bucket chain.
pub(crate) enum PartitionMap {
    /// Single-column keys, hashed as bare values.
    Single(HashMap<Value, u32>),
    /// Composite keys.
    Multi(HashMap<Tuple, u32>),
}

impl PartitionMap {
    /// Insert the build rows `admit` accepts (about `expected` of them), visiting rows in
    /// reverse so every bucket chain runs in increasing build-row order; `link(i, prev)` records
    /// that row `i` chains on to `prev`. Rows whose key cannot match (NULL or NaN under `=`) are
    /// skipped.
    pub(crate) fn build(
        build: &DataChunk,
        keys: &[EquiKey],
        expected: usize,
        admit: impl Fn(usize) -> bool,
        mut link: impl FnMut(u32, u32),
        ctx: &ExecContext,
    ) -> Result<PartitionMap, ExecError> {
        let rows = (0..build.num_rows()).rev().filter(|&i| admit(i));
        let mut since_check = 0usize;
        let mut check = || {
            since_check += 1;
            if since_check & 0xFFF == 0 {
                ctx.check_deadline()
            } else {
                Ok(())
            }
        };
        if let [key] = keys {
            let col = build.column(key.right);
            let mut map = HashMap::with_capacity(expected);
            for i in rows {
                check()?;
                let v = col.value(i);
                if !hash_joinable(&v, key.null_safe) {
                    continue;
                }
                if let Some(prev) = map.insert(v, i as u32) {
                    link(i as u32, prev);
                }
            }
            Ok(PartitionMap::Single(map))
        } else {
            let mut map = HashMap::with_capacity(expected);
            for i in rows {
                check()?;
                let Some(values) = row_key(build, keys, |k| k.right, i) else { continue };
                if let Some(prev) = map.insert(Tuple::new(values), i as u32) {
                    link(i as u32, prev);
                }
            }
            Ok(PartitionMap::Multi(map))
        }
    }
}

/// A hash-join table over the flattened build side: one key map per key-hash partition, and
/// `next` chaining same-key build rows in increasing row order.
pub(crate) struct JoinTable {
    /// Equi-join keys, `right` rebased onto the build side.
    keys: Vec<EquiKey>,
    partitions: Vec<PartitionMap>,
    next: Vec<u32>,
}

impl JoinTable {
    /// A one-partition table built on the calling thread.
    pub(crate) fn build(
        build: &DataChunk,
        keys: Vec<EquiKey>,
        ctx: &ExecContext,
    ) -> Result<JoinTable, ExecError> {
        let rows = build.num_rows();
        let mut next = vec![CHAIN_END; rows];
        let link = |i: u32, prev: u32| next[i as usize] = prev;
        let map = PartitionMap::build(build, &keys, rows, |_| true, link, ctx)?;
        Ok(JoinTable { keys, partitions: vec![map], next })
    }

    /// Assemble a table over `rows` build rows from partitions built independently, each with
    /// the chain links of its own rows. Keys route to partition `route_hash % parts.len()`.
    pub(crate) fn from_partitions(
        keys: Vec<EquiKey>,
        rows: usize,
        parts: Vec<(PartitionMap, Vec<(u32, u32)>)>,
    ) -> JoinTable {
        let mut next = vec![CHAIN_END; rows];
        let mut partitions = Vec::with_capacity(parts.len());
        for (map, links) in parts {
            for (i, prev) in links {
                next[i as usize] = prev;
            }
            partitions.push(map);
        }
        JoinTable { keys, partitions, next }
    }

    /// The partition a key routes to.
    fn partition_of(&self, values: &[Value]) -> &PartitionMap {
        let parts = self.partitions.len();
        &self.partitions[if parts > 1 { route_hash(values) as usize % parts } else { 0 }]
    }

    /// The bucket-chain start for probe row `row`, or [`CHAIN_END`] when it cannot match.
    fn chain_start(&self, probe: &DataChunk, row: usize) -> u32 {
        let start = if let [key] = self.keys[..] {
            let v = probe.column(key.left).value(row);
            if !hash_joinable(&v, key.null_safe) {
                return CHAIN_END;
            }
            match self.partition_of(std::slice::from_ref(&v)) {
                PartitionMap::Single(map) => map.get(&v).copied(),
                PartitionMap::Multi(_) => None,
            }
        } else {
            let Some(values) = row_key(probe, &self.keys, |k| k.left, row) else {
                return CHAIN_END;
            };
            match self.partition_of(&values) {
                PartitionMap::Multi(map) => map.get(&Tuple::new(values)).copied(),
                PartitionMap::Single(_) => None,
            }
        };
        start.unwrap_or(CHAIN_END)
    }
}

/// Position within one probe row's build-side candidates.
enum Cursor {
    /// Hash mode: next build-row index in the bucket chain ([`CHAIN_END`] = exhausted).
    Chain(u32),
    /// Nested-loop mode: next build-row index.
    Index(usize),
    /// Build rows that already passed the vectorized join filter.
    Matches(std::vec::IntoIter<u32>),
}

/// One prober's progress through its current probe chunk, plus the output pairs it has
/// buffered but not yet gathered.
#[derive(Default)]
pub(crate) struct ProbeState {
    /// Current probe row.
    row: usize,
    /// Candidates of `row`; `None` until the row is started.
    cursor: Option<Cursor>,
    row_matched: bool,
    /// Buffered output pairs: probe rows and build rows ([`PAD`] = NULL padding).
    left_idx: Vec<u32>,
    right_idx: Vec<u32>,
    /// Number of [`PAD`] entries in `right_idx`.
    pads: usize,
    /// Candidate evaluations since the prober started. A selective join can do unbounded work
    /// without producing rows, so the timeout is checked against work done.
    evals: usize,
    /// Scratch buffer for collecting a bucket chain.
    chain: Vec<u32>,
}

impl ProbeState {
    /// Whether no output pairs are buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.left_idx.is_empty()
    }
}

/// A join ready to probe: the flattened build side, its hash table (`None` = nested loop), the
/// residual or full condition, and matched-row flags for right/full outer joins.
pub(crate) struct JoinKernel {
    build: DataChunk,
    table: Option<JoinTable>,
    filter: Option<JoinFilter>,
    kind: JoinKind,
    left_arity: usize,
    /// Set for right/full outer joins, whose unmatched build rows are drained at the end.
    matched: Option<Vec<AtomicBool>>,
}

impl Executor {
    /// Prepare the `Join` node `plan` over its materialized build side: charge and flatten the
    /// build chunks, split the condition into hash keys and a compiled residual filter, and let
    /// `build_table` build the hash table over the keys (`right` rebased onto the build side).
    pub(crate) fn join_kernel(
        &self,
        plan: &LogicalPlan,
        build_chunks: Vec<DataChunk>,
        ctx: &ExecContext,
        build_table: impl FnOnce(&DataChunk, Vec<EquiKey>) -> Result<JoinTable, ExecError>,
    ) -> Result<JoinKernel, ExecError> {
        let LogicalPlan::Join { left, right, kind, condition } = plan else {
            return Err(ExecError::Internal("join kernel built for a non-join node".into()));
        };
        crate::faults::fire("join-build")?;
        let build_bytes: usize = build_chunks.iter().map(DataChunk::byte_size).sum();
        ctx.record_buffered(plan, build_bytes);
        ctx.reserve_memory(build_bytes)?;
        let left_arity = left.output_arity();
        let right_arity = right.output_arity();
        let build = DataChunk::concat(right_arity, &build_chunks);
        let (keys, residual) = match condition {
            Some(c) => split_equi_join_condition(c, left_arity),
            None => (Vec::new(), Vec::new()),
        };
        // Nested loops evaluate the whole condition; hash joins only what the keys leave over.
        let residual_expr;
        let filter_source = if keys.is_empty() {
            condition.as_ref()
        } else if residual.is_empty() {
            None
        } else {
            residual_expr = ScalarExpr::conjunction(residual.into_iter().cloned().collect());
            Some(&residual_expr)
        };
        let filter = match filter_source {
            Some(source) => Some(JoinFilter::new(
                CompiledExpr::compile(source, self, ctx)?,
                source,
                left_arity,
                right_arity,
            )),
            None => None,
        };
        let table = if keys.is_empty() {
            None
        } else {
            let keys = keys.iter().map(|k| EquiKey { right: k.right - left_arity, ..*k }).collect();
            Some(build_table(&build, keys)?)
        };
        let matched = matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter)
            .then(|| (0..build.num_rows()).map(|_| AtomicBool::new(false)).collect());
        Ok(JoinKernel { build, table, filter, kind: *kind, left_arity, matched })
    }
}

impl JoinKernel {
    /// Probe `probe` from `state`'s position, buffering output pairs. Returns `true` as soon as
    /// `capacity` pairs are buffered (the caller gathers them and calls again; a suspended row
    /// resumes where it stopped) and `false` once the chunk is exhausted, leaving `state` ready
    /// for the next chunk once its remaining pairs are gathered.
    pub(crate) fn probe(
        &self,
        probe: &DataChunk,
        state: &mut ProbeState,
        capacity: usize,
        ctx: &ExecContext,
    ) -> Result<bool, ExecError> {
        while state.row < probe.num_rows() {
            let row = state.row;
            let mut cursor = match state.cursor.take() {
                Some(cursor) => cursor,
                None => {
                    state.row_matched = false;
                    self.start_row(probe, row, &mut state.chain, ctx)?
                }
            };
            let prefiltered = matches!(cursor, Cursor::Matches(_));
            while let Some(candidate) = self.advance(&mut cursor) {
                state.evals += 1;
                if state.evals & 0x3FF == 0 {
                    ctx.check_deadline()?;
                }
                let keep = match &self.filter {
                    Some(f) if !prefiltered => {
                        f.matches_pair(probe, row, &self.build, candidate)?
                    }
                    _ => true,
                };
                if keep {
                    state.row_matched = true;
                    if let Some(flags) = &self.matched {
                        flags[candidate].store(true, Ordering::Relaxed);
                    }
                    state.left_idx.push(row as u32);
                    state.right_idx.push(candidate as u32);
                    if state.left_idx.len() >= capacity {
                        // Batch full: resume this row's candidates on the next call.
                        state.cursor = Some(cursor);
                        return Ok(true);
                    }
                }
            }
            if !state.row_matched && matches!(self.kind, JoinKind::LeftOuter | JoinKind::FullOuter)
            {
                state.left_idx.push(row as u32);
                state.right_idx.push(PAD);
                state.pads += 1;
            }
            state.row += 1;
            if state.left_idx.len() >= capacity {
                return Ok(true);
            }
        }
        state.row = 0;
        Ok(false)
    }

    /// Position a cursor at probe row `row`'s candidates. Nested loops with a filter and long
    /// filtered hash chains evaluate the condition vectorized up front (the cursor then walks
    /// the precomputed matches); short chains keep the lazy per-candidate cursor.
    fn start_row(
        &self,
        probe: &DataChunk,
        row: usize,
        chain: &mut Vec<u32>,
        ctx: &ExecContext,
    ) -> Result<Cursor, ExecError> {
        let table = match (&self.table, &self.filter) {
            (None, None) => return Ok(Cursor::Index(0)),
            (Some(table), None) => return Ok(Cursor::Chain(table.chain_start(probe, row))),
            (None, Some(f)) => {
                ctx.check_deadline()?;
                let matches = f.matches_vectorized(probe, row, &self.build, None)?;
                return Ok(Cursor::Matches(matches.into_iter()));
            }
            (Some(table), Some(_)) => table,
        };
        let start = table.chain_start(probe, row);
        chain.clear();
        let mut pos = start;
        while pos != CHAIN_END {
            chain.push(pos);
            pos = table.next[pos as usize];
        }
        match &self.filter {
            Some(f) if chain.len() >= VECTORIZED_FILTER_THRESHOLD => {
                ctx.check_deadline()?;
                let matches = f.matches_vectorized(probe, row, &self.build, Some(chain))?;
                Ok(Cursor::Matches(matches.into_iter()))
            }
            _ => Ok(Cursor::Chain(start)),
        }
    }

    /// The next candidate build row of a cursor.
    fn advance(&self, cursor: &mut Cursor) -> Option<usize> {
        match cursor {
            Cursor::Chain(pos) => {
                if *pos == CHAIN_END {
                    return None;
                }
                let i = *pos as usize;
                *pos = self.table.as_ref().map_or(CHAIN_END, |t| t.next[i]);
                Some(i)
            }
            Cursor::Index(pos) => {
                let i = *pos;
                (i < self.build.num_rows()).then(|| {
                    *pos += 1;
                    i
                })
            }
            Cursor::Matches(matches) => matches.next().map(|i| i as usize),
        }
    }

    /// Gather `state`'s buffered pairs (indices into `probe`) into an output chunk.
    pub(crate) fn gather(&self, probe: &DataChunk, state: &mut ProbeState) -> DataChunk {
        let rows = state.left_idx.len();
        let right_arity = self.build.num_columns();
        let mut columns = Vec::with_capacity(self.left_arity + right_arity);
        for c in 0..self.left_arity {
            columns.push(Arc::new(probe.column(c).take(&state.left_idx)));
        }
        if state.pads == 0 {
            // Pure-match batch (every inner join): gather the build columns, factorizing the
            // wide ones into dictionary views instead of materializing duplicates.
            for c in 0..right_arity {
                columns.push(Arc::new(gather_build(self.build.column(c), &state.right_idx)));
            }
        } else {
            let opt: Vec<Option<u32>> =
                state.right_idx.iter().map(|&i| (i != PAD).then_some(i)).collect();
            for c in 0..right_arity {
                columns.push(Arc::new(self.build.column(c).take_opt(&opt)));
            }
        }
        state.left_idx.clear();
        state.right_idx.clear();
        state.pads = 0;
        chunk_from_columns(columns, rows)
    }

    /// The next batch of up to `capacity` NULL-padded unmatched build rows of a right/full
    /// outer join, in build order, scanning from `*pos`; `None` once none are left (always for
    /// other join kinds). Call only after every probe chunk has been probed.
    pub(crate) fn drain(&self, pos: &mut usize, capacity: usize) -> Option<DataChunk> {
        let matched = self.matched.as_ref()?;
        let mut indices = Vec::new();
        while *pos < matched.len() && indices.len() < capacity {
            if !matched[*pos].load(Ordering::Relaxed) {
                indices.push(*pos as u32);
            }
            *pos += 1;
        }
        if indices.is_empty() {
            return None;
        }
        let mut columns = Vec::with_capacity(self.left_arity + self.build.num_columns());
        for _ in 0..self.left_arity {
            columns.push(Arc::new(Array::Null { len: indices.len() }));
        }
        for c in 0..self.build.num_columns() {
            columns.push(Arc::new(self.build.column(c).take(&indices)));
        }
        Some(chunk_from_columns(columns, indices.len()))
    }
}
