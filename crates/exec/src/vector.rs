//! The vectorized execution pipeline: operators exchange columnar [`DataChunk`] batches.
//!
//! This is the executor's primary path (see [`Executor::execute`]). Every operator is compiled
//! into a `Box<dyn Iterator<Item = Result<DataChunk, ExecError>>>` pulling batches of up to
//! [`DEFAULT_CHUNK_SIZE`] rows:
//!
//! * **scans** hand out the storage layer's cached columnar chunks (an `Arc` bump per chunk —
//!   no per-row work at all), with fused selections and projections applied column-wise;
//! * **selection** evaluates the predicate over a whole chunk into a filter mask and compacts
//!   the surviving rows in one pass per column;
//! * **projection** is a column gather: a bare column reference forwards the input column by
//!   refcount, computed expressions are evaluated by vectorized kernels;
//! * **hash joins** build on the flattened build-side key columns and probe chunk-wise,
//!   emitting gathered output batches (`take` on the probe columns, `take_opt` with NULL
//!   padding on the build columns for outer joins);
//! * **aggregation, sort and set operations** consume chunk streams and materialize only their
//!   own state (sort computes key columns once and sorts a row-index permutation with
//!   `sort_unstable_by` — bag semantics, no row clones).
//!
//! Scalar expressions are evaluated by [`CompiledExpr::eval_array`]: typed kernels over native
//! value slices for comparisons and arithmetic on Int/Float/Date/Text columns, selective
//! (mask-directed) evaluation for `AND`/`OR` so short-circuit error semantics match per-row
//! evaluation, and a per-row fallback for the long tail (`CASE`, functions, casts). Row budgets
//! and timeouts are enforced per batch; when a budget is smaller than the default chunk size,
//! batches shrink to the budget, so an operator fails as soon as it has produced one row more
//! than the budget allows.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use perm_algebra::{
    Array, ArrayBuilder, BinaryOperator, Bitmap, DataChunk, LogicalPlan, Schema, SortOrder, Tuple,
    UnaryOperator, Value, DEFAULT_CHUNK_SIZE,
};

use crate::compile::{in_set_lookup, in_values, CompiledAggregate, CompiledExpr};
use crate::error::ExecError;
use crate::eval::{binary_op_values, evaluate_function, logical_combine, unary_op_value};
use crate::executor::{
    set_operation, strip_transparent, Accumulator, ExecContext, Executor, ProfileHandle, RowGuard,
};
use crate::join::{JoinKernel, JoinTable, ProbeState};

/// The batch stream flowing between vectorized operators.
pub(crate) type ChunkIter<'a> = Box<dyn Iterator<Item = Result<DataChunk, ExecError>> + 'a>;

/// The batch size of this execution: the default chunk size, shrunk to the row budget (if any)
/// so that a budget overrun surfaces at the first row past the budget.
fn chunk_capacity(ctx: &ExecContext) -> usize {
    ctx.row_budget().map_or(DEFAULT_CHUNK_SIZE, |b| b.clamp(1, DEFAULT_CHUNK_SIZE))
}

/// Build a chunk from computed columns, preserving the row count even when there are no
/// columns (zero-width chunks keep flowing through the pipeline).
pub(crate) fn chunk_from_columns(columns: Vec<Arc<Array>>, rows: usize) -> DataChunk {
    if columns.is_empty() {
        DataChunk::zero_width(rows)
    } else {
        DataChunk::new(columns)
    }
}

/// One operator's stream with `EXPLAIN ANALYZE` instrumentation: times every pull (inclusive
/// of children, which are themselves wrapped) and counts rows/chunks per produced batch.
struct ProfiledIter<'a> {
    inner: ChunkIter<'a>,
    sink: ProfileHandle,
    idx: usize,
}

impl Iterator for ProfiledIter<'_> {
    type Item = Result<DataChunk, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        let started = Instant::now();
        let item = self.inner.next();
        self.sink.add_nanos(self.idx, started.elapsed().as_nanos() as u64);
        if let Some(Ok(chunk)) = &item {
            self.sink.add_output(self.idx, chunk.num_rows() as u64, 1);
        }
        item
    }
}

/// Drop empty batches from a stream (errors always pass through).
fn skip_empty(iter: ChunkIter<'_>) -> ChunkIter<'_> {
    Box::new(iter.filter(|r| match r {
        Ok(chunk) => !chunk.is_empty(),
        Err(_) => true,
    }))
}

impl Executor {
    /// Build the vectorized iterator pipeline for `plan`.
    ///
    /// When a profile sink is attached (`EXPLAIN ANALYZE`), each operator's stream is wrapped
    /// to record wall time per pull and rows/chunks per produced batch — one timestamp pair and
    /// two relaxed increments per *chunk*, nothing per row. Without a sink the only cost is the
    /// `Option` check below, once per operator at pipeline construction.
    pub(crate) fn stream_chunks<'a>(
        &'a self,
        plan: &'a LogicalPlan,
        ctx: &ExecContext,
    ) -> Result<ChunkIter<'a>, ExecError> {
        let Some((sink, idx)) = ctx.profile_op(plan) else {
            return self.stream_chunks_inner(plan, ctx);
        };
        // Construction time covers eager work (join build sides, sort buffers) done before the
        // first pull; per-pull time is added by the wrapper. Both are inclusive of children.
        let started = Instant::now();
        let inner = self.stream_chunks_inner(plan, ctx)?;
        sink.add_nanos(idx, started.elapsed().as_nanos() as u64);
        Ok(Box::new(ProfiledIter { inner, sink, idx }))
    }

    fn stream_chunks_inner<'a>(
        &'a self,
        plan: &'a LogicalPlan,
        ctx: &ExecContext,
    ) -> Result<ChunkIter<'a>, ExecError> {
        Ok(match plan {
            LogicalPlan::BaseRelation { name, schema, .. } => {
                Box::new(self.chunk_scan(name, schema, None, None, ctx)?)
            }
            LogicalPlan::Values { rows, .. } => {
                let arity = plan.output_arity();
                let mut guard = RowGuard::new(ctx);
                Box::new(rows.chunks(chunk_capacity(ctx)).map(move |batch| {
                    guard.tick_many(batch.len())?;
                    Ok(DataChunk::from_tuples(arity, batch))
                }))
            }
            LogicalPlan::Selection { input, predicate } => {
                let predicate = CompiledExpr::compile(predicate, self, ctx)?;
                // Fuse a selection directly over a base relation into the scan: the mask is
                // computed against the *stored* columns and only matches are compacted out.
                if let LogicalPlan::BaseRelation { name, schema, .. } = strip_transparent(input) {
                    return Ok(Box::new(self.chunk_scan(
                        name,
                        schema,
                        Some(predicate),
                        None,
                        ctx,
                    )?));
                }
                let child = self.stream_chunks(input, ctx)?;
                skip_empty(Box::new(child.map(move |r| {
                    let chunk = r?;
                    let mask = predicate.eval_mask(&chunk)?;
                    Ok(chunk.filter(&mask))
                })))
            }
            LogicalPlan::Projection { input, exprs, distinct } => {
                let exprs: Vec<CompiledExpr> = exprs
                    .iter()
                    .map(|(e, _)| CompiledExpr::compile(e, self, ctx))
                    .collect::<Result<_, _>>()?;
                // Fuse projection (and an optional selection) over a base relation: expressions
                // read the stored columns, so only the projected columns are ever built.
                let fused: Option<ChunkIter<'a>> = match strip_transparent(input) {
                    LogicalPlan::BaseRelation { name, schema, .. } => Some(Box::new(
                        self.chunk_scan(name, schema, None, Some(exprs.clone()), ctx)?,
                    )),
                    LogicalPlan::Selection { input: sel_input, predicate }
                        if matches!(
                            strip_transparent(sel_input),
                            LogicalPlan::BaseRelation { .. }
                        ) =>
                    {
                        let LogicalPlan::BaseRelation { name, schema, .. } =
                            strip_transparent(sel_input)
                        else {
                            unreachable!("matched above");
                        };
                        let predicate = CompiledExpr::compile(predicate, self, ctx)?;
                        Some(Box::new(self.chunk_scan(
                            name,
                            schema,
                            Some(predicate),
                            Some(exprs.clone()),
                            ctx,
                        )?))
                    }
                    _ => None,
                };
                let mapped: ChunkIter<'a> = match fused {
                    Some(iter) => iter,
                    None => {
                        let child = self.stream_chunks(input, ctx)?;
                        Box::new(child.map(move |r| {
                            let chunk = r?;
                            project_chunk(&exprs, &chunk)
                        }))
                    }
                };
                if *distinct {
                    skip_empty(Box::new(ChunkDistinctIter {
                        inner: mapped,
                        seen: std::collections::HashSet::new(),
                    }))
                } else {
                    mapped
                }
            }
            LogicalPlan::Join { left, right, .. } => {
                // The build side materializes (pipeline breaker) into a one-partition table
                // built on this thread; the probe side streams chunk by chunk.
                let build_chunks: Vec<DataChunk> =
                    self.stream_chunks(right, ctx)?.collect::<Result<_, _>>()?;
                let kernel = self.join_kernel(plan, build_chunks, ctx, |build, keys| {
                    JoinTable::build(build, keys, ctx)
                })?;
                Box::new(ChunkJoinIter {
                    left: self.stream_chunks(left, ctx)?,
                    kernel,
                    probe: None,
                    state: ProbeState::default(),
                    probing: true,
                    drain: 0,
                    capacity: chunk_capacity(ctx),
                    guard: RowGuard::new(ctx),
                    ctx: ctx.clone(),
                })
            }
            LogicalPlan::Aggregation { input, group_by, aggregates } => {
                let group_by: Vec<CompiledExpr> = group_by
                    .iter()
                    .map(|(e, _)| CompiledExpr::compile(e, self, ctx))
                    .collect::<Result<_, _>>()?;
                let aggregates: Vec<CompiledAggregate> = aggregates
                    .iter()
                    .map(|(a, _)| CompiledAggregate::compile(a, self, ctx))
                    .collect::<Result<_, _>>()?;
                let rows =
                    aggregate_chunks(self.stream_chunks(input, ctx)?, &group_by, &aggregates)?;
                let arity = plan.output_arity();
                Box::new(ChunkedRows::new(rows, arity, chunk_capacity(ctx)))
            }
            LogicalPlan::SetOp { left, right, kind, semantics } => {
                let left_rows = collect_tuples(self.stream_chunks(left, ctx)?, ctx)?;
                let right_rows = collect_tuples(self.stream_chunks(right, ctx)?, ctx)?;
                let out = set_operation(left_rows, right_rows, *kind, *semantics);
                let arity = plan.output_arity();
                let capacity = chunk_capacity(ctx);
                let mut guard = RowGuard::new(ctx);
                let mut pending = ChunkedRows::new(out, arity, capacity);
                Box::new(std::iter::from_fn(move || {
                    let chunk = pending.next()?;
                    let chunk = match chunk {
                        Ok(c) => c,
                        Err(e) => return Some(Err(e)),
                    };
                    if let Err(e) = guard.tick_many(chunk.num_rows()) {
                        return Some(Err(e));
                    }
                    Some(Ok(chunk))
                }))
            }
            LogicalPlan::Sort { input, keys } => {
                let compiled: Vec<(CompiledExpr, SortOrder)> = keys
                    .iter()
                    .map(|k| Ok((CompiledExpr::compile(&k.expr, self, ctx)?, k.order)))
                    .collect::<Result<_, ExecError>>()?;
                let chunks: Vec<DataChunk> =
                    self.stream_chunks(input, ctx)?.collect::<Result<_, _>>()?;
                crate::faults::fire("sort")?;
                let sort_bytes: usize = chunks.iter().map(DataChunk::byte_size).sum();
                ctx.record_buffered(plan, sort_bytes);
                ctx.reserve_memory(sort_bytes)?;
                let arity = plan.output_arity();
                let sorted = sort_chunks(arity, chunks, &compiled, chunk_capacity(ctx))?;
                Box::new(sorted.into_iter().map(Ok))
            }
            LogicalPlan::Limit { input, limit, offset } => {
                // Streaming limit: stop pulling batches once satisfied; the boundary batch is
                // sliced so exactly `limit` rows flow downstream.
                let mut child = self.stream_chunks(input, ctx)?;
                let mut to_skip = *offset;
                let mut remaining = limit.unwrap_or(usize::MAX);
                Box::new(std::iter::from_fn(move || loop {
                    if remaining == 0 {
                        return None;
                    }
                    let chunk = match child.next()? {
                        Ok(c) => c,
                        Err(e) => return Some(Err(e)),
                    };
                    let mut chunk = chunk;
                    if to_skip > 0 {
                        if to_skip >= chunk.num_rows() {
                            to_skip -= chunk.num_rows();
                            continue;
                        }
                        chunk = chunk.slice(to_skip, chunk.num_rows() - to_skip);
                        to_skip = 0;
                    }
                    if chunk.num_rows() > remaining {
                        chunk = chunk.slice(0, remaining);
                    }
                    remaining -= chunk.num_rows();
                    if chunk.is_empty() {
                        continue;
                    }
                    return Some(Ok(chunk));
                }))
            }
            LogicalPlan::SubqueryAlias { input, .. } => self.stream_chunks(input, ctx)?,
            LogicalPlan::ProvenanceAnnotation { input, .. } => self.stream_chunks(input, ctx)?,
        })
    }

    /// A (possibly filtered / projected) chunked scan over the cached columnar view of a base
    /// relation. Emitting an unfiltered chunk is an `Arc` bump per column; the row guard ticks
    /// per *scanned* row, so a fused selection or projection does not change budget counts.
    fn chunk_scan(
        &self,
        name: &str,
        schema: &Schema,
        predicate: Option<CompiledExpr>,
        exprs: Option<Vec<CompiledExpr>>,
        ctx: &ExecContext,
    ) -> Result<ChunkScanIter, ExecError> {
        let rel = self.snapshot().table(name)?;
        if rel.schema().arity() != schema.arity() {
            return Err(ExecError::Internal(format!(
                "stored table '{name}' has arity {} but the plan expects {}",
                rel.schema().arity(),
                schema.arity()
            )));
        }
        Ok(ChunkScanIter {
            chunks: rel.chunks(),
            pos: 0,
            offset: 0,
            capacity: chunk_capacity(ctx),
            predicate,
            exprs,
            guard: RowGuard::new(ctx),
        })
    }
}

/// Evaluate projection expressions over a chunk, producing the output chunk (bare column
/// references forward the input column by refcount).
pub(crate) fn project_chunk(
    exprs: &[CompiledExpr],
    chunk: &DataChunk,
) -> Result<DataChunk, ExecError> {
    let mut columns = Vec::with_capacity(exprs.len());
    for e in exprs {
        columns.push(e.eval_array(chunk)?);
    }
    Ok(chunk_from_columns(columns, chunk.num_rows()))
}

/// Collect a chunk stream into tuples (the compatibility edge used by set operations, whose
/// hash-multiset algebra is row-shaped). Reserves governed memory chunk-wise as the
/// materialization grows.
fn collect_tuples(iter: ChunkIter<'_>, ctx: &ExecContext) -> Result<Vec<Tuple>, ExecError> {
    let mut out = Vec::new();
    for chunk in iter {
        let chunk = chunk?;
        ctx.reserve_memory(chunk.byte_size())?;
        out.extend(chunk.iter_tuples());
    }
    Ok(out)
}

/// Re-chunk a materialized row vector into capacity-sized batches.
struct ChunkedRows {
    rows: Vec<Tuple>,
    arity: usize,
    capacity: usize,
    pos: usize,
}

impl ChunkedRows {
    fn new(rows: Vec<Tuple>, arity: usize, capacity: usize) -> ChunkedRows {
        ChunkedRows { rows, arity, capacity, pos: 0 }
    }
}

impl Iterator for ChunkedRows {
    type Item = Result<DataChunk, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.rows.len() {
            return None;
        }
        let end = (self.pos + self.capacity).min(self.rows.len());
        let chunk = DataChunk::from_tuples(self.arity, &self.rows[self.pos..end]);
        self.pos = end;
        Some(Ok(chunk))
    }
}

/// Chunked scan over the cached columnar view of a stored relation, with optional fused
/// selection (mask + compaction) and projection (vectorized expression evaluation).
struct ChunkScanIter {
    chunks: Arc<Vec<DataChunk>>,
    /// Next chunk index.
    pos: usize,
    /// Row offset within the current chunk (non-zero only when a row budget shrinks batches
    /// below the stored chunk size).
    offset: usize,
    capacity: usize,
    predicate: Option<CompiledExpr>,
    exprs: Option<Vec<CompiledExpr>>,
    guard: RowGuard,
}

impl Iterator for ChunkScanIter {
    type Item = Result<DataChunk, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let stored = self.chunks.get(self.pos)?;
            let piece = if self.offset == 0 && stored.num_rows() <= self.capacity {
                self.pos += 1;
                stored.clone()
            } else {
                let len = (stored.num_rows() - self.offset).min(self.capacity);
                let piece = stored.slice(self.offset, len);
                self.offset += len;
                if self.offset >= stored.num_rows() {
                    self.offset = 0;
                    self.pos += 1;
                }
                piece
            };
            if let Err(e) = self.guard.tick_many(piece.num_rows()) {
                return Some(Err(e));
            }
            let filtered = match &self.predicate {
                Some(predicate) => {
                    let mask = match predicate.eval_mask(&piece) {
                        Ok(mask) => mask,
                        Err(e) => return Some(Err(e)),
                    };
                    piece.filter(&mask)
                }
                None => piece,
            };
            if filtered.is_empty() {
                continue;
            }
            return Some(match &self.exprs {
                None => Ok(filtered),
                Some(exprs) => project_chunk(exprs, &filtered),
            });
        }
    }
}

/// Chunk-wise duplicate elimination (DISTINCT) preserving first-occurrence order.
struct ChunkDistinctIter<'a> {
    inner: ChunkIter<'a>,
    seen: std::collections::HashSet<Tuple>,
}

impl Iterator for ChunkDistinctIter<'_> {
    type Item = Result<DataChunk, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.inner.next()? {
            Err(e) => Some(Err(e)),
            Ok(chunk) => {
                let mask: Vec<bool> =
                    (0..chunk.num_rows()).map(|i| self.seen.insert(chunk.tuple_at(i))).collect();
                Some(Ok(chunk.filter(&mask)))
            }
        }
    }
}

/// Vectorized join: the probe side streams chunk-wise against the shared [`JoinKernel`]. Each
/// pull probes until a full output batch is buffered and gathers it; the kernel suspends
/// mid-probe-row when a batch fills, so downstream `LIMIT`s stop it after at most one extra
/// batch of work.
struct ChunkJoinIter<'a> {
    left: ChunkIter<'a>,
    kernel: JoinKernel,
    /// Current probe chunk and the kernel's position within it.
    probe: Option<DataChunk>,
    state: ProbeState,
    /// Whether probe chunks remain to be pulled.
    probing: bool,
    /// Next build row to inspect when draining unmatched build rows (right/full outer joins).
    drain: usize,
    capacity: usize,
    guard: RowGuard,
    ctx: ExecContext,
}

impl ChunkJoinIter<'_> {
    fn next_batch(&mut self) -> Result<Option<DataChunk>, ExecError> {
        while self.probing {
            let Some(probe) = &self.probe else {
                let Some(chunk) = self.left.next().transpose()? else {
                    self.probing = false;
                    break;
                };
                if !chunk.is_empty() {
                    crate::faults::fire("join-probe")?;
                    self.probe = Some(chunk);
                }
                continue;
            };
            let full = self.kernel.probe(probe, &mut self.state, self.capacity, &self.ctx)?;
            // An exhausted probe chunk flushes its partial batch (whose indices point into
            // this chunk) before the next one is pulled.
            let out = (!self.state.is_empty()).then(|| self.kernel.gather(probe, &mut self.state));
            if !full {
                self.probe = None;
            }
            if let Some(chunk) = out {
                self.guard.tick_many(chunk.num_rows())?;
                return Ok(Some(chunk));
            }
        }
        let drained = self.kernel.drain(&mut self.drain, self.capacity);
        if let Some(chunk) = &drained {
            self.guard.tick_many(chunk.num_rows())?;
        }
        Ok(drained)
    }
}

impl Iterator for ChunkJoinIter<'_> {
    type Item = Result<DataChunk, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_batch().transpose()
    }
}

/// Hash aggregation over a chunk stream: group keys and aggregate arguments are evaluated
/// vectorized per chunk, accumulators update per row, results come back as rows.
fn aggregate_chunks(
    input: ChunkIter<'_>,
    group_by: &[CompiledExpr],
    aggregates: &[CompiledAggregate],
) -> Result<Vec<Tuple>, ExecError> {
    // Group keys in first-seen order so results are deterministic.
    let mut order: Vec<Tuple> = Vec::new();
    let mut groups: HashMap<Tuple, Vec<Accumulator>> = HashMap::new();
    let mut saw_rows = false;

    for chunk in input {
        let chunk = chunk?;
        if chunk.is_empty() {
            continue;
        }
        saw_rows = true;
        let key_arrays: Vec<Arc<Array>> =
            group_by.iter().map(|e| e.eval_array(&chunk)).collect::<Result<_, _>>()?;
        let arg_arrays: Vec<Option<Arc<Array>>> = aggregates
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval_array(&chunk)).transpose())
            .collect::<Result<_, _>>()?;
        for i in 0..chunk.num_rows() {
            let key = Tuple::new(key_arrays.iter().map(|a| a.value(i)).collect());
            let accs = match groups.get_mut(&key) {
                Some(a) => a,
                None => {
                    order.push(key.clone());
                    groups.entry(key).or_insert_with(|| {
                        aggregates.iter().map(|a| Accumulator::new(&a.spec)).collect()
                    })
                }
            };
            for (arg, acc) in arg_arrays.iter().zip(accs.iter_mut()) {
                acc.update(arg.as_ref().map(|a| a.value(i)))?;
            }
        }
    }

    // A global aggregation (no GROUP BY) over an empty input still yields one row.
    if group_by.is_empty() && !saw_rows {
        let accs: Vec<Accumulator> = aggregates.iter().map(|a| Accumulator::new(&a.spec)).collect();
        let values: Vec<Value> = accs.into_iter().map(Accumulator::finish).collect();
        return Ok(vec![Tuple::new(values)]);
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        // `order` records exactly the keys inserted into `groups`.
        let Some(accs) = groups.remove(&key) else { continue };
        let mut values = key.into_values();
        values.extend(accs.into_iter().map(Accumulator::finish));
        out.push(Tuple::new(values));
    }
    Ok(out)
}

/// Order-preserving `(valid, bits)` encoding of a native single-column sort key, matching
/// [`Array::compare`]'s total order: NULLs first, then values, NaN last among floats. Lets the
/// hot single-key sort run on plain integer comparisons instead of the polymorphic comparator.
fn encoded_sort_keys(col: &Array) -> Option<Vec<(bool, u64)>> {
    const SIGN: u64 = 1 << 63;
    match col {
        Array::Int { values, validity } => Some(
            values.iter().enumerate().map(|(i, &v)| (validity.get(i), (v as u64) ^ SIGN)).collect(),
        ),
        Array::Date { values, validity } => Some(
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| (validity.get(i), (v as i64 as u64) ^ SIGN))
                .collect(),
        ),
        Array::Float { values, validity } => Some(
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let enc = if v.is_nan() {
                        u64::MAX
                    } else {
                        let bits = v.to_bits();
                        if bits & SIGN != 0 {
                            !bits
                        } else {
                            bits | SIGN
                        }
                    };
                    (validity.get(i), enc)
                })
                .collect(),
        ),
        _ => None,
    }
}

/// Columnar sort: flatten the input chunks, evaluate the key expressions once into key columns,
/// sort a row-index permutation with `sort_unstable_by` (bag semantics — tie order is
/// unspecified) and gather the output batches. No row is ever materialized.
fn sort_chunks(
    arity: usize,
    chunks: Vec<DataChunk>,
    keys: &[(CompiledExpr, SortOrder)],
    capacity: usize,
) -> Result<Vec<DataChunk>, ExecError> {
    let rows: usize = chunks.iter().map(DataChunk::num_rows).sum();
    if rows == 0 {
        return Ok(Vec::new());
    }
    let flat = DataChunk::concat(arity, &chunks);
    let key_cols: Vec<Arc<Array>> =
        keys.iter().map(|(e, _)| e.eval_array(&flat)).collect::<Result<_, _>>()?;
    let mut permutation: Vec<u32> = (0..rows as u32).collect();
    let encoded = match keys {
        [(_, order)] => encoded_sort_keys(&key_cols[0]).map(|enc| (*order, enc)),
        _ => None,
    };
    match encoded {
        // Single native key: sort on a precomputed order-preserving integer encoding instead
        // of the polymorphic comparator.
        Some((SortOrder::Ascending, enc)) => {
            permutation.sort_unstable_by_key(|&i| enc[i as usize]);
        }
        Some((SortOrder::Descending, enc)) => {
            permutation.sort_unstable_by_key(|&i| std::cmp::Reverse(enc[i as usize]));
        }
        None => permutation.sort_unstable_by(|&a, &b| {
            for (col, (_, order)) in key_cols.iter().zip(keys) {
                let ord = col.compare(a as usize, col, b as usize);
                let ord = match order {
                    SortOrder::Ascending => ord,
                    SortOrder::Descending => ord.reverse(),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        }),
    }
    // Emit each output batch as dictionary views over the flattened columns: re-chunking the
    // wide sorted payload costs a u32 index per cell instead of cloning every value.
    Ok(permutation
        .chunks(capacity)
        .map(|batch| {
            let columns = flat.columns().iter().map(|col| Arc::new(col.take_view(batch))).collect();
            chunk_from_columns(columns, batch.len())
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Vectorized scalar expression evaluation.
// ---------------------------------------------------------------------------

impl CompiledExpr {
    /// Evaluate the expression over a whole chunk, producing one output column.
    ///
    /// Bare column references forward the input column by refcount; comparisons and arithmetic
    /// on native columns run typed kernels; `AND`/`OR` evaluate their right side selectively
    /// (only on rows the left side leaves undecided) so error and short-circuit semantics match
    /// row-at-a-time evaluation; everything else falls back to a per-row loop.
    pub(crate) fn eval_array(&self, chunk: &DataChunk) -> Result<Arc<Array>, ExecError> {
        let rows = chunk.num_rows();
        match self {
            CompiledExpr::Column(index) => {
                if *index >= chunk.num_columns() {
                    return Err(ExecError::Internal(format!(
                        "column #{index} out of bounds for chunk of arity {}",
                        chunk.num_columns()
                    )));
                }
                Ok(chunk.column(*index).clone())
            }
            CompiledExpr::Literal(v) => Ok(Arc::new(Array::repeat(v, rows))),
            CompiledExpr::Binary { op, left, right } => {
                let l = left.eval_array(chunk)?;
                let r = right.eval_array(chunk)?;
                Ok(Arc::new(vectorized_binary(*op, &l, &r)?))
            }
            CompiledExpr::Logical { op, left, right } => selective_logical(*op, left, right, chunk),
            CompiledExpr::Unary { op, expr } => {
                let a = expr.eval_array(chunk)?;
                match op {
                    UnaryOperator::IsNull => Ok(Arc::new(null_test(&a, false))),
                    UnaryOperator::IsNotNull => Ok(Arc::new(null_test(&a, true))),
                    _ => {
                        let mut builder = ArrayBuilder::with_capacity(rows);
                        for i in 0..rows {
                            builder.push(unary_op_value(*op, a.value(i))?);
                        }
                        Ok(Arc::new(builder.finish()))
                    }
                }
            }
            CompiledExpr::Function { func, args } => {
                let arg_arrays: Vec<Arc<Array>> =
                    args.iter().map(|a| a.eval_array(chunk)).collect::<Result<_, _>>()?;
                let mut builder = ArrayBuilder::with_capacity(rows);
                let mut buf: Vec<Value> = vec![Value::Null; arg_arrays.len()];
                for i in 0..rows {
                    for (slot, arr) in buf.iter_mut().zip(&arg_arrays) {
                        *slot = arr.value(i);
                    }
                    builder.push(evaluate_function(*func, &buf)?);
                }
                Ok(Arc::new(builder.finish()))
            }
            CompiledExpr::Cast { expr, data_type } => {
                let a = expr.eval_array(chunk)?;
                let mut builder = ArrayBuilder::with_capacity(rows);
                for i in 0..rows {
                    builder.push(a.value(i).cast(*data_type)?);
                }
                Ok(Arc::new(builder.finish()))
            }
            CompiledExpr::InSet { expr, set, types, has_null, negated } => {
                let needles = expr.eval_array(chunk)?;
                let mut builder = ArrayBuilder::with_capacity(rows);
                for i in 0..rows {
                    builder.push(in_set_lookup(
                        &needles.value(i),
                        set,
                        *types,
                        *has_null,
                        *negated,
                    ));
                }
                Ok(Arc::new(builder.finish()))
            }
            CompiledExpr::InValues { expr, values, negated } => {
                let needles = expr.eval_array(chunk)?;
                let mut builder = ArrayBuilder::with_capacity(rows);
                for i in 0..rows {
                    builder.push(in_values(
                        &needles.value(i),
                        values.iter().map(|v| Ok(v.clone())),
                        *negated,
                    )?);
                }
                Ok(Arc::new(builder.finish()))
            }
            // CASE branches and non-constant IN lists are evaluated lazily per row in the
            // row-at-a-time evaluator, and must stay lazy (a taken branch must not observe
            // another branch's error). Fall back to row evaluation.
            CompiledExpr::Case { .. } | CompiledExpr::InList { .. } => {
                let mut builder = ArrayBuilder::with_capacity(rows);
                for i in 0..rows {
                    builder.push(self.eval(&chunk.tuple_at(i))?);
                }
                Ok(Arc::new(builder.finish()))
            }
        }
    }

    /// Evaluate as a chunk-wide predicate mask: `true` only for SQL TRUE.
    pub(crate) fn eval_mask(&self, chunk: &DataChunk) -> Result<Vec<bool>, ExecError> {
        let arr = self.eval_array(chunk)?;
        Ok(bool_view(&arr).into_iter().map(|b| b == Some(true)).collect())
    }
}

/// The three-valued boolean view of a column ([`Value::as_bool`] semantics per row).
fn bool_view(a: &Array) -> Vec<Option<bool>> {
    match a {
        Array::Bool { values, validity } => {
            values.iter().enumerate().map(|(i, v)| validity.get(i).then_some(*v)).collect()
        }
        Array::Int { values, validity } => {
            values.iter().enumerate().map(|(i, v)| validity.get(i).then_some(*v != 0)).collect()
        }
        Array::Any { values } => values.iter().map(|v| v.as_bool()).collect(),
        // Encoded views must be decoded, not treated as the untyped all-NULL fallback.
        encoded if encoded.is_encoded() => bool_view(&encoded.to_plain()),
        other => vec![None; other.len()],
    }
}

/// `IS [NOT] NULL` straight off the validity bitmap.
fn null_test(a: &Array, negated: bool) -> Array {
    let len = a.len();
    let values: Vec<bool> =
        (0..len).map(|i| if negated { !a.is_null(i) } else { a.is_null(i) }).collect();
    Array::Bool { values, validity: Bitmap::all_set(len) }
}

/// Selective `AND`/`OR`: evaluate the left side over the whole chunk, then evaluate the right
/// side only over the rows the left side leaves undecided (so a decisive left operand shields
/// the right side from evaluation — same error semantics as short-circuiting row evaluation).
fn selective_logical(
    op: BinaryOperator,
    left: &CompiledExpr,
    right: &CompiledExpr,
    chunk: &DataChunk,
) -> Result<Arc<Array>, ExecError> {
    let rows = chunk.num_rows();
    let l = left.eval_array(chunk)?;
    let lb = bool_view(&l);
    let decisive = |b: &Option<bool>| match op {
        BinaryOperator::And => *b == Some(false),
        BinaryOperator::Or => *b == Some(true),
        _ => unreachable!("only AND/OR are logical"),
    };
    let undecided: Vec<bool> = lb.iter().map(|b| !decisive(b)).collect();
    let n_undecided = undecided.iter().filter(|u| **u).count();
    let rb: Vec<Option<bool>> = if n_undecided == 0 {
        Vec::new()
    } else if n_undecided == rows {
        let r = right.eval_array(chunk)?;
        bool_view(&r)
    } else {
        let sub = chunk.filter(&undecided);
        let r = right.eval_array(&sub)?;
        bool_view(&r)
    };
    let mut values = Vec::with_capacity(rows);
    let mut validity = Bitmap::new();
    let mut r_pos = 0;
    for (i, l_bool) in lb.iter().enumerate() {
        let combined = if undecided[i] {
            let r_bool = rb[r_pos];
            r_pos += 1;
            logical_combine(op, *l_bool, r_bool)
        } else {
            // Decisive left operand: FALSE for AND, TRUE for OR.
            Value::Bool(op == BinaryOperator::Or)
        };
        match combined {
            Value::Bool(b) => {
                values.push(b);
                validity.push(true);
            }
            _ => {
                values.push(false);
                validity.push(false);
            }
        }
    }
    Ok(Arc::new(Array::Bool { values, validity }))
}

/// Map a comparison operator over an ordering.
fn cmp_to_bool(op: BinaryOperator, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinaryOperator::Eq => ord == Equal,
        BinaryOperator::NotEq => ord != Equal,
        BinaryOperator::Lt => ord == Less,
        BinaryOperator::LtEq => ord != Greater,
        BinaryOperator::Gt => ord == Greater,
        BinaryOperator::GtEq => ord != Less,
        _ => unreachable!("not a comparison operator"),
    }
}

fn is_cmp(op: BinaryOperator) -> bool {
    matches!(
        op,
        BinaryOperator::Eq
            | BinaryOperator::NotEq
            | BinaryOperator::Lt
            | BinaryOperator::LtEq
            | BinaryOperator::Gt
            | BinaryOperator::GtEq
    )
}

/// Comparison kernel over two native slices (result is NULL where either side is NULL or the
/// comparison is undefined, e.g. against NaN).
fn cmp_kernel<T, U>(
    op: BinaryOperator,
    a: &[T],
    va: &Bitmap,
    b: &[U],
    vb: &Bitmap,
    cmp: impl Fn(&T, &U) -> Option<std::cmp::Ordering>,
) -> Array {
    let len = a.len();
    let mut values = Vec::with_capacity(len);
    let mut validity = Bitmap::new();
    for i in 0..len {
        match (va.get(i) && vb.get(i)).then(|| cmp(&a[i], &b[i])).flatten() {
            Some(ord) => {
                values.push(cmp_to_bool(op, ord));
                validity.push(true);
            }
            None => {
                values.push(false);
                validity.push(false);
            }
        }
    }
    Array::Bool { values, validity }
}

/// Arithmetic kernel over two native slices (NULL where either side is NULL).
fn arith_kernel<T: Copy, U: Copy, O: Default>(
    a: &[T],
    va: &Bitmap,
    b: &[U],
    vb: &Bitmap,
    f: impl Fn(T, U) -> O,
    wrap: impl Fn(Vec<O>, Bitmap) -> Array,
) -> Array {
    let len = a.len();
    let mut values = Vec::with_capacity(len);
    let mut validity = Bitmap::new();
    for i in 0..len {
        if va.get(i) && vb.get(i) {
            values.push(f(a[i], b[i]));
            validity.push(true);
        } else {
            values.push(O::default());
            validity.push(false);
        }
    }
    wrap(values, validity)
}

/// Checked integer-arithmetic kernel: stops at the first overflowing row with the same
/// [`ExecError::ArithmeticOverflow`] per-row evaluation raises through checked [`Value`]
/// arithmetic.
fn checked_arith_kernel<T: Copy, U: Copy, O: Default>(
    a: &[T],
    va: &Bitmap,
    b: &[U],
    vb: &Bitmap,
    f: impl Fn(T, U) -> Option<O>,
    operation: &str,
    wrap: impl Fn(Vec<O>, Bitmap) -> Array,
) -> Result<Array, ExecError> {
    let len = a.len();
    let mut values = Vec::with_capacity(len);
    let mut validity = Bitmap::new();
    for i in 0..len {
        if va.get(i) && vb.get(i) {
            match f(a[i], b[i]) {
                Some(v) => {
                    values.push(v);
                    validity.push(true);
                }
                None => {
                    return Err(ExecError::ArithmeticOverflow { operation: operation.to_string() })
                }
            }
        } else {
            values.push(O::default());
            validity.push(false);
        }
    }
    Ok(wrap(values, validity))
}

/// Vectorized non-logical binary operator over two columns: typed kernels for the native
/// column pairs that dominate query workloads, a per-row fallback (through the exact
/// row-at-a-time semantics in [`binary_op_values`]) for everything else.
fn vectorized_binary(op: BinaryOperator, l: &Array, r: &Array) -> Result<Array, ExecError> {
    use BinaryOperator::*;
    debug_assert_eq!(l.len(), r.len());
    // Encoded operands are decoded up front so the typed kernels below apply; computing on a
    // factorized column pays the materialization the gather deferred, exactly once.
    if l.is_encoded() || r.is_encoded() {
        let (lp, rp) = (l.to_plain(), r.to_plain());
        return vectorized_binary(op, &lp, &rp);
    }
    // All-NULL operands: every row-wise result is NULL for the null-propagating operators.
    if !matches!(op, IsDistinctFrom | IsNotDistinctFrom)
        && (matches!(l, Array::Null { .. }) || matches!(r, Array::Null { .. }))
    {
        return Ok(Array::Null { len: l.len() });
    }
    match (l, r) {
        (Array::Int { values: a, validity: va }, Array::Int { values: b, validity: vb }) => {
            if is_cmp(op) {
                return Ok(cmp_kernel(op, a, va, b, vb, |x, y| Some(x.cmp(y))));
            }
            match op {
                Add => {
                    return checked_arith_kernel(
                        a,
                        va,
                        b,
                        vb,
                        i64::checked_add,
                        "addition",
                        int_array,
                    )
                }
                Sub => {
                    return checked_arith_kernel(
                        a,
                        va,
                        b,
                        vb,
                        i64::checked_sub,
                        "subtraction",
                        int_array,
                    )
                }
                Mul => {
                    return checked_arith_kernel(
                        a,
                        va,
                        b,
                        vb,
                        i64::checked_mul,
                        "multiplication",
                        int_array,
                    )
                }
                _ => {}
            }
        }
        (Array::Float { values: a, validity: va }, Array::Float { values: b, validity: vb }) => {
            if is_cmp(op) {
                return Ok(cmp_kernel(op, a, va, b, vb, |x, y| x.partial_cmp(y)));
            }
            match op {
                Add => return Ok(arith_kernel(a, va, b, vb, |x, y| x + y, float_array)),
                Sub => return Ok(arith_kernel(a, va, b, vb, |x, y| x - y, float_array)),
                Mul => return Ok(arith_kernel(a, va, b, vb, |x, y| x * y, float_array)),
                Div => return Ok(arith_kernel(a, va, b, vb, |x, y| x / y, float_array)),
                _ => {}
            }
        }
        (Array::Int { values: a, validity: va }, Array::Float { values: b, validity: vb }) => {
            if is_cmp(op) {
                return Ok(cmp_kernel(op, a, va, b, vb, |x, y| (*x as f64).partial_cmp(y)));
            }
            match op {
                Add => return Ok(arith_kernel(a, va, b, vb, |x, y| x as f64 + y, float_array)),
                Sub => return Ok(arith_kernel(a, va, b, vb, |x, y| x as f64 - y, float_array)),
                Mul => return Ok(arith_kernel(a, va, b, vb, |x, y| x as f64 * y, float_array)),
                Div => return Ok(arith_kernel(a, va, b, vb, |x, y| x as f64 / y, float_array)),
                _ => {}
            }
        }
        (Array::Float { values: a, validity: va }, Array::Int { values: b, validity: vb }) => {
            if is_cmp(op) {
                return Ok(cmp_kernel(op, a, va, b, vb, |x, y| x.partial_cmp(&(*y as f64))));
            }
            match op {
                Add => return Ok(arith_kernel(a, va, b, vb, |x, y| x + y as f64, float_array)),
                Sub => return Ok(arith_kernel(a, va, b, vb, |x, y| x - y as f64, float_array)),
                Mul => return Ok(arith_kernel(a, va, b, vb, |x, y| x * y as f64, float_array)),
                Div => return Ok(arith_kernel(a, va, b, vb, |x, y| x / y as f64, float_array)),
                _ => {}
            }
        }
        (Array::Date { values: a, validity: va }, Array::Date { values: b, validity: vb })
            if is_cmp(op) =>
        {
            return Ok(cmp_kernel(op, a, va, b, vb, |x, y| Some(x.cmp(y))));
        }
        (Array::Date { values: a, validity: va }, Array::Int { values: b, validity: vb }) => {
            if is_cmp(op) {
                return Ok(cmp_kernel(op, a, va, b, vb, |x, y| Some((*x as i64).cmp(y))));
            }
            if op == Add {
                return checked_arith_kernel(
                    a,
                    va,
                    b,
                    vb,
                    |x: i32, y: i64| i32::try_from(y).ok().and_then(|d| x.checked_add(d)),
                    "addition",
                    date_array,
                );
            }
            if op == Sub {
                return checked_arith_kernel(
                    a,
                    va,
                    b,
                    vb,
                    |x: i32, y: i64| {
                        y.checked_neg()
                            .and_then(|d| i32::try_from(d).ok())
                            .and_then(|d| x.checked_add(d))
                    },
                    "subtraction",
                    date_array,
                );
            }
        }
        (Array::Int { values: a, validity: va }, Array::Date { values: b, validity: vb })
            if is_cmp(op) =>
        {
            return Ok(cmp_kernel(op, a, va, b, vb, |x, y| Some(x.cmp(&(*y as i64)))));
        }
        (Array::Text { values: a, validity: va }, Array::Text { values: b, validity: vb })
            if is_cmp(op) =>
        {
            return Ok(cmp_kernel(op, a, va, b, vb, |x, y| Some(x.cmp(y))));
        }
        _ => {}
    }
    // Generic fallback: exact row-at-a-time semantics per row.
    let mut builder = ArrayBuilder::with_capacity(l.len());
    for i in 0..l.len() {
        builder.push(binary_op_values(op, &l.value(i), &r.value(i))?);
    }
    Ok(builder.finish())
}

fn int_array(values: Vec<i64>, validity: Bitmap) -> Array {
    Array::Int { values, validity }
}

fn float_array(values: Vec<f64>, validity: Bitmap) -> Array {
    Array::Float { values, validity }
}

fn date_array(values: Vec<i32>, validity: Bitmap) -> Array {
    Array::Date { values, validity }
}
