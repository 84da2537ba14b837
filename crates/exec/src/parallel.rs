//! Morsel-driven parallel execution over the vectorized [`DataChunk`] pipeline.
//!
//! [`Executor::execute_parallel`] evaluates a plan with intra-query parallelism on a shared
//! [`WorkerPool`]: the chunk lists flowing between operators are split into *morsels* (one
//! stored chunk each, up to [`DEFAULT_CHUNK_SIZE`] rows) that idle workers pull from a shared
//! claim counter — the scheduling model of Leis et al.'s morsel-driven HyPer executor, applied
//! to the provenance workload of this reproduction (rewrite rules R5–R9 produce wide,
//! join-heavy plans that do a multiple of the original query's work, so single-core execution
//! leaves most of the machine idle exactly on the queries that need it most).
//!
//! Per operator:
//!
//! * **scan → filter → project** pipelines run embarrassingly parallel: every worker masks,
//!   compacts and projects its own morsels; results are stitched back together in morsel order,
//!   so the output chunk sequence equals the single-threaded one.
//! * **hash join** builds *partitioned*: build-side key hashes are computed morsel-parallel,
//!   then every worker builds the hash table of one key-hash partition; the probe phase runs
//!   morsel-parallel over the probe side, routing each probe key to its partition. Bucket
//!   chains preserve build-row order, so each probe row sees candidates in exactly the
//!   nested-loop order. Table, probe loop and output gather are the vectorized pipeline's own
//!   join kernel (the private `join` module); with one worker the table is built directly on
//!   the calling thread.
//! * **hash aggregation** also partitions by key hash: group-key and argument columns are
//!   evaluated morsel-parallel, then every worker owns the groups of one partition and folds
//!   *all* morsels' rows of that partition **in global row order** — each group's accumulator
//!   sees its values in exactly the sequential order, so float sums are bit-identical and
//!   integer-overflow errors fire at the identical row. Group output is restored to global
//!   first-seen order.
//! * **sort** extracts key columns and sorts a run per morsel in parallel, then merges the
//!   sorted runs (ties broken by global row index, so the permutation is deterministic).
//! * **LIMIT** stays globally correct through a shared atomic row counter: workers claim
//!   morsels in index order and stop claiming once the completed prefix covers the limit, and
//!   the coordinator re-applies the exact lazy-pipeline visibility rule (an error in a morsel
//!   is observed iff the morsels before it did not already satisfy the limit).
//! * **row budgets** are enforced by falling back to the single-threaded vectorized pipeline:
//!   the budget contract ("no operator may produce more than N rows, counted as the lazy
//!   pipeline schedules work") is defined in terms of sequential pull order, which parallel
//!   execution does not preserve. Timeouts stay active everywhere — every worker checks the
//!   shared deadline per morsel and per 1024 join candidates.
//!
//! Error behaviour is deterministic: a failing region reports the error of the *lowest* morsel
//! index (the one sequential execution would have hit first), and partitioned aggregation
//! reports the error of the globally first failing row. The one intentional divergence from
//! the lazy vectorized pipeline: parallel execution may evaluate input a `LIMIT` would have
//! cut off below a pipeline breaker, so a runtime error hiding in that never-consumed
//! remainder can surface here while the lazy pipeline returns early — the differential suite
//! therefore compares error behaviour on plans without that shape.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use perm_algebra::{Array, DataChunk, LogicalPlan, SortOrder, Tuple, Value, DEFAULT_CHUNK_SIZE};
use perm_storage::Relation;

use crate::compile::{CompiledAggregate, CompiledExpr};
use crate::error::ExecError;
use crate::executor::{
    set_operation, strip_transparent, Accumulator, EquiKey, ExecContext, Executor,
};
use crate::join::{build_row_hash, JoinTable, PartitionMap, ProbeState};
use crate::vector::project_chunk;

// ---------------------------------------------------------------------------
// Worker pool.
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    jobs: std::collections::VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// A fixed-size pool of worker threads shared by every query of an engine.
///
/// A pool of parallelism degree `n` owns `n - 1` background threads; the session thread that
/// dispatches a parallel region participates as the n-th worker, so `WorkerPool::new(1)` runs
/// everything on the calling thread (no cross-thread handoff at all) and degree-n execution
/// uses exactly n cores. Multiple sessions may dispatch regions concurrently; morsels from all
/// regions interleave on the same threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

impl WorkerPool {
    /// Create a pool of parallelism degree `workers` (clamped to at least 1); `workers - 1`
    /// background threads are spawned eagerly.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: std::collections::VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles: Vec<_> = (0..workers - 1)
            .filter_map(|i| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("perm-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        // If the OS refused some threads, degrade the advertised parallelism to what actually
        // spawned (the dispatching session thread always counts as one).
        let workers = handles.len() + 1;
        WorkerPool { shared, handles, workers }
    }

    /// The parallelism degree (background threads + the dispatching session thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The default parallelism degree: the number of logical CPUs.
    pub fn default_workers() -> usize {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    fn submit(&self, job: Job) {
        let mut state = self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.jobs.push_back(job);
        drop(state);
        self.shared.work_ready.notify_one();
    }

    /// Run `task` over morsel indices `0..total`, fanning out across the pool while the calling
    /// thread claims morsels too. Each task returns its result plus its *output row count*
    /// (used for the shared LIMIT counter). Returns one slot per morsel; unclaimed morsels
    /// (cut off by `stop_rows` or an earlier error) stay `None` and are always a suffix.
    fn run_region<T, F>(
        &self,
        total: usize,
        stop_rows: Option<usize>,
        task: F,
    ) -> Vec<Option<Result<T, ExecError>>>
    where
        T: Send + 'static,
        F: Fn(usize) -> Result<(T, usize), ExecError> + Send + Sync + 'static,
    {
        if total == 0 {
            return Vec::new();
        }
        // Degree-1 (or single-morsel) regions run inline with no shared state: same morsel
        // order, same stop/error semantics, none of the synchronization.
        if self.workers == 1 || total == 1 {
            let stop = stop_rows.unwrap_or(usize::MAX);
            let mut slots: Vec<Option<Result<T, ExecError>>> = (0..total).map(|_| None).collect();
            let mut produced = 0usize;
            for (i, slot) in slots.iter_mut().enumerate() {
                if produced >= stop {
                    break;
                }
                match task(i) {
                    Ok((value, rows)) => {
                        produced = produced.saturating_add(rows);
                        *slot = Some(Ok(value));
                    }
                    Err(e) => {
                        *slot = Some(Err(e));
                        break;
                    }
                }
            }
            return slots;
        }
        let region = Arc::new(Region {
            next: AtomicUsize::new(0),
            produced: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            stop_rows: stop_rows.unwrap_or(usize::MAX),
            total,
            slots: Mutex::new((0..total).map(|_| None).collect()),
            in_flight: Mutex::new(0),
            idle: Condvar::new(),
            // The dispatching thread carries the query id in TLS (set by the server / stream
            // producer); capture it so worker threads tag their log lines with the same query.
            qid: crate::log::current_query_id(),
        });
        let task = Arc::new(task);
        // One claim-loop job per background thread (capped by the morsel count); the calling
        // thread runs the same loop inline below. Jobs that start only after the region is
        // already complete find nothing to claim and exit immediately — the dispatcher waits
        // for *in-flight morsels*, never for queued jobs to be scheduled.
        let helpers = (self.workers - 1).min(total.saturating_sub(1));
        for _ in 0..helpers {
            let region = region.clone();
            let task = task.clone();
            self.submit(Box::new(move || claim_loop(&region, &*task)));
        }
        claim_loop(&region, &*task);
        // The inline loop exited, so no *new* morsel can be claimed (the morsels are exhausted,
        // the stop target is covered, or the region aborted — all sticky conditions every
        // claimer re-checks). Wait only for morsels other workers are still executing.
        let mut in_flight =
            region.in_flight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while *in_flight > 0 {
            in_flight =
                region.idle.wait(in_flight).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(in_flight);
        let mut slots = region.slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *slots)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Fence the job as a whole so a panic that escapes the per-morsel fence (or strikes
        // region bookkeeping) retires this job without killing the worker thread.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
            crate::log_error!("worker_panic", site = "pool_job", error = panic_message(&payload));
        }
    }
}

/// Shared state of one parallel region (one fan-out over a morsel list).
struct Region<T> {
    /// Next unclaimed morsel index: claims are strictly in index order, so at any instant the
    /// claimed set is a prefix — the invariant the LIMIT early-stop and the deterministic
    /// error selection below both rely on.
    next: AtomicUsize,
    /// Output rows of all *completed* morsels (the shared LIMIT counter).
    produced: AtomicUsize,
    abort: AtomicBool,
    stop_rows: usize,
    total: usize,
    slots: Mutex<Vec<Option<Result<T, ExecError>>>>,
    /// Morsels currently being executed by some worker. The dispatcher waits for this to hit
    /// zero *after* its own claim loop exits — at that point no new claim can start, so zero
    /// in-flight means the region is complete even if some helper jobs never got scheduled.
    in_flight: Mutex<usize>,
    idle: Condvar,
    /// Query id of the dispatching thread, re-established on workers for log attribution.
    qid: u64,
}

fn claim_loop<T, F>(region: &Region<T>, task: &F)
where
    F: Fn(usize) -> Result<(T, usize), ExecError>,
{
    let _qid_guard = crate::log::QueryIdGuard::new(region.qid);
    loop {
        // Register as in-flight *before* checking the exit conditions: the dispatcher declares
        // the region complete when it observes zero in-flight after its own loop exits, and all
        // three exit conditions (abort, stop target, exhausted indices) are sticky — so a
        // straggler job that starts late either registers first (the dispatcher waits for it)
        // or observes the sticky exit condition and leaves without claiming a morsel. Checking
        // before registering would let a straggler claim a morsel after the dispatcher already
        // harvested the result slots.
        *region.in_flight.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
        if region.abort.load(AtomicOrdering::Relaxed)
            || region.produced.load(AtomicOrdering::Relaxed) >= region.stop_rows
        {
            finish_morsel(region);
            return;
        }
        let i = region.next.fetch_add(1, AtomicOrdering::Relaxed);
        if i >= region.total {
            finish_morsel(region);
            return;
        }
        // Panic fence: a panicking morsel (a bug, or an injected failpoint) fails *this query*
        // with an internal error instead of unwinding through the pool — the worker thread,
        // the region bookkeeping and every other session keep working.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)))
            .unwrap_or_else(|payload| {
                let message = panic_message(&payload);
                crate::log_error!("worker_panic", site = "morsel", morsel = i, error = message);
                Err(ExecError::Internal(message))
            });
        let slot = match outcome {
            Ok((value, rows)) => {
                region.produced.fetch_add(rows, AtomicOrdering::Relaxed);
                Ok(value)
            }
            Err(e) => {
                region.abort.store(true, AtomicOrdering::Relaxed);
                Err(e)
            }
        };
        lock_recovered(&region.slots)[i] = Some(slot);
        finish_morsel(region);
    }
}

/// Render a panic payload into the message of the internal error that replaces it.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string());
    format!("worker panicked: {msg}")
}

/// Lock a mutex, recovering from poison: with the panic fence above, a poisoned lock can only
/// mean a panic struck between guard acquisition and release in bookkeeping code that performs
/// no fallible work while holding the guard, so the data is consistent and safe to reuse.
fn lock_recovered<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn finish_morsel<T>(region: &Region<T>) {
    let mut in_flight = region.in_flight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *in_flight -= 1;
    if *in_flight == 0 {
        region.idle.notify_all();
    }
}

/// Fold a region's slots back into sequential-pipeline semantics: walk morsels in index order,
/// stop once `stop_rows` output rows are covered (anything after is unobservable, exactly like
/// batches a lazy LIMIT never pulls), and surface the first error. Unclaimed (`None`) slots
/// are always behind either the stop point or an earlier error, so hitting one is unreachable
/// once neither applies.
fn collect_region<T>(
    slots: Vec<Option<Result<T, ExecError>>>,
    stop_rows: Option<usize>,
    rows_of: impl Fn(&T) -> usize,
) -> Result<Vec<T>, ExecError> {
    let stop = stop_rows.unwrap_or(usize::MAX);
    let mut out = Vec::with_capacity(slots.len());
    let mut rows = 0usize;
    for slot in slots {
        if rows >= stop {
            break;
        }
        match slot {
            Some(Ok(value)) => {
                rows = rows.saturating_add(rows_of(&value));
                out.push(value);
            }
            Some(Err(e)) => return Err(e),
            None => break,
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The parallel plan walk.
// ---------------------------------------------------------------------------

impl Executor {
    /// Execute a plan with morsel-driven parallelism on `pool`, returning a chunk-backed
    /// [`Relation`] observably identical to [`Executor::execute`] (see the module docs for the
    /// exact determinism guarantees). Queries with a row budget fall back to the
    /// single-threaded vectorized pipeline, whose lazy pull order defines budget semantics.
    pub fn execute_parallel(
        &self,
        plan: &LogicalPlan,
        pool: &WorkerPool,
    ) -> Result<Relation, ExecError> {
        let ctx = self.context();
        if ctx.row_budget().is_some() {
            return self.execute(plan);
        }
        let schema = plan.schema();
        let chunks = self.par_chunks(plan, &ctx, pool, None)?;
        Ok(Relation::from_chunks(schema, chunks))
    }

    /// Evaluate `plan` to a materialized chunk list, parallelizing every operator. `limit`
    /// carries a downstream LIMIT's row target into the directly-feeding morsel region so it
    /// can stop claiming morsels early (shared atomic counter; see [`Region`]).
    ///
    /// With a profile sink attached (`EXPLAIN ANALYZE`) each operator records its inclusive
    /// wall time and materialized output — one timestamp pair and two relaxed increments per
    /// *operator*, since this pipeline materializes per node anyway. Without a sink the cost
    /// is one `Option` check per operator.
    fn par_chunks(
        &self,
        plan: &LogicalPlan,
        ctx: &ExecContext,
        pool: &WorkerPool,
        limit: Option<usize>,
    ) -> Result<Vec<DataChunk>, ExecError> {
        let Some((sink, idx)) = ctx.profile_op(plan) else {
            return self.par_chunks_inner(plan, ctx, pool, limit);
        };
        let started = Instant::now();
        let result = self.par_chunks_inner(plan, ctx, pool, limit);
        sink.add_nanos(idx, started.elapsed().as_nanos() as u64);
        if let Ok(chunks) = &result {
            let rows: u64 = chunks.iter().map(|c| c.num_rows() as u64).sum();
            sink.add_output(idx, rows, chunks.len() as u64);
        }
        result
    }

    fn par_chunks_inner(
        &self,
        plan: &LogicalPlan,
        ctx: &ExecContext,
        pool: &WorkerPool,
        limit: Option<usize>,
    ) -> Result<Vec<DataChunk>, ExecError> {
        match plan {
            LogicalPlan::BaseRelation { name, schema, .. } => {
                ctx.check_deadline()?;
                let rel = self.snapshot().table(name)?;
                if rel.schema().arity() != schema.arity() {
                    return Err(ExecError::Internal(format!(
                        "stored table '{name}' has arity {} but the plan expects {}",
                        rel.schema().arity(),
                        schema.arity()
                    )));
                }
                Ok(rel.chunks().as_ref().clone())
            }
            LogicalPlan::Values { rows, .. } => {
                ctx.check_deadline()?;
                Ok(rows_to_chunks(rows, plan.output_arity()))
            }
            LogicalPlan::Selection { input, predicate } => {
                let predicate = CompiledExpr::compile(predicate, self, ctx)?;
                let source = self.par_source(input, ctx, pool)?;
                map_region(pool, ctx, source, Some(predicate), None, limit)
            }
            LogicalPlan::Projection { input, exprs, distinct } => {
                let exprs: Vec<CompiledExpr> = exprs
                    .iter()
                    .map(|(e, _)| CompiledExpr::compile(e, self, ctx))
                    .collect::<Result<_, _>>()?;
                // Fuse a selection below the projection into the same morsel task, mirroring
                // the scan fusion of the vectorized pipeline.
                let (source, predicate) = match strip_transparent(input) {
                    LogicalPlan::Selection { input: sel_input, predicate } => {
                        let predicate = CompiledExpr::compile(predicate, self, ctx)?;
                        (self.par_source(sel_input, ctx, pool)?, Some(predicate))
                    }
                    _ => (self.par_source(input, ctx, pool)?, None),
                };
                // DISTINCT consumes the whole input (its output count says nothing about how
                // many input morsels are needed), so the limit hint stops at it.
                let hint = if *distinct { None } else { limit };
                let projected = map_region(pool, ctx, source, predicate, Some(exprs), hint)?;
                if *distinct {
                    Ok(distinct_chunks(&projected))
                } else {
                    Ok(projected)
                }
            }
            LogicalPlan::Join { left, right, .. } => {
                self.par_join(plan, left, right, ctx, pool, limit)
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
                let input = self.par_chunks(input, ctx, pool, None)?;
                let rows = par_aggregate(pool, ctx, input, group_by, aggregates)?;
                Ok(rows_to_chunks(&rows, plan.output_arity()))
            }
            LogicalPlan::SetOp { left, right, kind, semantics } => {
                let left_rows = self.par_tuples(left, ctx, pool)?;
                let right_rows = self.par_tuples(right, ctx, pool)?;
                let out = set_operation(left_rows, right_rows, *kind, *semantics);
                Ok(rows_to_chunks(&out, plan.output_arity()))
            }
            LogicalPlan::Sort { input, keys } => {
                let compiled: Vec<(CompiledExpr, SortOrder)> = keys
                    .iter()
                    .map(|k| Ok((CompiledExpr::compile(&k.expr, self, ctx)?, k.order)))
                    .collect::<Result<_, ExecError>>()?;
                let chunks = self.par_chunks(input, ctx, pool, None)?;
                ctx.record_buffered(plan, chunks.iter().map(DataChunk::byte_size).sum());
                par_sort(pool, ctx, plan.output_arity(), chunks, compiled)
            }
            LogicalPlan::Limit { input, limit: n, offset } => {
                let needed = n.map(|n| n.saturating_add(*offset));
                let chunks = self.par_chunks(input, ctx, pool, needed)?;
                Ok(apply_limit(chunks, *n, *offset))
            }
            LogicalPlan::SubqueryAlias { input, .. }
            | LogicalPlan::ProvenanceAnnotation { input, .. } => {
                self.par_chunks(input, ctx, pool, limit)
            }
        }
    }

    /// The input chunk list of a morsel region: base relations hand out their cached storage
    /// chunks directly (an `Arc` bump per chunk — the fused-scan fast path), everything else
    /// materializes recursively.
    fn par_source(
        &self,
        input: &LogicalPlan,
        ctx: &ExecContext,
        pool: &WorkerPool,
    ) -> Result<Arc<Vec<DataChunk>>, ExecError> {
        Ok(Arc::new(self.par_chunks(input, ctx, pool, None)?))
    }

    /// Materialize a sub-plan as tuples, converting chunks to rows morsel-parallel (the
    /// row-shaped edge used by the multiset algebra of set operations).
    fn par_tuples(
        &self,
        plan: &LogicalPlan,
        ctx: &ExecContext,
        pool: &WorkerPool,
    ) -> Result<Vec<Tuple>, ExecError> {
        let chunks = Arc::new(self.par_chunks(plan, ctx, pool, None)?);
        ctx.reserve_memory(chunks.iter().map(DataChunk::byte_size).sum())?;
        let source = chunks.clone();
        let ctx = ctx.clone();
        let slots = pool.run_region(chunks.len(), None, move |i| {
            ctx.check_deadline()?;
            let rows: Vec<Tuple> = source[i].iter_tuples().collect();
            let n = rows.len();
            Ok((rows, n))
        });
        let batches = collect_region(slots, None, |batch: &Vec<Tuple>| batch.len())?;
        Ok(batches.into_iter().flatten().collect())
    }

    /// Parallel join: recursive build + partitioned hash table + morsel-parallel probe.
    /// `plan` is the `Join` node itself, with inputs `left` and `right`.
    fn par_join(
        &self,
        plan: &LogicalPlan,
        left: &LogicalPlan,
        right: &LogicalPlan,
        ctx: &ExecContext,
        pool: &WorkerPool,
        limit: Option<usize>,
    ) -> Result<Vec<DataChunk>, ExecError> {
        let build_chunks = self.par_chunks(right, ctx, pool, None)?;
        let kernel = Arc::new(self.join_kernel(plan, build_chunks, ctx, |build, keys| {
            build_partitioned_table(pool, ctx, build, keys)
        })?);
        let probe_chunks = Arc::new(self.par_chunks(left, ctx, pool, None)?);

        let task_probe = probe_chunks.clone();
        let task_kernel = kernel.clone();
        let task_ctx = ctx.clone();
        let slots = pool.run_region(probe_chunks.len(), limit, move |i| {
            let probe = &task_probe[i];
            let mut state = ProbeState::default();
            let mut out = Vec::new();
            loop {
                let full = task_kernel.probe(probe, &mut state, DEFAULT_CHUNK_SIZE, &task_ctx)?;
                if !state.is_empty() {
                    out.push(task_kernel.gather(probe, &mut state));
                }
                if !full {
                    break;
                }
            }
            let rows = out.iter().map(DataChunk::num_rows).sum();
            Ok((out, rows))
        });
        let batches = collect_region(slots, limit, |b: &Vec<DataChunk>| {
            b.iter().map(DataChunk::num_rows).sum()
        })?;
        let mut out: Vec<DataChunk> = batches.into_iter().flatten().collect();

        // Drain null-padded unmatched build rows — unless a satisfied LIMIT means the lazy
        // pipeline would never have reached the drain phase.
        let probe_rows: usize = out.iter().map(DataChunk::num_rows).sum();
        if limit.is_none_or(|needed| probe_rows < needed) {
            let mut pos = 0;
            while let Some(chunk) = kernel.drain(&mut pos, DEFAULT_CHUNK_SIZE) {
                ctx.check_deadline()?;
                out.push(chunk);
            }
        }
        Ok(out)
    }
}

/// Parallel filter/project over a chunk list: one morsel per input chunk, each worker masking,
/// compacting and projecting independently; empty outputs are dropped, order is morsel order.
fn map_region(
    pool: &WorkerPool,
    ctx: &ExecContext,
    source: Arc<Vec<DataChunk>>,
    predicate: Option<CompiledExpr>,
    exprs: Option<Vec<CompiledExpr>>,
    limit: Option<usize>,
) -> Result<Vec<DataChunk>, ExecError> {
    let task_source = source.clone();
    let ctx = ctx.clone();
    let slots = pool.run_region(source.len(), limit, move |i| {
        ctx.check_deadline()?;
        let chunk = &task_source[i];
        let filtered = match &predicate {
            Some(p) => {
                let mask = p.eval_mask(chunk)?;
                chunk.filter(&mask)
            }
            None => chunk.clone(),
        };
        let out = match &exprs {
            Some(exprs) => project_chunk(exprs, &filtered)?,
            None => filtered,
        };
        let rows = out.num_rows();
        Ok((out, rows))
    });
    let chunks = collect_region(slots, limit, DataChunk::num_rows)?;
    Ok(chunks.into_iter().filter(|c| !c.is_empty()).collect())
}

/// Sequential chunk-wise DISTINCT (first occurrence wins), applied after a parallel projection.
fn distinct_chunks(chunks: &[DataChunk]) -> Vec<DataChunk> {
    let mut seen: HashSet<Tuple> = HashSet::new();
    let mut out = Vec::new();
    for chunk in chunks {
        let mask: Vec<bool> =
            (0..chunk.num_rows()).map(|i| seen.insert(chunk.tuple_at(i))).collect();
        let filtered = chunk.filter(&mask);
        if !filtered.is_empty() {
            out.push(filtered);
        }
    }
    out
}

/// Re-chunk materialized rows into `DEFAULT_CHUNK_SIZE` batches.
fn rows_to_chunks(rows: &[Tuple], arity: usize) -> Vec<DataChunk> {
    rows.chunks(DEFAULT_CHUNK_SIZE).map(|batch| DataChunk::from_tuples(arity, batch)).collect()
}

/// Slice a materialized chunk list down to `LIMIT limit OFFSET offset`.
fn apply_limit(chunks: Vec<DataChunk>, limit: Option<usize>, offset: usize) -> Vec<DataChunk> {
    let mut to_skip = offset;
    let mut remaining = limit.unwrap_or(usize::MAX);
    let mut out = Vec::new();
    for chunk in chunks {
        if remaining == 0 {
            break;
        }
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
        if !chunk.is_empty() {
            out.push(chunk);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Partitioned hash join.
// ---------------------------------------------------------------------------

/// Build the partitioned hash table: build-row key hashes morsel-parallel, then one worker per
/// key-hash partition inserting its rows. With one worker the table is built directly on the
/// calling thread.
fn build_partitioned_table(
    pool: &WorkerPool,
    ctx: &ExecContext,
    build: &DataChunk,
    keys: Vec<EquiKey>,
) -> Result<JoinTable, ExecError> {
    let rows = build.num_rows();
    // The table's bucket heads and chain links cost ~12 bytes per build row on top of the
    // (already reserved) build chunk itself.
    ctx.reserve_memory(rows.saturating_mul(12))?;
    let nparts = pool.workers();
    if nparts == 1 {
        return JoinTable::build(build, keys, ctx);
    }
    let build = Arc::new(build.clone());
    let keys = Arc::new(keys);

    let hash_build = build.clone();
    let hash_keys = keys.clone();
    let hash_ctx = ctx.clone();
    let slots = pool.run_region(rows.div_ceil(DEFAULT_CHUNK_SIZE), None, move |m| {
        hash_ctx.check_deadline()?;
        let start = m * DEFAULT_CHUNK_SIZE;
        let end = (start + DEFAULT_CHUNK_SIZE).min(rows);
        let hashes: Vec<Option<u64>> =
            (start..end).map(|i| build_row_hash(&hash_build, &hash_keys, i)).collect();
        Ok((hashes, 0))
    });
    let hashes: Arc<Vec<Option<u64>>> =
        Arc::new(collect_region(slots, None, |_| 0)?.into_iter().flatten().collect());

    // Each partition task returns its key map plus the chain links of its rows (disjoint row
    // sets, so the links merge without contention).
    let task_build = build.clone();
    let task_keys = keys.clone();
    let ctx = ctx.clone();
    let slots = pool.run_region(nparts, None, move |p| {
        ctx.check_deadline()?;
        let mut links = Vec::new();
        let admit = |i: usize| hashes[i].is_some_and(|h| h as usize % nparts == p);
        let link = |i, prev| links.push((i, prev));
        let expected = rows.div_ceil(nparts);
        let map = PartitionMap::build(&task_build, &task_keys, expected, admit, link, &ctx)?;
        Ok(((map, links), 0))
    });
    let parts = collect_region(slots, None, |_| 0)?;
    Ok(JoinTable::from_partitions(keys.as_ref().clone(), rows, parts))
}

// ---------------------------------------------------------------------------
// Partitioned parallel aggregation.
// ---------------------------------------------------------------------------

/// Per-morsel evaluated aggregation inputs (phase 1 output).
struct AggMorsel {
    keys: Vec<Arc<Array>>,
    args: Vec<Option<Arc<Array>>>,
    hashes: Vec<u64>,
    rows: usize,
}

/// Parallel hash aggregation in two morsel-parallel phases.
///
/// Phase 1 evaluates group-key and argument columns per morsel (vectorized, embarrassingly
/// parallel) and computes a stable per-row key hash. Phase 2 assigns each key-hash partition
/// to one worker, which folds *every* morsel's rows of its partition in global row order —
/// each group lives in exactly one partition, so its accumulator sees values in the identical
/// order to sequential execution (bit-identical float sums, identical overflow errors).
/// Results are restored to global first-seen order.
fn par_aggregate(
    pool: &WorkerPool,
    ctx: &ExecContext,
    input: Vec<DataChunk>,
    group_by: Vec<CompiledExpr>,
    aggregates: Vec<CompiledAggregate>,
) -> Result<Vec<Tuple>, ExecError> {
    let input: Vec<DataChunk> = input.into_iter().filter(|c| !c.is_empty()).collect();
    if input.is_empty() {
        // A global aggregation over an empty input still yields one row.
        if group_by.is_empty() {
            let values: Vec<Value> =
                aggregates.iter().map(|a| Accumulator::new(&a.spec).finish()).collect();
            return Ok(vec![Tuple::new(values)]);
        }
        return Ok(Vec::new());
    }

    // Phase 1: evaluate key/argument columns and key hashes, morsel-parallel. The phase-1
    // morsel buffers (key/argument arrays plus hashes) scale with the input, so charge the
    // input size against the query's memory grant up front.
    ctx.reserve_memory(input.iter().map(DataChunk::byte_size).sum())?;
    let nparts = pool.workers();
    let source = Arc::new(input);
    let task_source = source.clone();
    let task_group_by = Arc::new(group_by);
    let task_aggregates = Arc::new(aggregates);
    let phase1_group_by = task_group_by.clone();
    let phase1_aggregates = task_aggregates.clone();
    let phase1_ctx = ctx.clone();
    let slots = pool.run_region(source.len(), None, move |m| {
        phase1_ctx.check_deadline()?;
        let chunk = &task_source[m];
        let keys: Vec<Arc<Array>> =
            phase1_group_by.iter().map(|e| e.eval_array(chunk)).collect::<Result<_, _>>()?;
        let args: Vec<Option<Arc<Array>>> = phase1_aggregates
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval_array(chunk)).transpose())
            .collect::<Result<_, _>>()?;
        // With a single partition every row lands in it; skip the routing hash entirely.
        let hashes: Vec<u64> = if nparts > 1 {
            (0..chunk.num_rows())
                .map(|i| {
                    let mut hasher = DefaultHasher::new();
                    for k in &keys {
                        k.value(i).hash(&mut hasher);
                    }
                    hasher.finish()
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok((AggMorsel { keys, args, hashes, rows: chunk.num_rows() }, 0))
    });
    let morsels = Arc::new(collect_region(slots, None, |_| 0)?);

    // Phase 2: one worker per key-hash partition, folding rows in global order.
    struct PartGroups {
        /// `(first_seen_position, key, accumulators)` in partition-local first-seen order.
        groups: Vec<(u64, Tuple, Vec<Accumulator>)>,
        /// Globally positioned first error, if any row of this partition failed.
        error: Option<(u64, ExecError)>,
    }
    let task_morsels = morsels.clone();
    let phase2_aggregates = task_aggregates.clone();
    let phase2_ctx = ctx.clone();
    let slots = pool.run_region(nparts, None, move |p| {
        phase2_ctx.check_deadline()?;
        let mut index: HashMap<Tuple, usize> = HashMap::new();
        let mut groups: Vec<(u64, Tuple, Vec<Accumulator>)> = Vec::new();
        let mut since_check = 0usize;
        for (m, morsel) in task_morsels.iter().enumerate() {
            for i in 0..morsel.rows {
                since_check += 1;
                if since_check & 0xFFF == 0 {
                    phase2_ctx.check_deadline()?;
                }
                if nparts > 1 && morsel.hashes[i] as usize % nparts != p {
                    continue;
                }
                let pos = ((m as u64) << 32) | i as u64;
                let key = Tuple::new(morsel.keys.iter().map(|k| k.value(i)).collect());
                let slot = match index.get(&key) {
                    Some(&s) => s,
                    None => {
                        let accs: Vec<Accumulator> =
                            phase2_aggregates.iter().map(|a| Accumulator::new(&a.spec)).collect();
                        groups.push((pos, key.clone(), accs));
                        index.insert(key, groups.len() - 1);
                        groups.len() - 1
                    }
                };
                for (arg, acc) in morsel.args.iter().zip(groups[slot].2.iter_mut()) {
                    if let Err(e) = acc.update(arg.as_ref().map(|a| a.value(i))) {
                        return Ok((PartGroups { groups, error: Some((pos, e)) }, 0));
                    }
                }
            }
        }
        Ok((PartGroups { groups, error: None }, 0))
    });
    let parts = collect_region(slots, None, |_| 0)?;

    // Surface the globally first failing row's error (what sequential execution reports).
    if let Some((_, e)) = parts.iter().filter_map(|p| p.error.as_ref()).min_by_key(|(pos, _)| *pos)
    {
        return Err(e.clone());
    }

    // Merge partitions back into global first-seen order.
    let mut all: Vec<(u64, Tuple, Vec<Accumulator>)> =
        parts.into_iter().flat_map(|p| p.groups).collect();
    all.sort_unstable_by_key(|(pos, _, _)| *pos);
    Ok(all
        .into_iter()
        .map(|(_, key, accs)| {
            let mut values = key.into_values();
            values.extend(accs.into_iter().map(Accumulator::finish));
            Tuple::new(values)
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Parallel sort.
// ---------------------------------------------------------------------------

/// One sorted run: the key columns of a row range plus its locally sorted permutation.
struct SortRun {
    keys: Vec<Arc<Array>>,
}

/// Parallel sort: key extraction and run sorting per morsel, then a sequential merge of the
/// sorted runs. Ties break on global row index (a stable sort by key), so the permutation is
/// deterministic regardless of worker count.
fn par_sort(
    pool: &WorkerPool,
    ctx: &ExecContext,
    arity: usize,
    chunks: Vec<DataChunk>,
    keys: Vec<(CompiledExpr, SortOrder)>,
) -> Result<Vec<DataChunk>, ExecError> {
    crate::faults::fire("sort")?;
    ctx.reserve_memory(chunks.iter().map(DataChunk::byte_size).sum())?;
    let flat = Arc::new(DataChunk::concat(arity, &chunks));
    let rows = flat.num_rows();
    if rows == 0 {
        return Ok(Vec::new());
    }
    let morsels = rows.div_ceil(DEFAULT_CHUNK_SIZE);
    let keys = Arc::new(keys);
    let task_flat = flat.clone();
    let task_keys = keys.clone();
    let task_ctx = ctx.clone();
    let slots = pool.run_region(morsels, None, move |m| {
        task_ctx.check_deadline()?;
        let start = m * DEFAULT_CHUNK_SIZE;
        let len = DEFAULT_CHUNK_SIZE.min(task_flat.num_rows() - start);
        let piece = task_flat.slice(start, len);
        let key_cols: Vec<Arc<Array>> =
            task_keys.iter().map(|(e, _)| e.eval_array(&piece)).collect::<Result<_, _>>()?;
        let mut order: Vec<u32> = (0..len as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            compare_keys(&key_cols, a as usize, &key_cols, b as usize, &task_keys).then(a.cmp(&b))
        });
        let run: Vec<u32> = order.into_iter().map(|i| start as u32 + i).collect();
        Ok(((SortRun { keys: key_cols }, run), 0))
    });
    let extracted = collect_region(slots, None, |_| 0)?;
    let (runs_keys, mut runs): (Vec<SortRun>, Vec<Vec<u32>>) = extracted.into_iter().unzip();

    // Global comparator: map a global row index onto its run's key columns.
    let cmp = |a: u32, b: u32| -> std::cmp::Ordering {
        let (ra, la) = (a as usize / DEFAULT_CHUNK_SIZE, a as usize % DEFAULT_CHUNK_SIZE);
        let (rb, lb) = (b as usize / DEFAULT_CHUNK_SIZE, b as usize % DEFAULT_CHUNK_SIZE);
        compare_keys(&runs_keys[ra].keys, la, &runs_keys[rb].keys, lb, &keys).then(a.cmp(&b))
    };

    // Pairwise merge rounds until one run remains.
    while runs.len() > 1 {
        ctx.check_deadline()?;
        let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => merged.push(merge_runs(a, b, cmp)),
                None => merged.push(a),
            }
        }
        runs = merged;
    }
    let order = runs.pop().unwrap_or_default();
    Ok(order.chunks(DEFAULT_CHUNK_SIZE).map(|batch| flat.take(batch)).collect())
}

/// Compare two rows by their evaluated key columns under the sort key orders.
fn compare_keys(
    a: &[Arc<Array>],
    i: usize,
    b: &[Arc<Array>],
    j: usize,
    keys: &[(CompiledExpr, SortOrder)],
) -> std::cmp::Ordering {
    for ((ca, cb), (_, order)) in a.iter().zip(b.iter()).zip(keys) {
        let ord = ca.compare(i, cb, j);
        let ord = match order {
            SortOrder::Ascending => ord,
            SortOrder::Descending => ord.reverse(),
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Merge two sorted runs of global row indices.
fn merge_runs(a: Vec<u32>, b: Vec<u32>, cmp: impl Fn(u32, u32) -> std::cmp::Ordering) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(a[i], b[j]) != std::cmp::Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::test_fixtures::paper_example_catalog;
    use crate::executor::ExecOptions;
    use perm_algebra::{
        tuple, AggregateExpr, AggregateFunction, DataType, JoinKind, PlanBuilder, ScalarExpr,
        Schema, SetOpKind, SetSemantics, SortKey,
    };
    use perm_storage::Catalog;

    fn scan(catalog: &Catalog, table: &str, ref_id: usize) -> PlanBuilder {
        PlanBuilder::scan(table, catalog.table_schema(table).unwrap(), ref_id)
    }

    /// A `(k, v)` integer table big enough to span several morsels.
    fn big_catalog(rows: usize) -> Catalog {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let tuples: Vec<Tuple> = (0..rows as i64).map(|i| tuple![i % 97, i % 13]).collect();
        catalog.create_table_with_data("t", Relation::from_parts(schema, tuples)).unwrap();
        catalog
    }

    fn assert_parallel_matches(catalog: &Catalog, plan: &LogicalPlan, workers: usize) {
        let pool = WorkerPool::new(workers);
        let executor = Executor::new(catalog.clone());
        let parallel = executor.execute_parallel(plan, &pool).unwrap();
        let vectorized = executor.execute(plan).unwrap();
        assert_eq!(
            parallel.tuples(),
            vectorized.tuples(),
            "parallel != vectorized at {workers} workers on\n{plan}"
        );
    }

    #[test]
    fn filter_project_pipeline_matches_vectorized() {
        let catalog = big_catalog(5000);
        let t = scan(&catalog, "t", 0);
        let pred = t.col("k").unwrap().eq(ScalarExpr::literal(7i64));
        let plan = t.filter(pred).project(vec![(ScalarExpr::column(1, "v"), "v".into())]).build();
        for workers in [1, 2, 8] {
            assert_parallel_matches(&catalog, &plan, workers);
        }
    }

    #[test]
    fn hash_join_and_outer_joins_match_vectorized() {
        let catalog = big_catalog(3000);
        for kind in
            [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::RightOuter, JoinKind::FullOuter]
        {
            let cond = ScalarExpr::column(0, "k").eq(ScalarExpr::column(2, "k"));
            let filtered = scan(&catalog, "t", 1)
                .filter(ScalarExpr::column(1, "v").eq(ScalarExpr::literal(3i64)));
            let plan = scan(&catalog, "t", 0).join(filtered, kind, Some(cond)).build();
            for workers in [1, 4] {
                assert_parallel_matches(&catalog, &plan, workers);
            }
        }
    }

    #[test]
    fn aggregation_sort_setop_and_limit_match_vectorized() {
        let catalog = big_catalog(4000);
        let agg = scan(&catalog, "t", 0)
            .aggregate(
                vec![(ScalarExpr::column(0, "k"), "k".into())],
                vec![(
                    AggregateExpr::new(AggregateFunction::Sum, ScalarExpr::column(1, "v")),
                    "s".into(),
                )],
            )
            .build();
        let sorted = scan(&catalog, "t", 0)
            .sort(vec![
                SortKey::desc(ScalarExpr::column(1, "v")),
                SortKey::asc(ScalarExpr::column(0, "k")),
            ])
            .build();
        let setop = scan(&catalog, "t", 0)
            .set_op(
                scan(&catalog, "t", 1)
                    .filter(ScalarExpr::column(0, "k").eq(ScalarExpr::literal(5i64))),
                SetOpKind::Difference,
                SetSemantics::Bag,
            )
            .build();
        let limited = scan(&catalog, "t", 0)
            .filter(ScalarExpr::column(1, "v").eq(ScalarExpr::literal(1i64)))
            .limit(Some(17), 3)
            .build();
        for plan in [&agg, &sorted, &setop, &limited] {
            for workers in [1, 8] {
                assert_parallel_matches(&catalog, plan, workers);
            }
        }
    }

    #[test]
    fn provenance_example_matches_vectorized() {
        let catalog = paper_example_catalog();
        let prod = scan(&catalog, "shop", 0)
            .cross_join(scan(&catalog, "sales", 1))
            .cross_join(scan(&catalog, "items", 2));
        let name = prod.col("shop.name").unwrap();
        let sname = prod.col("sales.sname").unwrap();
        let itemid = prod.col("sales.itemid").unwrap();
        let id = prod.col("items.id").unwrap();
        let price = prod.col("items.price").unwrap();
        let plan = prod
            .filter(name.clone().eq(sname).and(itemid.eq(id)))
            .aggregate(
                vec![(name, "name".into())],
                vec![(AggregateExpr::new(AggregateFunction::Sum, price), "sum_price".into())],
            )
            .build();
        for workers in [1, 4] {
            assert_parallel_matches(&catalog, &plan, workers);
        }
    }

    #[test]
    fn overflow_error_is_identical_across_pipelines() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let rows: Vec<Tuple> =
            (0..1500i64).map(|i| if i == 700 { tuple![i64::MAX] } else { tuple![i] }).collect();
        catalog.create_table_with_data("t", Relation::from_parts(schema, rows)).unwrap();
        let t = scan(&catalog, "t", 0);
        let plan = t
            .project(vec![(
                ScalarExpr::binary(
                    perm_algebra::BinaryOperator::Add,
                    ScalarExpr::column(0, "x"),
                    ScalarExpr::literal(1i64),
                ),
                "y".into(),
            )])
            .build();
        let executor = Executor::new(catalog.clone());
        let pool = WorkerPool::new(4);
        let expected = ExecError::ArithmeticOverflow { operation: "addition".into() };
        assert_eq!(executor.execute(&plan).unwrap_err(), expected);
        assert_eq!(executor.execute_parallel(&plan, &pool).unwrap_err(), expected);
    }

    #[test]
    fn row_budget_falls_back_to_vectorized_semantics() {
        let catalog = big_catalog(2000);
        let plan = scan(&catalog, "t", 0).build();
        let executor =
            Executor::with_options(catalog.clone(), ExecOptions::default().with_row_budget(100));
        let pool = WorkerPool::new(4);
        let parallel = executor.execute_parallel(&plan, &pool);
        let vectorized = executor.execute(&plan);
        assert_eq!(parallel.unwrap_err(), vectorized.unwrap_err());
    }

    #[test]
    fn limit_early_stop_is_stable_under_worker_races() {
        // Regression stress for the straggler race: a LIMIT region stops claiming morsels
        // early; helper jobs that start late must never claim (and write) a morsel after the
        // dispatcher harvested the result slots. 1-core schedulers interleave aggressively
        // under repetition.
        let catalog = big_catalog(8192);
        let pool = WorkerPool::new(8);
        let executor = Executor::new(catalog.clone());
        let plan = scan(&catalog, "t", 0)
            .filter(ScalarExpr::column(1, "v").eq(ScalarExpr::literal(2i64)))
            .limit(Some(9), 1)
            .build();
        let expected = executor.execute(&plan).unwrap();
        for _ in 0..200 {
            let got = executor.execute_parallel(&plan, &pool).unwrap();
            assert_eq!(got.tuples(), expected.tuples());
        }
    }

    #[test]
    fn shared_pool_survives_concurrent_regions() {
        let catalog = big_catalog(3000);
        let pool = Arc::new(WorkerPool::new(4));
        let plan = Arc::new(
            scan(&catalog, "t", 0)
                .filter(ScalarExpr::column(0, "k").eq(ScalarExpr::literal(11i64)))
                .build(),
        );
        let expected = Executor::new(catalog.clone()).execute(&plan).unwrap();
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let pool = pool.clone();
                let plan = plan.clone();
                let catalog = catalog.clone();
                let expected = expected.clone();
                thread::spawn(move || {
                    let executor = Executor::new(catalog);
                    for _ in 0..10 {
                        let got = executor.execute_parallel(&plan, &pool).unwrap();
                        assert_eq!(got.tuples(), expected.tuples());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
