//! The traced run: the wire run's request sequence replayed in-process through the public
//! functions the server itself calls, with one span per layer boundary.
//!
//! Nothing inside the engine is instrumented. Each layer is timed from outside, around the
//! call that enters it:
//!
//! ```text
//! request
//! └─ service.session          the replay's envelope of one statement
//!    ├─ service.plan_lookup   normalize_sql + PlanCache::get (the lookup Engine::plan_query does)
//!    ├─ sql.parse             parse_statement                  } on a plan-cache miss only
//!    ├─ sql.bind              Analyzer::analyze_statement      }
//!    │  └─ core.rewrite       ProvenanceRewriter, via a timing wrapper passed to with_rewriter
//!    ├─ algebra.verify        LogicalPlan::verify              }
//!    ├─ storage.stats         Engine::table_stats_view         }
//!    ├─ exec.optimize         Engine::optimize_plan            }
//!    ├─ service.plan_insert   PreparedPlan + PlanCache::insert }
//!    ├─ bench.profile         ProfileSink::new (the trace's own cost, kept visible)
//!    ├─ exec.execute          Engine::run_plan_streaming, then each QueryStream::next_chunk
//!    ├─ service.encode        codec::encode_chunk of each chunk, between the pulls
//!    └─ storage.insert        Engine::execute_statement of an INSERT
//! ```
//!
//! The `service.session` span only groups a request's spans. The server-side total,
//! `service.session_ms`, is timed on an untraced replay around `Session::execute_streaming`
//! (drained and encoded), the call the server makes; the layer spans of each request are set
//! against it to check that they account for the server's time.
//!
//! The lookup goes to a `PlanCache` of the engine's capacity that the replay keeps itself:
//! the engine's own cache is private, and `Engine::plan_query` would compile a miss inside
//! one call, where no span could split it. Operator times come from the `ProfileSink` that
//! `EXPLAIN ANALYZE` uses and are kept apart from the spans: parallel workers add their time
//! to the same operator, so they are not intervals on one timeline.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use perm_algebra::LogicalPlan;
use perm_core::ProvenanceRewriter;
use perm_exec::profile::{OpProfile, ProfileSink};
use perm_exec::ExecOptions;
use perm_service::{codec, normalize_sql, Engine, PlanCache, PreparedPlan, Session};
use perm_sql::{AnalyzedStatement, ProvenanceRewrite, SqlError};
use perm_tpch::TpchScale;

use crate::wire::{load_catalog, permd_engine};
use crate::workload::{Arm, Op, Sequence};

/// Operator kinds the per-operator self times are grouped into.
pub(crate) const OP_KINDS: [&str; 8] =
    ["join", "aggregate", "sort", "scan", "filter", "project", "setop", "distinct"];

/// One recorded span. Times are nanoseconds since the start of the replay.
#[derive(Debug, Clone)]
pub struct Span {
    /// Position of the request in the workload sequence.
    pub request: usize,
    /// Index of this span in the trace.
    pub id: usize,
    /// The span that caused this one (`None` for `service.session`).
    pub parent: Option<usize>,
    /// Layer name.
    pub name: &'static str,
    /// Start, in nanoseconds since the replay started.
    pub start: u64,
    /// End, in nanoseconds since the replay started.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// What the replay recorded about one request besides its spans.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// Query template and arm, or `None` for an `INSERT`.
    pub query: Option<(u32, Arm)>,
    /// Result rows.
    pub rows: u64,
    /// Result columns.
    pub columns: usize,
    /// Encoded chunk bytes.
    pub bytes: u64,
    /// Self time per operator kind (nanoseconds, in [`OP_KINDS`] order).
    pub op_self: [u64; OP_KINDS.len()],
}

/// A finished traced replay.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    /// Every span, in the order opened.
    pub spans: Vec<Span>,
    /// Every request, in sequence order.
    pub requests: Vec<Request>,
    /// Plan nodes before and after each provenance rewrite, summed.
    pub rewrite_nodes: (u64, u64),
    /// Plans compiled (plan-cache misses).
    pub compiled: u64,
    /// Join regions reordered and build sides swapped by the optimizer, from the engine's
    /// counters.
    pub joins_reordered: u64,
    /// Hash-join build sides swapped to the smaller input.
    pub build_sides_swapped: u64,
    /// Seconds inside the traced requests (their `service.session` spans).
    pub busy_s: f64,
}

/// `ProvenanceRewrite` around `ProvenanceRewriter` that records when each rewrite ran and how
/// large the plan was before and after.
struct TimingRewriter {
    inner: ProvenanceRewriter,
    log: Mutex<Vec<(Instant, Instant, usize, usize)>>,
}

impl ProvenanceRewrite for TimingRewriter {
    fn rewrite_provenance(&self, plan: &LogicalPlan) -> Result<LogicalPlan, SqlError> {
        let start = Instant::now();
        let rewritten = self.inner.rewrite_provenance(plan);
        let end = Instant::now();
        if let Ok(out) = &rewritten {
            let entry = (start, end, plan.node_count(), out.node_count());
            self.log.lock().expect("rewrite log lock").push(entry);
        }
        rewritten
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn record(
        &mut self,
        request: usize,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let (start, end) = (self.at(start), self.at(end));
        self.spans.push(Span { request, id, parent, name, start, end });
        id
    }

    /// Run `f` inside a span named `name`.
    fn span<T>(
        &mut self,
        request: usize,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(request, Some(parent), name, start, Instant::now());
        out
    }
}

/// Replay the first `ops` operations of `sequence` twice in lockstep, each time on a fresh
/// engine built like the server's over freshly generated data: once with every span recorded,
/// and once untraced, the way a session runs them (`Session::execute_streaming`, drained, each
/// chunk encoded). Each request runs on both engines back to back, so its untraced time and
/// its layer spans are taken under the same load of the machine. Whichever runs second finds
/// warm caches and runs up to 10 % faster, so the order alternates with the request and with
/// `round`: over an even number of rounds each request runs first and second equally often.
pub(crate) fn replay(
    sequence: &Sequence,
    ops: usize,
    scale: TpchScale,
    round: usize,
) -> Result<(Trace, Untraced), String> {
    let untraced_engine =
        Arc::new(permd_engine(load_catalog(scale), Arc::new(ProvenanceRewriter::new())));
    let untraced_session = untraced_engine.session();
    let mut session_s = Vec::with_capacity(ops);
    let rewriter =
        Arc::new(TimingRewriter { inner: ProvenanceRewriter::new(), log: Mutex::default() });
    let engine = permd_engine(load_catalog(scale), rewriter.clone());
    let cache = PlanCache::new(engine.plan_cache_capacity());
    let counters_start = engine.stats_snapshot().metrics;
    let mut rec = Recorder { origin: Instant::now(), spans: Vec::with_capacity(ops * 16) };
    let mut trace = Trace::default();
    for index in 0..ops {
        let op = sequence.get(index);
        let untraced_first = (index + round).is_multiple_of(2);
        if untraced_first {
            session_s.push(untraced_request(&untraced_session, op.sql())?);
        }
        let session_start = Instant::now();
        // Opened here, closed below once its children are done.
        let session = rec.record(index, None, "service.session", session_start, session_start);
        let request = match &op {
            Op::Query { sql, template, arm } => {
                let (mut request, sink, bind) =
                    run_query(&engine, &cache, &mut rec, &mut trace, index, session, sql)?;
                rec.spans[session].end = rec.at(Instant::now());
                let rewrites = std::mem::take(&mut *rewriter.log.lock().expect("rewrite log lock"));
                for (start, end, before, after) in rewrites {
                    rec.record(index, bind, "core.rewrite", start, end);
                    trace.rewrite_nodes.0 += before as u64;
                    trace.rewrite_nodes.1 += after as u64;
                }
                request.query = Some((*template, *arm));
                request.op_self = op_self_times(&sink.snapshot().ops);
                request
            }
            Op::Insert { sql, .. } => {
                let statement =
                    rec.span(index, session, "sql.parse", || perm_sql::parse_statement(sql));
                let statement = statement.map_err(|e| format!("{sql}: {e}"))?;
                let analyzed = rec
                    .span(index, session, "sql.bind", || {
                        engine.analyzer().analyze_statement(&statement)
                    })
                    .map_err(|e| format!("{sql}: {e}"))?;
                rec.span(index, session, "storage.insert", || {
                    engine.execute_statement(analyzed, ExecOptions::default(), true)
                })
                .map_err(|e| format!("{sql}: {e}"))?;
                rec.spans[session].end = rec.at(Instant::now());
                Request { query: None, rows: 0, columns: 0, bytes: 0, op_self: [0; OP_KINDS.len()] }
            }
        };
        trace.requests.push(request);
        if !untraced_first {
            session_s.push(untraced_request(&untraced_session, op.sql())?);
        }
    }
    trace.busy_s = rec.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.nanos()).sum::<u64>()
        as f64
        / 1e9;
    let counters_end = engine.stats_snapshot().metrics;
    trace.joins_reordered = counters_end.plans_reordered - counters_start.plans_reordered;
    trace.build_sides_swapped =
        counters_end.build_sides_swapped - counters_start.build_sides_swapped;
    trace.spans = rec.spans;
    let untraced = Untraced { ops_per_s: ops as f64 / session_s.iter().sum::<f64>(), session_s };
    Ok((trace, untraced))
}

/// Plan (through the replay's plan cache), execute and encode one query inside `session`.
/// Returns the request, its operator profile and the bind span (the parent of the rewrite
/// spans, which the caller records once the session has closed).
fn run_query(
    engine: &Engine,
    cache: &PlanCache,
    rec: &mut Recorder,
    trace: &mut Trace,
    index: usize,
    session: usize,
    sql: &str,
) -> Result<(Request, Arc<ProfileSink>, Option<usize>), String> {
    let err = |e: &dyn std::fmt::Display| format!("{sql}: {e}");
    let version = engine.catalog().version();
    let (key, hit) = rec.span(index, session, "service.plan_lookup", || {
        let key = normalize_sql(sql);
        let hit = cache.get(&key, version);
        (key, hit)
    });
    let mut bind = None;
    let prepared = match hit {
        Some(prepared) => prepared,
        None => {
            trace.compiled += 1;
            let statement = rec
                .span(index, session, "sql.parse", || perm_sql::parse_statement(sql))
                .map_err(|e| err(&e))?;
            let bind_start = Instant::now();
            let analyzed = engine.analyzer().analyze_statement(&statement);
            bind = Some(rec.record(index, Some(session), "sql.bind", bind_start, Instant::now()));
            let AnalyzedStatement::Query { plan, into } = analyzed.map_err(|e| err(&e))? else {
                return Err(format!("{sql}: not a query"));
            };
            rec.span(index, session, "algebra.verify", || plan.verify()).map_err(|e| err(&e))?;
            rec.span(index, session, "storage.stats", || engine.table_stats_view());
            let plan = rec
                .span(index, session, "exec.optimize", || engine.optimize_plan(&plan))
                .map_err(|e| err(&e))?;
            rec.span(index, session, "service.plan_insert", || {
                let param_count = plan.max_parameter().map_or(0, |max| max + 1);
                let prepared =
                    Arc::new(PreparedPlan { plan, into, param_count, sql: sql.to_string() });
                cache.insert(key, version, prepared.clone());
                prepared
            })
        }
    };
    let (sink, columns) = rec.span(index, session, "bench.profile", || {
        (Arc::new(ProfileSink::new(&prepared.plan)), prepared.plan.schema().arity())
    });
    // Each chunk is pulled and then encoded before the next one is pulled, as the server
    // streams it, so execution and encoding alternate in one span each per chunk.
    let options = ExecOptions::default().with_profile(sink.clone());
    let mut stream = rec
        .span(index, session, "exec.execute", || {
            engine.run_plan_streaming(prepared, options, Vec::new())
        })
        .map_err(|e| err(&e))?;
    let (mut rows, mut bytes) = (0u64, 0u64);
    while let Some(chunk) = rec.span(index, session, "exec.execute", || stream.next_chunk()) {
        let chunk = chunk.map_err(|e| err(&e))?;
        rows += chunk.num_rows() as u64;
        // The chunk is freed inside the span, as the server frees it once it is sent.
        bytes += rec.span(index, session, "service.encode", move || {
            codec::encode_chunk(&chunk).len() as u64
        });
    }
    let request = Request { query: None, rows, columns, bytes, op_self: [0; OP_KINDS.len()] };
    Ok((request, sink, bind))
}

/// What the untraced replay measured.
#[derive(Debug, Clone)]
pub(crate) struct Untraced {
    /// Operations per second in requests.
    pub ops_per_s: f64,
    /// Server-side seconds of each request: `Session::execute_streaming`, drained, with every
    /// chunk encoded.
    pub session_s: Vec<f64>,
}

/// Run one statement untraced: `Session::execute_streaming`, drained, each chunk encoded, as
/// the server does before writing frames. Returns its seconds.
fn untraced_request(session: &Session, sql: &str) -> Result<f64, String> {
    let start = Instant::now();
    let mut stream = session.execute_streaming(sql).map_err(|e| format!("{sql}: {e}"))?;
    while let Some(chunk) = stream.next_chunk() {
        std::hint::black_box(codec::encode_chunk(&chunk.map_err(|e| format!("{sql}: {e}"))?));
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Seconds each request spent in the server's layers: the durations of the direct children
/// of its `service.session` span, without the trace's own `bench.*` spans. Set against
/// [`Untraced::session_s`], it shows whether the layer spans account for the server's time.
pub(crate) fn layer_seconds(spans: &[Span], requests: usize) -> Vec<f64> {
    let mut out = vec![0.0; requests];
    for span in spans {
        let Some(parent) = span.parent else { continue };
        if spans[parent].parent.is_none() && !span.name.starts_with("bench.") {
            out[span.request] += span.nanos() as f64 / 1e9;
        }
    }
    out
}

/// The operator kind of a profiled plan node, from its `LogicalPlan::describe` label.
/// Aliases, limits and provenance annotations pass rows through and count as projections.
fn op_kind(label: &str) -> usize {
    let kind = match label.split_whitespace().next().unwrap_or("") {
        "Join" => "join",
        "Aggregation" => "aggregate",
        "Sort" => "sort",
        "BaseRelation" | "Values" => "scan",
        "Selection" => "filter",
        "Projection" if label.starts_with("Projection DISTINCT") => "distinct",
        "UNION" | "INTERSECT" | "EXCEPT" => "setop",
        _ => "project",
    };
    OP_KINDS.iter().position(|k| *k == kind).expect("every kind is listed")
}

/// Self time per operator kind: each operator's inclusive time minus that of its nearest
/// profiled descendants (an operator fused into its parent records nothing, and its children
/// count as the parent's). Parallel attribution can make children exceed their parent; such
/// a difference counts as zero.
fn op_self_times(ops: &[OpProfile]) -> [u64; OP_KINDS.len()] {
    let mut out = [0u64; OP_KINDS.len()];
    for (i, op) in ops.iter().enumerate() {
        if !op.touched {
            continue;
        }
        let mut children = 0u64;
        // Walk the pre-order subtree; stop descending below each touched descendant.
        let mut blocked_depth: Option<usize> = None;
        for child in ops[i + 1..].iter().take_while(|c| c.depth > op.depth) {
            if blocked_depth.is_some_and(|d| child.depth > d) {
                continue;
            }
            blocked_depth = None;
            if child.touched {
                children += child.nanos;
                blocked_depth = Some(child.depth);
            }
        }
        out[op_kind(&op.label)] += op.nanos.saturating_sub(children);
    }
    out
}

/// Self time of every span: its duration minus the union of its children's intervals.
pub(crate) fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start);
            for (start, end) in intervals {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.nanos() - covered.min(span.nanos())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(depth: usize, label: &str, nanos: u64, touched: bool) -> OpProfile {
        OpProfile {
            label: label.into(),
            depth,
            est_rows: None,
            nanos,
            rows_out: 0,
            chunks: 0,
            buffered_bytes: 0,
            touched,
        }
    }

    #[test]
    fn operator_self_time_skips_fused_nodes() {
        let ops = [
            op(0, "Projection [a]", 100, true),
            op(1, "Join INNER ON x", 90, true),
            op(2, "Selection [p]", 0, false),
            op(3, "BaseRelation t (#1)", 30, true),
            op(2, "BaseRelation u (#2)", 20, true),
        ];
        let out = op_self_times(&ops);
        assert_eq!(out[op_kind("Projection [a]")], 10);
        assert_eq!(out[op_kind("Join INNER ON x")], 40);
        assert_eq!(out[op_kind("BaseRelation t (#1)")], 50);
        assert_eq!(op_kind("Projection DISTINCT [a]"), 7);
        assert_eq!(op_kind("UNION ALL"), 6);
    }

    #[test]
    fn span_self_time_subtracts_covered_intervals() {
        let span = |id, parent, start, end| Span { request: 0, id, parent, name: "s", start, end };
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(2), 20, 25),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 25, 5]);
    }
}
