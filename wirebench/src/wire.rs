//! The untraced run: an in-process `permd` on a loopback socket, driven by one client thread
//! over one connection in a closed loop.
//!
//! A closed loop fits what is measured: each caller is a SQL session that sends its next
//! statement only after the previous result has arrived, so the server never sees more than
//! one request of a session at a time, and a slower server simply receives less load.

use std::sync::Arc;
use std::time::Instant;

use perm_algebra::{DataChunk, Value};
use perm_core::ProvenanceRewriter;
use perm_service::codec;
use perm_service::shell::ResponseFrame;
use perm_service::{serve, CacheStats, Client, Engine, ServerHandle};
use perm_sql::ProvenanceRewrite;
use perm_storage::Catalog;
use perm_tpch::{generate_catalog, TpchScale};

use crate::oracle::{checksum_chunks, lemma1_holds, Expected};
use crate::workload::{Arm, Op, Sequence, Workload};

/// Seed of the TPC-H data generator: the data is the same for every workload seed, as the
/// paper's databases were; `--seed` varies only the requests.
pub const DATA_SEED: u64 = 42;

/// Generate the TPC-H catalog and collect its statistics (the post-load `ANALYZE`).
pub(crate) fn load_catalog(scale: TpchScale) -> Catalog {
    let catalog = generate_catalog(scale, DATA_SEED);
    catalog.analyze();
    catalog
}

/// An engine configured like `permd` without flags: default plan cache, one worker per CPU,
/// no memory limits, no slow-query log.
pub(crate) fn permd_engine(catalog: Catalog, rewriter: Arc<dyn ProvenanceRewrite>) -> Engine {
    let engine = Engine::with_catalog(catalog).with_rewriter(rewriter);
    engine.metrics().set_slow_query_ms(0);
    engine
}

/// A running in-process server and the benchmark's connection to it.
pub struct Server {
    /// The engine the server serves (read only for its counters).
    pub engine: Arc<Engine>,
    handle: ServerHandle,
    client: Client,
}

impl Server {
    /// Everything `setup_s` covers: catalog generation, `analyze()`, engine build, `serve`
    /// bind and the client handshake.
    pub fn start(scale: TpchScale) -> Result<Server, String> {
        let catalog = load_catalog(scale);
        let engine = Arc::new(permd_engine(catalog, Arc::new(ProvenanceRewriter::new())));
        let handle = serve(engine.clone(), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Server { engine, handle, client })
    }

    /// Close the connection and shut the server down, waiting for its threads.
    pub fn stop(self) {
        drop(self.client);
        self.handle.shutdown();
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Start the server [`SETUP_REPEATS`] times, keeping the last one: returns it with every
/// set-up time. Each server is stopped before the next starts, so only one catalog and engine
/// are alive at a time and the set-ups do not set `peak_rss_mb`.
pub(crate) fn setup(scale: TpchScale) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<Server> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = kept.take() {
            old.stop();
        }
        let start = Instant::now();
        kept = Some(Server::start(scale)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let server = kept.ok_or("no set-up ran")?;
    Ok((server, times))
}

/// What one request measured.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the workload sequence.
    pub index: usize,
    /// Query template and arm, or `None` for an `INSERT`.
    pub query: Option<(u32, Arm)>,
    /// Whether it fell in the timed window (warm-up requests do not).
    pub timed: bool,
    /// Seconds from sending `query <sql>` to receiving `D` (or the error frame).
    pub latency: f64,
    /// Seconds from sending to the first `R` frame, if any arrived.
    pub first_chunk: Option<f64>,
    /// `R` frames received.
    pub frames: u64,
    /// Rows received.
    pub rows: u64,
    /// Encoded `R` payload bytes (`codec::encode_chunk` of what arrived).
    pub bytes: u64,
    /// Row count and checksum of a query's result, for the comparison with the expected one.
    pub received: Option<Expected>,
    /// Whether the request succeeded and passed the checks made during the run (`D` row
    /// count; lemma 1 in `tpch-write`). Expected results are compared afterwards.
    pub ok: bool,
}

/// Everything the untraced run produced.
#[derive(Debug)]
pub struct WireRun {
    /// One sample per request sent, warm-up first.
    pub samples: Vec<Sample>,
    /// Wall seconds of the timed window.
    pub window_s: f64,
    /// Plan-cache counters over the timed window.
    pub cache_timed: CacheStats,
    /// Queries the governor shed during the run.
    pub shed: u64,
    /// Checks outside any one request that failed (`tpch-write`'s final row count).
    pub failed_checks: usize,
    /// Checks outside any one request that ran.
    pub extra_checks: usize,
}

impl WireRun {
    /// Requests in the timed window.
    pub fn timed(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.timed)
    }

    /// Requests sent, warm-up included: the length of the sequence prefix to replay.
    pub fn ops(&self) -> usize {
        self.samples.len()
    }

    /// `(attempted, failed)`: every request, warm-up included (its results are checked like
    /// the timed ones, but not timed), and the checks after the window.
    pub fn failures(&self) -> (usize, usize) {
        let attempted = self.samples.len() + self.extra_checks;
        (attempted, self.samples.iter().filter(|s| !s.ok).count() + self.failed_checks)
    }
}

struct Response {
    latency: f64,
    first_chunk: Option<f64>,
    done_rows: Option<u64>,
    error: Option<String>,
    chunks: Vec<DataChunk>,
}

/// Send one statement and read its whole response. Only I/O failures are `Err`.
fn roundtrip(client: &mut Client, sql: &str) -> std::io::Result<Response> {
    let start = Instant::now();
    client.send(&format!("query {sql}"))?;
    let mut response =
        Response { latency: 0.0, first_chunk: None, done_rows: None, error: None, chunks: vec![] };
    loop {
        match client.read_response()? {
            ResponseFrame::Schema(_) => {}
            ResponseFrame::Chunk(chunk) => {
                response.first_chunk.get_or_insert_with(|| start.elapsed().as_secs_f64());
                response.chunks.push(chunk);
            }
            ResponseFrame::Done { rows } => {
                response.done_rows = Some(rows);
                break;
            }
            ResponseFrame::Err(message) => {
                response.error = Some(message);
                break;
            }
            ResponseFrame::Ok(text) => {
                response.error = Some(format!("unexpected text response: {text}"));
                break;
            }
        }
    }
    response.latency = start.elapsed().as_secs_f64();
    Ok(response)
}

/// Drive `sequence` through the server: one cycle of warm-up, then as many whole cycles as
/// fit in `seconds` at the warm-up's pace (at least one). Each result is checked, or its
/// checksum kept, after its latency is taken.
pub(crate) fn run(
    server: &mut Server,
    sequence: &Sequence,
    seconds: f64,
) -> Result<WireRun, String> {
    let engine = server.engine.clone();
    let initial_lineitems =
        engine.catalog().table_row_count("lineitem").map_err(|e| e.to_string())?;
    let shed_start = engine.governor().stats().shed_queries;
    let mut samples = Vec::new();
    let mut inserted = 0usize;
    let mut pending_plain: Option<(Vec<DataChunk>, bool)> = None;
    let mut cache_window = engine.cache_stats();
    let mut window_start = Instant::now();
    let warmup = sequence.cycle_len();
    let mut end = usize::MAX;
    let mut index = 0;
    while index < end {
        if index == warmup {
            let cycle_s = window_start.elapsed().as_secs_f64();
            end = warmup * (1 + ((seconds / cycle_s).round() as usize).max(1));
            cache_window = engine.cache_stats();
            window_start = Instant::now();
        }
        let op = sequence.get(index);
        let response = roundtrip(&mut server.client, op.sql())
            .map_err(|e| format!("request {index} failed on the socket: {e}"))?;
        let rows: u64 = response.chunks.iter().map(|c| c.num_rows() as u64).sum();
        let mut ok = response.error.is_none() && response.done_rows == Some(rows);
        let (query, received) = match &op {
            Op::Query { sql, template, arm } => {
                ok &= match (sequence.workload(), arm) {
                    (Workload::TpchWrite, Arm::Plain) => {
                        let limited = sql.to_ascii_uppercase().contains(" LIMIT ");
                        pending_plain = Some((response.chunks.clone(), limited));
                        true
                    }
                    (Workload::TpchWrite, Arm::Prov) => {
                        pending_plain.take().is_some_and(|(plain, limited)| {
                            lemma1_holds(&plain, &response.chunks, limited)
                        })
                    }
                    _ => true,
                };
                (Some((*template, *arm)), Some(checksum_chunks(&response.chunks)))
            }
            Op::Insert { rows, .. } => {
                if response.error.is_none() {
                    inserted += rows;
                }
                (None, None)
            }
        };
        samples.push(Sample {
            index,
            query,
            timed: index >= warmup,
            latency: response.latency,
            first_chunk: response.first_chunk,
            frames: response.chunks.len() as u64,
            rows,
            bytes: response.chunks.iter().map(|c| codec::encode_chunk(c).len() as u64).sum(),
            received,
            ok,
        });
        index += 1;
    }
    let window_s = window_start.elapsed().as_secs_f64();
    let cache_end = engine.cache_stats();
    let shed = engine.governor().stats().shed_queries - shed_start;
    let (mut extra_checks, mut failed_checks) = (0, 0);
    if sequence.workload() == Workload::TpchWrite {
        extra_checks += 1;
        let count = roundtrip(&mut server.client, "SELECT count(*) FROM lineitem")
            .map_err(|e| format!("final count failed on the socket: {e}"))?;
        let want = Value::Int((initial_lineitems + inserted) as i64);
        let got = count.chunks.first().filter(|c| c.num_rows() == 1).map(|c| c.value_at(0, 0));
        if got != Some(want) {
            failed_checks += 1;
        }
    }
    Ok(WireRun {
        samples,
        window_s,
        cache_timed: delta(cache_end, cache_window),
        shed,
        failed_checks,
        extra_checks,
    })
}

fn delta(end: CacheStats, start: CacheStats) -> CacheStats {
    CacheStats {
        hits: end.hits - start.hits,
        misses: end.misses - start.misses,
        invalidations: end.invalidations - start.invalidations,
        entries: end.entries,
    }
}
