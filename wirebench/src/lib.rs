//! Wire-level benchmark of the Perm reproduction; see `README.md` for the workloads, the
//! metrics and how to read them.
//!
//! A run has four steps, public so the self-test can interfere between them:
//! [`prepare`] starts the server (timed as `setup_s`); [`run_wire`] drives the workload over
//! the socket and stops the server; [`expected_results`] computes what every query text must
//! return; [`finish`] compares, with tracing on replays the same requests in-process for the
//! per-layer breakdown, and assembles the report. [`bench`] does all four.
//!
//! The expected results are computed after the timed window rather than before it: the data
//! of the read-only workloads does not change, and the oracle's memory would otherwise set
//! `peak_rss_mb`.

pub mod oracle;
pub mod report;
pub mod trace;
pub mod wire;
pub mod workload;

use std::collections::HashMap;

use perm_storage::Catalog;
use perm_tpch::TpchScale;

use crate::oracle::Expected;
use crate::report::Metric;
use crate::trace::Span;
use crate::wire::{Server, WireRun};
use crate::workload::{Sequence, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the request sequence.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Whether to add the traced in-process replay.
    pub trace: bool,
    /// Scale of the generated TPC-H data.
    pub scale: TpchScale,
}

/// A started server with its workload, ready to measure.
pub struct Prepared {
    /// The configuration.
    pub config: Config,
    /// The request sequence.
    pub sequence: Sequence,
    /// The server the wire run talks to.
    pub server: Server,
    /// Seconds of each set-up.
    pub setup_times: Vec<f64>,
}

/// The untraced run, finished, with the server stopped.
pub struct Measured {
    /// The configuration.
    pub config: Config,
    /// The request sequence.
    pub sequence: Sequence,
    /// Seconds of each set-up.
    pub setup_times: Vec<f64>,
    /// What the wire run recorded.
    pub wire: WireRun,
    /// `VmHWM` right after the timed window, in MB.
    pub peak_rss_mb: f64,
    /// The data the server served.
    pub catalog: Catalog,
    /// The server's worker count.
    pub workers: usize,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable lines: header, properties, every metric.
    pub text: String,
    /// End-to-end metrics named in `BENCHMARK.json`.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics named in `BENCHMARK.json` (empty without tracing).
    pub per_layer: Vec<Metric>,
    /// Checks attempted: every request (warm-up included), the checks after the window, and
    /// with tracing the span accounting and the replay's row counts.
    pub attempted: usize,
    /// Of those, the ones that failed.
    pub failed: usize,
    /// The traced replay's spans (empty without tracing).
    pub spans: Vec<Span>,
}

/// Lockstep rounds of the traced replay (even, see [`trace::replay`]).
const REPLAY_ROUNDS: usize = 4;

/// Run every step.
pub fn bench(config: &Config) -> Result<Outcome, String> {
    let measured = run_wire(prepare(config)?)?;
    let expected = expected_results(&measured)?;
    finish(measured, &expected)
}

/// Start the server [`wire::SETUP_REPEATS`] times, keeping the last one.
pub fn prepare(config: &Config) -> Result<Prepared, String> {
    let (server, setup_times) = wire::setup(config.scale)?;
    let sequence = Sequence::new(config.workload, config.seed, config.scale);
    Ok(Prepared { config: config.clone(), sequence, server, setup_times })
}

/// The untraced run: warm-up and timed window over the socket, then stop the server.
pub fn run_wire(prepared: Prepared) -> Result<Measured, String> {
    let Prepared { config, sequence, mut server, setup_times } = prepared;
    let wire = wire::run(&mut server, &sequence, config.seconds)?;
    let peak_rss_mb = peak_rss_mb()?;
    let catalog = server.engine.catalog().clone();
    let workers = server.engine.workers();
    server.stop();
    Ok(Measured { config, sequence, setup_times, wire, peak_rss_mb, catalog, workers })
}

/// Expected results of the read-only workloads (`tpch-write` checks lemma 1 instead).
pub fn expected_results(measured: &Measured) -> Result<HashMap<String, Expected>, String> {
    match measured.config.workload {
        Workload::TpchWrite => Ok(HashMap::new()),
        _ => oracle::expected_results(&measured.sequence, &measured.catalog),
    }
}

/// Compare the results with `expected`, replay with tracing if asked, and report.
pub fn finish(measured: Measured, expected: &HashMap<String, Expected>) -> Result<Outcome, String> {
    let Measured { config, sequence, setup_times, mut wire, peak_rss_mb, workers, .. } = measured;
    if config.workload != Workload::TpchWrite {
        for sample in &mut wire.samples {
            let op = sequence.get(sample.index);
            sample.ok &=
                sample.received.is_none() || sample.received.as_ref() == expected.get(op.sql());
        }
    }
    let (end_to_end, extra) = report::end_to_end(&wire, &setup_times, peak_rss_mb);
    let (mut attempted, mut failed) = wire.failures();

    let mut text = format!(
        "wirebench: workload={} seed={} seconds={} scale_sf={} data_seed={} workers={} \
         available_parallelism={} loop=closed clients=1 connections=1\n",
        config.workload.name(),
        config.seed,
        config.seconds,
        config.scale.sf,
        wire::DATA_SEED,
        workers,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    text.push_str(&report::properties(&wire));
    text.push('\n');
    text.push_str(&report::render("", &end_to_end));
    text.push_str(&report::render("", &extra));

    let (mut per_layer, mut spans) = (Vec::new(), Vec::new());
    if config.trace {
        // Several lockstep rounds, each request keeping its least time on either side: the
        // rest of the machine can only slow a request down, and on a shared 2-vCPU machine it
        // moves single millisecond-scale requests by 20 %.
        let ops = wire.ops();
        let mut rounds = Vec::with_capacity(REPLAY_ROUNDS);
        for round in 0..REPLAY_ROUNDS {
            rounds.push(trace::replay(&sequence, ops, config.scale, round)?);
        }
        let mut session_s = vec![f64::INFINITY; ops];
        let mut layer_s = vec![f64::INFINITY; ops];
        for (traced, untraced) in &rounds {
            let layers = trace::layer_seconds(&traced.spans, ops);
            for i in 0..ops {
                session_s[i] = session_s[i].min(untraced.session_s[i]);
                layer_s[i] = layer_s[i].min(layers[i]);
            }
        }
        let untraced_ops_per_s = rounds.iter().map(|(_, u)| u.ops_per_s).fold(0.0, f64::max);
        let (traced, _) = rounds
            .into_iter()
            .min_by(|a, b| a.0.busy_s.total_cmp(&b.0.busy_s))
            .ok_or("no replay ran")?;
        let untraced = trace::Untraced { ops_per_s: untraced_ops_per_s, session_s };
        let rows_differ = traced
            .requests
            .iter()
            .zip(&wire.samples)
            .filter(|(t, w)| w.query.is_some() && t.rows != w.rows)
            .count();
        let warmup = sequence.cycle_len();
        let (main, extra) = report::per_layer(&traced, &wire, warmup, &untraced);
        let accounting = report::accounting(&traced, &untraced.session_s, &layer_s, warmup);
        text.push_str(&report::render("[trace] ", &main));
        text.push_str(&report::render("[trace] ", &extra));
        text.push_str(&accounting.text);
        text.push_str(&format!(
            "[trace] replayed row counts that differ from the wire run: {rows_differ}\n"
        ));
        attempted += 2;
        failed += usize::from(!accounting.within) + usize::from(rows_differ > 0);
        per_layer = main;
        spans = traced.spans;
    }
    Ok(Outcome { text, end_to_end, per_layer, attempted, failed, spans })
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}
