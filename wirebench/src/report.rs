//! Turning the runs into named metrics: the end-to-end metrics of the untraced wire run, the
//! per-layer metrics of the traced replay, the workload property report and the JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{self_times, Trace, Untraced, OP_KINDS};
use crate::wire::{Sample, WireRun};
use crate::workload::Arm;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Sample count or base, printed next to the value.
    pub note: String,
}

fn metric(name: &str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric { name: name.to_string(), unit, value, note }
}

/// The `q`-quantile of `values` (linear interpolation between closest ranks); 0 when empty.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

fn latencies<'a>(samples: impl Iterator<Item = &'a Sample>, arm: Option<Arm>) -> Vec<f64> {
    samples.filter(|s| s.query.map(|(_, a)| a) == arm).map(|s| s.latency).collect()
}

/// Geometric mean over templates of the provenance p50 over the plain p50.
fn prov_overhead(samples: &[&Sample]) -> (f64, usize) {
    let mut by_template: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in samples {
        if let Some((template, arm)) = s.query {
            let entry = by_template.entry(template).or_default();
            match arm {
                Arm::Plain => entry.0.push(s.latency),
                Arm::Prov => entry.1.push(s.latency),
            }
        }
    }
    let ratios: Vec<f64> = by_template
        .values()
        .filter(|(plain, prov)| !plain.is_empty() && !prov.is_empty())
        .map(|(plain, prov)| quantile(prov, 0.5) / quantile(plain, 0.5))
        .collect();
    if ratios.is_empty() {
        return (0.0, 0);
    }
    let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    (log_mean.exp(), ratios.len())
}

/// The end-to-end metrics of the untraced run. The first list holds those `BENCHMARK.json`
/// names; the second those that exist for one workload only, or that are 0 when all is well
/// (`error_rate`), which are printed but not part of the JSON line.
pub(crate) fn end_to_end(
    wire: &WireRun,
    setup_times: &[f64],
    peak_rss_mb: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let timed: Vec<&Sample> = wire.timed().collect();
    let plain = ms(&latencies(timed.iter().copied(), Some(Arm::Plain)));
    let prov = ms(&latencies(timed.iter().copied(), Some(Arm::Prov)));
    let writes = ms(&latencies(timed.iter().copied(), None));
    let first_chunk: Vec<f64> = timed
        .iter()
        .filter(|s| s.query.map(|(_, a)| a) == Some(Arm::Prov))
        .filter_map(|s| s.first_chunk.map(|t| t * 1e3))
        .collect();
    let busy: f64 = timed.iter().map(|s| s.latency).sum();
    let (overhead, templates) = prov_overhead(&timed);
    let n = |v: &[f64]| format!("n={}", v.len());
    let main = vec![
        metric(
            "setup_s",
            "s",
            quantile(setup_times, 0.5),
            format!(
                "median of {} set-ups: {}",
                setup_times.len(),
                setup_times.iter().map(|t| format!("{t:.4}")).collect::<Vec<_>>().join(" ")
            ),
        ),
        metric(
            "ops_per_s",
            "ops/s",
            if busy > 0.0 { timed.len() as f64 / busy } else { 0.0 },
            format!(
                "n={}, over {busy:.2} s in requests of a {:.2} s window",
                timed.len(),
                wire.window_s
            ),
        ),
        metric("plain_p50_ms", "ms", quantile(&plain, 0.5), n(&plain)),
        metric("plain_p90_ms", "ms", quantile(&plain, 0.9), n(&plain)),
        metric("prov_p50_ms", "ms", quantile(&prov, 0.5), n(&prov)),
        metric("prov_p90_ms", "ms", quantile(&prov, 0.9), n(&prov)),
        metric("prov_first_chunk_p50_ms", "ms", quantile(&first_chunk, 0.5), n(&first_chunk)),
        metric(
            "prov_overhead_x",
            "ratio",
            overhead,
            format!("geometric mean over {templates} templates"),
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb, "VmHWM".to_string()),
    ];
    let (attempted, failed) = wire.failures();
    let mut extra = Vec::new();
    if !writes.is_empty() {
        extra.push(metric("write_p50_ms", "ms", quantile(&writes, 0.5), n(&writes)));
        extra.push(metric("write_p90_ms", "ms", quantile(&writes, 0.9), n(&writes)));
    }
    extra.push(metric(
        "error_rate",
        "fraction",
        failed as f64 / attempted.max(1) as f64,
        format!("{failed} of {attempted} failed"),
    ));
    (main, extra)
}

/// The workload property report: what share of the timed requests has the properties an
/// optimisation may depend on.
pub(crate) fn properties(wire: &WireRun) -> String {
    let queries: Vec<&Sample> = wire.timed().filter(|s| s.query.is_some()).collect();
    let rows: Vec<f64> = queries.iter().map(|s| s.rows as f64).collect();
    let big = queries.iter().filter(|s| s.rows > 1000).count();
    let total_rows: u64 = queries.iter().map(|s| s.rows).sum();
    let total_bytes: u64 = queries.iter().map(|s| s.bytes).sum();
    let cache = wire.cache_timed;
    format!(
        "properties: requests={} queries={} plan_cache_hit_share={:.3} rows_p50={} rows_max={} \
         share_over_1000_rows={:.3} bytes_per_row={:.1}",
        wire.timed().count(),
        queries.len(),
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        quantile(&rows, 0.5),
        rows.iter().copied().fold(0.0, f64::max),
        big as f64 / queries.len().max(1) as f64,
        total_bytes as f64 / total_rows.max(1) as f64,
    )
}

/// The span accounting: whether the layer spans of the traced replay add up to the server's
/// own time.
pub(crate) struct Accounting {
    /// Whether the layer spans of all timed requests sum to within 5 % of their untraced
    /// session time.
    pub within: bool,
    /// The totals, and per template/arm group how far the two p50s lie apart.
    pub text: String,
}

/// Set the traced layer spans (`layer_s`, from [`crate::trace::layer_seconds`]) of the timed
/// requests against the untraced server-side time (`session_s`). The check is on their
/// totals: a layer without a span, or spans that cost more than the work they time, moves the
/// total. Per template/arm group the p50s are printed too, but not checked: on a shared
/// 2-vCPU machine two executions of one millisecond-scale request differ by up to 20 %, and
/// the group p50s of ~15 requests differ by up to ~15 % with every layer covered.
pub(crate) fn accounting(
    trace: &Trace,
    session_s: &[f64],
    layer_s: &[f64],
    warmup: usize,
) -> Accounting {
    let mut groups: BTreeMap<_, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (index, request) in trace.requests.iter().enumerate().skip(warmup) {
        let group = groups.entry(request.query).or_default();
        group.0.push(session_s[index]);
        group.1.push(layer_s[index]);
    }
    let gap = |layers: f64, session: f64| (layers - session) / session.max(1e-12);
    let (mut worst, mut worst_name, mut near) = (0.0f64, String::new(), 0);
    for (key, (session, layers)) in &groups {
        let g = gap(quantile(layers, 0.5), quantile(session, 0.5));
        near += usize::from(g.abs() <= 0.05);
        if g.abs() >= worst.abs() {
            (worst, worst_name) = (g, group_name(*key));
        }
    }
    let session_total: f64 = session_s.iter().skip(warmup).sum();
    let layer_total: f64 = layer_s.iter().skip(warmup).sum();
    let total_gap = gap(layer_total, session_total);
    let within = total_gap.abs() <= 0.05;
    let text = format!(
        "[trace] accounting: layer spans {:.1} ms against untraced session time {:.1} ms over \
         the timed requests ({:+.2}%, {} 5%)\n\
         [trace] accounting per template/arm p50: {near} of {} groups within 5% (widest: {} \
         {:+.2}%)\n",
        layer_total * 1e3,
        session_total * 1e3,
        total_gap * 100.0,
        if within { "within" } else { "OUTSIDE" },
        groups.len(),
        worst_name,
        worst * 100.0
    );
    Accounting { within, text }
}

fn group_name(key: Option<(u32, Arm)>) -> String {
    match key {
        Some((template, Arm::Plain)) => format!("template {template} plain"),
        Some((template, Arm::Prov)) => format!("template {template} prov"),
        None => "insert".to_string(),
    }
}

/// The per-layer metrics. Time metrics are the layer's self time summed over the replayed
/// requests (warm-up included) and divided by their number, so a layer that a workload rarely
/// enters reads near zero there. The first list holds the metrics `BENCHMARK.json` names;
/// the second those that are structurally zero on some workload, which are printed only.
pub(crate) fn per_layer(
    trace: &Trace,
    wire: &WireRun,
    warmup: usize,
    untraced: &Untraced,
) -> (Vec<Metric>, Vec<Metric>) {
    let untraced_ops_per_s = untraced.ops_per_s;
    let requests = trace.requests.len().max(1) as f64;
    let self_ns = self_times(&trace.spans);
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, ns) in trace.spans.iter().zip(&self_ns) {
        *by_name.entry(span.name).or_default() += ns;
    }
    let per_request =
        |name: &str, scale: f64| by_name.get(name).copied().unwrap_or(0) as f64 / requests / scale;
    let per_req_note = format!("mean over {} requests", trace.requests.len());
    let layer = |name: &str, span: &str, unit: &'static str| {
        let scale = if unit == "ms" { 1e6 } else { 1e3 };
        metric(name, unit, per_request(span, scale), per_req_note.clone())
    };

    let (mut plain_rows, mut prov_rows, mut plain_cols, mut prov_cols) =
        (0u64, 0u64, 0usize, 0usize);
    for r in &trace.requests {
        match r.query {
            Some((_, Arm::Plain)) => {
                plain_rows += r.rows;
                plain_cols += r.columns;
            }
            Some((_, Arm::Prov)) => {
                prov_rows += r.rows;
                prov_cols += r.columns;
            }
            None => {}
        }
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let rows: u64 = trace.requests.iter().map(|r| r.rows).sum();
    let bytes: u64 = trace.requests.iter().map(|r| r.bytes).sum();
    let compiled = trace.compiled.max(1) as f64;
    let cache = wire.cache_timed;
    let timed_queries: Vec<&Sample> = wire.timed().filter(|s| s.query.is_some()).collect();
    let frames: u64 = timed_queries.iter().map(|s| s.frames).sum();

    // Server-side time of each timed request, from the untraced replay. Grouped per
    // (template, arm) to set against the wire p50.
    let mut session_ms: BTreeMap<(u32, Arm), Vec<f64>> = BTreeMap::new();
    let mut all_sessions = Vec::new();
    for (index, request) in trace.requests.iter().enumerate().skip(warmup) {
        let server_ms = untraced.session_s[index] * 1e3;
        all_sessions.push(server_ms);
        if let Some(key) = request.query {
            session_ms.entry(key).or_default().push(server_ms);
        }
    }
    let mut wire_ms: BTreeMap<(u32, Arm), Vec<f64>> = BTreeMap::new();
    for s in &timed_queries {
        if let Some(key) = s.query {
            wire_ms.entry(key).or_default().push(s.latency * 1e3);
        }
    }
    let wire_gaps: Vec<f64> = wire_ms
        .iter()
        .filter_map(|(key, e2e)| {
            let session = session_ms.get(key)?;
            Some(quantile(e2e, 0.5) - quantile(session, 0.5))
        })
        .collect();
    let traced_ops_per_s = trace.requests.len() as f64 / trace.busy_s.max(1e-9);
    let (rewrite_before, rewrite_after) = trace.rewrite_nodes;

    let mut main = vec![
        layer("sql.parse_us", "sql.parse", "us"),
        layer("sql.bind_us", "sql.bind", "us"),
        layer("core.rewrite_us", "core.rewrite", "us"),
        metric(
            "core.rewrite_nodes_x",
            "ratio",
            ratio(rewrite_after as f64, rewrite_before as f64),
            format!("{rewrite_after} of {rewrite_before} plan nodes"),
        ),
        layer("algebra.verify_us", "algebra.verify", "us"),
        layer("storage.stats_ms", "storage.stats", "ms"),
        layer("exec.optimize_us", "exec.optimize", "us"),
        metric(
            "exec.joins_reordered",
            "1/plan",
            trace.joins_reordered as f64 / compiled,
            format!("{} over {} compiled plans", trace.joins_reordered, trace.compiled),
        ),
        metric(
            "exec.build_sides_swapped",
            "1/plan",
            trace.build_sides_swapped as f64 / compiled,
            format!("{} over {} compiled plans", trace.build_sides_swapped, trace.compiled),
        ),
        layer("exec.execute_ms", "exec.execute", "ms"),
    ];
    let mut extra = Vec::new();
    for (k, kind) in OP_KINDS.iter().enumerate() {
        let total: u64 = trace.requests.iter().map(|r| r.op_self[k]).sum();
        let m = metric(
            &format!("exec.op_self_ms.{kind}"),
            "ms",
            total as f64 / requests / 1e6,
            per_req_note.clone(),
        );
        // Joins, scans and projections run on every workload; the other kinds are absent
        // from some (SPJ queries neither aggregate nor sort), so their time reads zero there.
        if matches!(*kind, "join" | "scan" | "project") {
            main.push(m);
        } else {
            extra.push(m);
        }
    }
    main.extend([
        metric(
            "exec.prov_rows_x",
            "ratio",
            ratio(prov_rows as f64, plain_rows as f64),
            format!("{prov_rows} of {plain_rows} rows"),
        ),
        metric(
            "exec.prov_cols_x",
            "ratio",
            ratio(prov_cols as f64, plain_cols as f64),
            format!("{prov_cols} of {plain_cols} columns"),
        ),
        metric(
            "service.plan_cache_hit_ratio",
            "ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            format!("{} hits, {} misses in the timed window", cache.hits, cache.misses),
        ),
        metric(
            "service.plan_cache_invalidations",
            "count",
            cache.invalidations as f64,
            "timed window".into(),
        ),
        layer("service.plan_lookup_us", "service.plan_lookup", "us"),
        metric(
            "service.session_ms",
            "ms",
            quantile(&all_sessions, 0.5),
            format!("p50 of the untraced replay, n={}", all_sessions.len()),
        ),
        layer("service.encode_us", "service.encode", "us"),
        metric(
            "service.encoded_bytes_per_row",
            "B/row",
            ratio(bytes as f64, rows as f64),
            format!("{bytes} B over {rows} rows"),
        ),
        metric(
            "service.frames_per_query",
            "1/query",
            ratio(frames as f64, timed_queries.len() as f64),
            format!("n={}", timed_queries.len()),
        ),
        metric(
            "service.wire_ms",
            "ms",
            quantile(&wire_gaps, 0.5),
            format!("median over {} template/arm groups of e2e p50 - session p50", wire_gaps.len()),
        ),
        metric("service.shed_queries", "count", wire.shed as f64, "whole run".into()),
        metric(
            "bench.trace_overhead_pct",
            "%",
            (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s.max(1e-9) * 100.0,
            format!(
                "{traced_ops_per_s:.1} traced vs {untraced_ops_per_s:.1} untraced in-process ops/s"
            ),
        ),
    ]);
    let inserts = trace.requests.iter().filter(|r| r.query.is_none()).count();
    if inserts > 0 {
        let total = by_name.get("storage.insert").copied().unwrap_or(0) as f64;
        extra.push(metric(
            "storage.insert_us",
            "us",
            total / inserts as f64 / 1e3,
            format!("mean over {inserts} inserts"),
        ));
    }
    (main, extra)
}

/// The benchmark's last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

/// One human-readable line per metric.
pub(crate) fn render(prefix: &str, metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{prefix}{} = {:.4} {} ({})\n", m.name, m.value, m.unit, m.note))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn accounting_fails_when_the_layers_miss_the_session_time() {
        use crate::trace::{Request, OP_KINDS};
        let request =
            |query| Request { query, rows: 0, columns: 0, bytes: 0, op_self: [0; OP_KINDS.len()] };
        let trace = Trace {
            requests: vec![
                request(Some((1, Arm::Plain))),
                request(Some((1, Arm::Prov))),
                request(None),
            ],
            ..Trace::default()
        };
        // The first request is warm-up and not counted.
        let session = [9.0, 1.0, 2.0];
        assert!(accounting(&trace, &session, &[1.0, 1.02, 1.95], 1).within);
        let missing_layer = accounting(&trace, &session, &[9.0, 0.9, 1.8], 1);
        assert!(!missing_layer.within);
        assert!(missing_layer.text.contains("OUTSIDE"), "{}", missing_layer.text);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json_line(true, 3, 0, &[metric("a_ms", "ms", 1.5, String::new())]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
