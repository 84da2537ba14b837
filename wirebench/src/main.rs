//! `wirebench --workload <tpch-prov|spj-cold|tpch-write> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's header, workload properties and metrics, and as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. With `--trace 1` the spans of the
//! traced replay are written to `wirebench-out/trace-<workload>-<seed>.tsv`.

use std::io::Write as _;
use std::process::ExitCode;

use perm_tpch::TpchScale;
use perm_wirebench::workload::Workload;
use perm_wirebench::{bench, report, Config};

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: Workload::TpchProv,
        seed: 1,
        seconds: 30.0,
        trace: false,
        scale: TpchScale::small(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                config.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?;
            }
            "--seed" => config.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(config)
}

fn write_spans(path: &str, spans: &[perm_wirebench::trace::Span]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(out, "{}\t{}\t{parent}\t{}\t{}\t{}", s.request, s.id, s.name, s.start, s.end)?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match bench(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.text);
    if config.trace {
        let path = format!("wirebench-out/trace-{}-{}.tsv", config.workload.name(), config.seed);
        if let Err(e) = write_spans(&path, &outcome.spans) {
            eprintln!("wirebench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("[trace] {} spans written to {path}", outcome.spans.len());
    }
    let metrics = if config.trace { &outcome.per_layer } else { &outcome.end_to_end };
    let correct = outcome.failed == 0;
    println!("{}", report::json_line(correct, outcome.attempted, outcome.failed, metrics));
    ExitCode::SUCCESS
}
