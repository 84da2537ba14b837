//! Self-test of the benchmark: every workload runs briefly on the smallest TPC-H scale, every
//! metric `BENCHMARK.json` names is reported with its unit, and a wrong expected result is
//! counted as a failure.

use std::sync::Mutex;

use perm_tpch::TpchScale;
use perm_wirebench::workload::{Op, Workload};
use perm_wirebench::{bench, expected_results, finish, prepare, run_wire, Config, Outcome};

/// Held by each test: the traced run checks its timings, which a second run on the same CPUs
/// would disturb.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn config(workload: Workload, trace: bool) -> Config {
    Config { workload, seed: 5, seconds: 0.5, trace, scale: TpchScale::test() }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn named_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |object: &str, key: &str| {
        let rest = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|object| (field(object, "name").expect("name"), field(object, "unit").expect("unit")))
        .collect()
}

fn assert_reported(outcome: &Outcome, section: &str) {
    let metrics = if section == "end_to_end" { &outcome.end_to_end } else { &outcome.per_layer };
    let named = named_metrics(section);
    assert!(!named.is_empty());
    assert_eq!(metrics.len(), named.len(), "{section}: the run reports exactly the named metrics");
    for (name, unit) in named {
        let metric = metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{section} metric {name} missing"));
        assert_eq!(metric.unit, unit, "{name}");
        assert!(metric.value.is_finite(), "{name}");
        assert!(outcome.text.contains(&format!("{name} = ")), "{name} is printed");
    }
}

#[test]
fn every_workload_reports_every_named_metric_with_its_unit() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let outcome = bench(&config(workload, true)).unwrap();
        assert_eq!(outcome.failed, 0, "{}:\n{}", workload.name(), outcome.text);
        assert!(outcome.attempted > 0);
        assert_reported(&outcome, "end_to_end");
        assert_reported(&outcome, "per_layer");
        assert!(outcome.text.contains("error_rate = 0.0000 fraction"), "{}", outcome.text);
        assert!(outcome.text.contains("properties: "), "{}", outcome.text);
        assert!(!outcome.spans.is_empty());
        if workload == Workload::TpchWrite {
            assert!(outcome.text.contains("write_p50_ms = "), "{}", outcome.text);
        }
    }
}

#[test]
fn a_wrong_expected_checksum_counts_in_error_rate() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for workload in [Workload::TpchProv, Workload::SpjCold] {
        let measured = run_wire(prepare(&config(workload, false)).unwrap()).unwrap();
        let mut expected = expected_results(&measured).unwrap();
        // The first request of the warm-up: its results are checked and counted too, though
        // in `spj-cold` its text is not sent again in the timed window.
        let Op::Query { sql, .. } = measured.sequence.get(0) else { panic!("a query comes first") };
        expected.get_mut(&sql).expect("expected result computed").checksum ^= 1;
        let outcome = finish(measured, &expected).unwrap();
        assert!(outcome.failed >= 1, "{}", outcome.text);
        assert!(!outcome.text.contains("error_rate = 0.0000 fraction"), "{}", outcome.text);
    }
}
