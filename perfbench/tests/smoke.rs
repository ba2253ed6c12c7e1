//! Smoke test of the benchmark itself: every workload runs briefly with a
//! fixed seed, untraced and traced; its output checks must pass and every
//! metric `BENCHMARK.json` names must print with its unit.

use std::process::Command;

use srra_serve::JsonValue;

fn spec() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload for one second and returns its last stdout line.
fn run(workload: &str, trace: &str) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_srra-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed: {stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).expect("the result line is JSON")
}

fn check_workload(workload: &str) {
    let spec = spec();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(
            result.get("correct").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert!(
            result
                .get("attempted")
                .and_then(JsonValue::as_u64)
                .expect("attempted")
                >= 1
        );
        assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
        let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let expected = names(&spec, key);
        assert_eq!(
            metrics.len(),
            expected.len(),
            "{workload} trace={trace} prints exactly the {key} metrics"
        );
        for (name, unit) in expected {
            let metric = result.get("metrics").and_then(|m| m.get(&name));
            let metric = metric.unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}"));
            assert_eq!(
                metric.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = metric.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} is a number"
            );
        }
    }
}

#[test]
fn explore_cold_passes_its_checks_and_prints_every_metric() {
    check_workload("explore_cold");
}

#[test]
fn serve_get_binary_passes_its_checks_and_prints_every_metric() {
    check_workload("serve_get_binary");
}

#[test]
fn cluster_mixed_json_passes_its_checks_and_prints_every_metric() {
    check_workload("cluster_mixed_json");
}

#[test]
fn benchmark_json_names_the_kept_workloads() {
    let listed: Vec<String> = spec()
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    // cluster_mixed_json stays runnable but is not listed there; its
    // cluster counters come from the traced serve_get_binary run.
    assert_eq!(listed, ["explore_cold", "serve_get_binary"]);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--seed", "1", "--seconds", "1"],
        vec!["--workload", "explore_cold", "--seconds", "1"],
        vec![
            "--workload",
            "explore_cold",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_srra-perfbench"))
            .args(&args)
            .output()
            .expect("runs");
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(output.stdout.is_empty(), "{args:?} must print no result");
    }
}
