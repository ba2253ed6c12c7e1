//! `compare A.jsonl B.jsonl`: reads the report lines of several runs per
//! side and flags a metric only when the change of its median falls outside
//! both sides' run-to-run spread (interquartile range) and, for end-to-end
//! metrics, outside the metric's bound.  Directions and bounds come from
//! `BENCHMARK.json` in the current directory (the repository root).

use std::collections::BTreeMap;
use std::process::ExitCode;

use srra_serve::JsonValue;

use crate::metrics::SCHEMA;
use crate::util::median;

/// A metric's direction and bound, as `BENCHMARK.json` declares them.
struct Rule {
    lower_is_better: bool,
    /// `None` for per-layer metrics, which have no bound and never fail
    /// the comparison.
    bound: Option<f64>,
}

fn rules() -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|err| format!("BENCHMARK.json (run from the repository root): {err}"))?;
    let spec = JsonValue::parse(&text).map_err(|err| format!("BENCHMARK.json: {err}"))?;
    let mut rules = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for metric in spec
            .get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
        {
            let field = |name: &str| metric.get(name).and_then(JsonValue::as_str);
            let name = field("name").ok_or("BENCHMARK.json: metric without a name")?;
            rules.insert(
                name.to_owned(),
                Rule {
                    lower_is_better: field("better") == Some("lower"),
                    bound: metric.get("bound").and_then(JsonValue::as_f64),
                },
            );
        }
    }
    Ok(rules)
}

/// (workload, metric) → values, one per run.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("{path}: {err}"))?;
    let mut side = Side::new();
    for line in text.lines().filter(|line| line.contains("\"schema\"")) {
        let report = JsonValue::parse(line).map_err(|err| format!("{path}: {err}"))?;
        let schema = report.get("schema").and_then(JsonValue::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!(
                "{path}: schema {schema:?}, this build reads {SCHEMA}"
            ));
        }
        let workload = report
            .get("workload")
            .and_then(JsonValue::as_str)
            .unwrap_or_default();
        let Some(JsonValue::Object(metrics)) = report.get("metrics") else {
            return Err(format!("{path}: report without metrics"));
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(JsonValue::as_f64) {
                side.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    if side.is_empty() {
        return Err(format!("{path}: no {SCHEMA} report lines"));
    }
    Ok(side)
}

/// First and third quartile as Python's `statistics.quantiles(n=4)` (the
/// default exclusive method) gives them.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    if data.len() < 2 {
        let only = data.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let len = data.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: srra-perfbench compare <A.jsonl> <B.jsonl>");
        return ExitCode::from(2);
    };
    let (before, after, rules) = match (load(a), load(b), rules()) {
        (Ok(before), Ok(after), Ok(rules)) => (before, after, rules),
        (Err(err), _, _) | (_, Err(err), _) | (_, _, Err(err)) => {
            eprintln!("{err}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    println!("workload metric runs_a median_a iqr_a runs_b median_b iqr_b change verdict");
    for ((workload, name), values_a) in &before {
        let Some(values_b) = after.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(rule) = rules.get(name) else {
            continue;
        };
        let (median_a, median_b) = (median(values_a), median(values_b));
        let (q1a, q3a) = quartiles(values_a);
        let (q1b, q3b) = quartiles(values_b);
        let delta = median_b - median_a;
        let relative = if median_a == 0.0 {
            0.0
        } else {
            delta / median_a.abs()
        };
        let outside = delta.abs() > (q3a - q1a)
            && delta.abs() > (q3b - q1b)
            && relative.abs() > rule.bound.unwrap_or(0.0);
        let worse = (delta > 0.0) == rule.lower_is_better && delta != 0.0;
        let verdict = match (outside, worse) {
            (false, _) => "within-noise",
            (true, true) => "REGRESSED",
            (true, false) => "improved",
        };
        regressed |= outside && worse && rule.bound.is_some();
        println!(
            "{workload} {name} {} {median_a:.6} {:.6} {} {median_b:.6} {:.6} {:+.2}% {verdict}",
            values_a.len(),
            q3a - q1a,
            values_b.len(),
            q3b - q1b,
            relative * 100.0
        );
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
