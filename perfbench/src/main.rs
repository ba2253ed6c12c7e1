//! The srra benchmark: three seeded workloads with end-to-end metrics, and a
//! traced run with a per-layer table named after the workspace crates.
//!
//! ```text
//! srra-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! srra-perfbench compare <A.jsonl> <B.jsonl>
//! srra-perfbench record-expected <path>
//! ```
//!
//! See `README.md` next to this crate for every metric, why each workload
//! exists and which layer metric should move which end-to-end metric.

mod alloc_count;
mod cluster_mixed_json;
mod compare;
mod explore_cold;
mod layers;
mod metrics;
mod node;
mod points;
mod serve_get_binary;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{json_number, json_string, render_metrics, Outcome, END_TO_END, PER_LAYER, SCHEMA};

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch root for store directories, removed when the run ends.
    pub work: PathBuf,
}

/// A workload: its name, the design space its traced layer table samples,
/// its run, and what else its traced run measures.
struct Workload {
    name: &'static str,
    layer_space: fn(u64) -> srra_explore::DesignSpace,
    run: fn(&Ctx, &mut Outcome),
    traced_extra: Option<fn(&Ctx, &mut Outcome)>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "explore_cold",
        layer_space: explore_cold::layer_space,
        run: explore_cold::run,
        traced_extra: None,
    },
    Workload {
        name: "serve_get_binary",
        layer_space: serve_get_binary::layer_space,
        run: serve_get_binary::run,
        traced_extra: Some(cluster_probe),
    },
    Workload {
        name: "cluster_mixed_json",
        layer_space: cluster_mixed_json::layer_space,
        run: cluster_mixed_json::run,
        traced_extra: None,
    },
];

/// Seconds of the `cluster_mixed_json` session a traced `serve_get_binary`
/// run ends with.
const CLUSTER_PROBE_SECONDS: f64 = 6.0;

/// The counters only a cluster produces, measured by a short traced
/// `cluster_mixed_json` session.  That workload is not in `BENCHMARK.json`
/// (its p99 is unsteady on the measuring machine, see README.md), so a kept
/// workload's traced run carries them; its checks and failures count too.
fn cluster_probe(ctx: &Ctx, out: &mut Outcome) {
    let mut probe = Outcome::default();
    let probe_ctx = Ctx {
        seed: ctx.seed,
        seconds: CLUSTER_PROBE_SECONDS,
        trace: true,
        work: ctx.work.clone(),
    };
    cluster_mixed_json::run(&probe_ctx, &mut probe);
    for name in [
        "cluster.replica_writes_per_explore",
        "cluster.read_repairs",
        "bench.gen_lateness_p99_us",
        "bench.scheduled_latency_p99_us",
    ] {
        if let Some(value) = probe.value(name) {
            out.metric(name, value);
        }
    }
    out.attempted += probe.attempted;
    out.failed += probe.failed;
    for failure in probe.check_failures {
        out.check(false, || failure);
    }
}

const USAGE: &str =
    "usage: srra-perfbench --workload <explore_cold|serve_get_binary|cluster_mixed_json> \
--seed <n> --seconds <s> --trace <0|1>
       srra-perfbench compare <A.jsonl> <B.jsonl>
       srra-perfbench record-expected <path>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("record-expected") => match args.get(1) {
            Some(path) => match std::fs::write(path, points::record_expected()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(err) => {
                    eprintln!("cannot write {path}: {err}");
                    ExitCode::FAILURE
                }
            },
            None => usage("record-expected needs a path"),
        },
        _ => match parse(&args) {
            Ok((workload, ctx)) => run(workload, &ctx),
            Err(err) => usage(&err),
        },
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("{err}\n{USAGE}");
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<(&'static Workload, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace {value} is neither 0 nor 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name,
            std::process::id()
        )),
    };
    Ok((workload, ctx))
}

fn run(workload: &Workload, ctx: &Ctx) -> ExitCode {
    let mut out = Outcome::default();
    if ctx.trace {
        layers::measure(&(workload.layer_space)(ctx.seed), &ctx.work, &mut out);
    }
    (workload.run)(ctx, &mut out);
    if let (true, Some(extra)) = (ctx.trace, workload.traced_extra) {
        extra(ctx, &mut out);
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".bench_work");
    out.metric("peak_rss_mb", util::peak_rss_mb());
    if ctx.trace {
        out.metric(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        // A layer this workload never enters reads 0.
        for &(name, _) in PER_LAYER {
            if out.value(name).is_none() {
                out.metric(name, 0.0);
            }
        }
    }

    for failure in &out.check_failures {
        eprintln!("check failed: {failure}");
    }
    let names: Vec<&'static str> = if ctx.trace {
        PER_LAYER.iter().map(|&(name, _)| name).collect()
    } else {
        END_TO_END.iter().map(|&(name, _)| name).collect()
    };
    println!("{}", report_line(workload.name, ctx, &out));
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
        out.correct(),
        out.attempted,
        out.failed
    );
    render_metrics(&mut line, &out, &names);
    line.push('}');
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The versioned full report: schema, run settings, host fingerprint, every
/// metric measured, sample counts and failed checks.  `compare` reads these.
fn report_line(workload: &str, ctx: &Ctx, out: &Outcome) -> String {
    let mut line = String::from("{\"schema\":");
    json_string(&mut line, SCHEMA);
    line.push_str(",\"workload\":");
    json_string(&mut line, workload);
    line.push_str(&format!(",\"seed\":{},\"seconds\":", ctx.seed));
    json_number(&mut line, ctx.seconds);
    line.push_str(&format!(
        ",\"trace\":{},\"host\":{{\"nproc\":{},\"cpu_model\":",
        ctx.trace,
        util::nproc()
    ));
    json_string(&mut line, &cpu_model());
    line.push_str(",\"rustc\":");
    json_string(&mut line, env!("PERFBENCH_RUSTC"));
    line.push_str(",\"kernel\":");
    json_string(
        &mut line,
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim(),
    );
    line.push_str("},\"metrics\":");
    let mut names: Vec<&'static str> = END_TO_END.iter().map(|&(name, _)| name).collect();
    names.extend(PER_LAYER.iter().map(|&(name, _)| name));
    names.retain(|name| out.value(name).is_some());
    render_metrics(&mut line, out, &names);
    line.push_str(",\"samples\":{");
    for (index, (name, count)) in out.samples.iter().enumerate() {
        if index > 0 {
            line.push(',');
        }
        json_string(&mut line, name);
        line.push_str(&format!(":{count}"));
    }
    line.push_str("},\"check_failures\":[");
    for (index, failure) in out.check_failures.iter().enumerate() {
        if index > 0 {
            line.push(',');
        }
        json_string(&mut line, failure);
    }
    line.push_str("]}");
    line
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            Some(
                line.strip_prefix("model name")?
                    .split_once(':')?
                    .1
                    .trim()
                    .to_owned(),
            )
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
