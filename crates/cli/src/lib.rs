//! Command-line front end for the `srra` workspace.
//!
//! The `srra` binary exposes the analysis and reproduction pipeline, the
//! design-space sweep and the serving and cluster clients without writing any
//! Rust code; [`usage`] lists every command and flag.
//!
//! The argument handling lives in this library crate (so it is unit-testable);
//! the `main` binary only forwards `std::env::args` and prints the result.
//! Every command reads its flags through one argument cursor and lives in its
//! own module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod cluster;
mod explore;
mod local;
mod query;
mod render;
mod serve;

use srra_bench::{figure2, render_figure2, render_table1, table1};
use srra_core::AllocatorRegistry;

/// Usage text printed for `srra help` and on argument errors.
///
/// The algorithm lists are generated from the [`AllocatorRegistry`], so a new
/// registered strategy shows up here without touching the CLI.
pub fn usage() -> &'static str {
    static USAGE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    USAGE.get_or_init(|| {
        let algos = AllocatorRegistry::global()
            .names()
            .collect::<Vec<_>>()
            .join(" | ");
        format!(
            "usage: srra <command> [args]
  kernels                        list built-in kernels
  analyze  <kernel>              print the data-reuse analysis
  allocate <kernel> <algo> <N>   allocate N registers (algo: {algos})
  dot      <kernel>              print the DFG + critical graph in Graphviz format
  figure2                        reproduce the paper's Figure 2(c)
  table1                         reproduce the paper's Table 1
  explore [options]              parallel design-space sweep with Pareto output
    --kernel  <k[,k...]|all>     kernels to sweep (default: all six paper kernels)
    --algos   <a[,a...]>         algorithms (default: fr,pr,cpa; available: {algos})
    --budgets <n[,n...]>         register budgets (default: 32)
    --latencies <n[,n...]>       RAM latencies in cycles (default: 2)
    --devices <d[,d...]>         xcv1000 and/or xcv300 (default: xcv1000)
    --jobs    <n>                worker threads (default: all CPUs)
    --cache   <path>             persistent single-file segment result cache
    --cache-dir <dir>            persistent *sharded* segment result cache
    --shards  <n>                shard count for --cache-dir (default 4)
    --csv                        emit every design point as CSV instead of tables
    --stats-json <path>          write cache statistics as JSON to a file
    (cache statistics go to stderr so stdout is identical across cached re-runs)
  migrate <file.jsonl>... (--cache <path> | --cache-dir <dir> [--shards <n>])
                                 copy JSON-lines caches of earlier versions into
                                 a segment cache; the source files are only read
  serve [options]                sharded result store + TCP query server
    --cache-dir <dir>            shard directory (required)
    --addr    <host:port>        bind address (default 127.0.0.1:0 = ephemeral port)
    --shards  <n>                shard files (default 4)
    --workers <n>                serving threads (default: all CPUs)
    --slow-query-us <n>          log requests slower than n µs to stderr (default: off)
    --report-interval <secs>     periodic stats report to stderr (default: off)
    --idle-timeout-secs <n>      reap client connections idle for n secs
                                 (default: off; counted by serve_idle_reaped_total)
    --sample-interval-ms <n>     metrics sampler: push one timestamped telemetry
                                 snapshot every n ms into the ring the `series`
                                 op answers from (default: off)
    --slo <rule>                 SLO rule evaluated every sampler tick; repeatable;
                                 e.g. 'serve_op_get_latency_us p99 < 500us over 60s'
                                 or 'serve_misses_total / serve_requests_total < 1%
                                 over 60s' (breaches count obs_slo_breaches_total)
  query --addr <host:port> [--binary] [--timeout-ms <n>] <op>
                                 queries against a running server; prints
                                 the raw JSON response line(s) (see docs/serving.md)
    --binary                     speak the length-prefixed binary wire codec
                                 instead of JSON lines (same output; the server
                                 auto-detects the codec per frame)
    --trace <id>                 stamp every request with a trace id: the server
                                 records a span tree for it, readable afterwards
                                 via `trace <id>` (see docs/observability.md)
    --timeout-ms <n>             I/O deadline on the dial and every read/write
                                 (default: none; 0 also means none)
    get <kernel> <algo> <N> [--latency <n>] [--device <d>]
    explore [axis flags as for explore]     (--batch uses one mexplore line)
    stats | shutdown
    metrics [--prom]             full telemetry snapshot (JSON, or Prometheus
                                 text exposition with --prom; see docs/observability.md)
    trace <id>                   span waterfall the server's flight recorder
                                 retains for a trace id
    series (--last <n> | --window-us <n>)
                                 raw time-series op: the last n sampler snapshots,
                                 or the counter/histogram delta over a trailing
                                 window (needs --sample-interval-ms on the server)
    top [--interval-ms <n>] [--once]
                                 refreshing req/s + hit% + p50/p99 dashboard over
                                 the `series` op (default interval 2000 ms;
                                 --once prints a single frame for scripts)
    pipe                         read raw request lines from stdin, pipeline
                                 them over ONE keep-alive connection, print
                                 the reply lines in request order
  cluster --nodes <a:p,b:p,...> [--replicas <R>] [--vnodes <V>] [--binary] <op>
                                 consistent-hash routed queries over several
                                 serve nodes (see docs/cluster.md); --binary
                                 uses the binary codec on every node connection
    get <kernel> <algo> <N> [--latency <n>] [--device <d>]
    mget [axis flags as for explore]        routed batched lookups
    explore [axis flags as for explore]     routed batched explore (+tee to
                                            replicas when --replicas > 1)
    stats                        one JSON line per node plus a totals line
    ping                         probe every node's liveness
    metrics                      scrape every node, print the merged telemetry
    trace <id>                   scrape every node's flight recorder, print the
                                 merged cluster-wide span waterfall
    repair                       anti-entropy pass: compare per-node digests and
                                 copy records to the replica owners lacking them
    rebalance --to <a:p,...>     move every record to its owners under a new
                                 node list (client-side add/remove of nodes)
    top [--interval-ms <n>] [--once]
                                 fleet dashboard over the `series` op: per-node
                                 and fleet-merged req/s, hit%, p50/p99, open
                                 connections, up/down and SLO state
    --trace <id>                 stamp every routed request with one trace id
                                 across all per-node sub-batches
    --timeout-ms <n>             per-node I/O deadline in ms (default 2000;
                                 0 disables — a hung node then blocks forever)
  help                           show this text"
        )
    })
}

/// Errors reported to the user as text plus a non-zero exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// An error whose message is followed by the usage text.
    fn with_usage(message: impl std::fmt::Display) -> Self {
        Self(format!("{message}\n{}", usage()))
    }
}

/// Maps a failure of `command`'s work to the error `{command}: {err}`.
fn failed<E: std::fmt::Display>(command: &'static str) -> impl Fn(E) -> CliError {
    move |err| CliError(format!("{command}: {err}"))
}

/// Runs one CLI invocation and returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message for unknown commands, unknown
/// kernels/algorithms or malformed numbers.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args {
        [] => Ok(usage().to_owned()),
        [cmd] if cmd == "help" || cmd == "--help" || cmd == "-h" => Ok(usage().to_owned()),
        [cmd] if cmd == "kernels" => Ok(local::cmd_kernels()),
        [cmd] if cmd == "figure2" => Ok(render_figure2(&figure2())),
        [cmd] if cmd == "table1" => Ok(render_table1(&table1())),
        [cmd, kernel] if cmd == "analyze" => local::cmd_analyze(kernel),
        [cmd, kernel] if cmd == "dot" => local::cmd_dot(kernel),
        [cmd, kernel, algo, budget] if cmd == "allocate" => {
            local::cmd_allocate(kernel, algo, budget)
        }
        [cmd, rest @ ..] if cmd == "explore" => explore::cmd_explore(rest),
        [cmd, rest @ ..] if cmd == "migrate" => explore::cmd_migrate(rest),
        [cmd, rest @ ..] if cmd == "serve" => serve::cmd_serve(rest),
        [cmd, rest @ ..] if cmd == "query" => query::cmd_query(rest),
        [cmd, rest @ ..] if cmd == "cluster" => cluster::cmd_cluster(rest),
        _ => Err(CliError::with_usage(format!(
            "unrecognised arguments: {}",
            args.join(" ")
        ))),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn help_and_empty_invocations_print_usage() {
        assert_eq!(run(&args(&[])).unwrap(), usage());
        assert_eq!(run(&args(&["help"])).unwrap(), usage());
        assert_eq!(run(&args(&["--help"])).unwrap(), usage());
    }

    #[test]
    fn usage_keeps_its_indentation() {
        // Commands sit two columns in, their sub-flags four.
        assert!(usage().contains("\n  kernels "));
        assert!(usage().contains("\n    --kernel  "));
        assert!(usage().contains("\n  help "));
    }

    #[test]
    fn usage_lists_every_registered_algorithm() {
        // The algo lists are generated from the registry: a strategy that only
        // exists as a registry entry (greedy) still shows up.
        for name in AllocatorRegistry::global().names() {
            assert!(usage().contains(name), "usage misses {name}");
        }
        assert!(usage().contains("greedy"));
        assert!(usage().contains("--stats-json"));
        assert!(usage().contains("serve"));
        assert!(usage().contains("query"));
        assert!(usage().contains("--cache-dir"));
        assert!(usage().contains("migrate"));
        assert!(
            !usage().contains("JSONL"),
            "every cache flag is a segment cache"
        );
    }
}
