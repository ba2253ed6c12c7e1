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
            "usage: srra <command> [args]\n\
  kernels                        list built-in kernels\n\
  analyze  <kernel>              print the data-reuse analysis\n\
  allocate <kernel> <algo> <N>   allocate N registers (algo: {algos})\n\
  dot      <kernel>              print the DFG + critical graph in Graphviz format\n\
  figure2                        reproduce the paper's Figure 2(c)\n\
  table1                         reproduce the paper's Table 1\n\
  explore [options]              parallel design-space sweep with Pareto output\n\
    --kernel  <k[,k...]|all>     kernels to sweep (default: all six paper kernels)\n\
    --algos   <a[,a...]>         algorithms (default: fr,pr,cpa; available: {algos})\n\
    --budgets <n[,n...]>         register budgets (default: 32)\n\
    --latencies <n[,n...]>       RAM latencies in cycles (default: 2)\n\
    --devices <d[,d...]>         xcv1000 and/or xcv300 (default: xcv1000)\n\
    --jobs    <n>                worker threads (default: all CPUs)\n\
    --cache   <path>             persistent single-file segment result cache\n\
    --cache-dir <dir>            persistent *sharded* segment result cache\n\
    --shards  <n>                shard count for --cache-dir (default 4)\n\
    --csv                        emit every design point as CSV instead of tables\n\
    --stats-json <path>          write cache statistics as JSON to a file\n\
    (cache statistics go to stderr so stdout is identical across cached re-runs)\n\
  migrate <file.jsonl>... (--cache <path> | --cache-dir <dir> [--shards <n>])\n\
                                 copy JSON-lines caches of earlier versions into\n\
                                 a segment cache; the source files are only read\n\
  serve [options]                sharded result store + TCP query server\n\
    --cache-dir <dir>            shard directory (required)\n\
    --addr    <host:port>        bind address (default 127.0.0.1:0 = ephemeral port)\n\
    --shards  <n>                shard files (default 4)\n\
    --workers <n>                serving threads (default: all CPUs)\n\
    --slow-query-us <n>          log requests slower than n µs to stderr (default: off)\n\
    --report-interval <secs>     periodic stats report to stderr (default: off)\n\
    --idle-timeout-secs <n>      reap client connections idle for n secs\n\
                                 (default: off; counted by serve_idle_reaped_total)\n\
    --sample-interval-ms <n>     metrics sampler: push one timestamped telemetry\n\
                                 snapshot every n ms into the ring the `series`\n\
                                 op answers from (default: off)\n\
    --slo <rule>                 SLO rule evaluated every sampler tick; repeatable;\n\
                                 e.g. 'serve_op_get_latency_us p99 < 500us over 60s'\n\
                                 or 'serve_misses_total / serve_requests_total < 1%\n\
                                 over 60s' (breaches count obs_slo_breaches_total)\n\
  query --addr <host:port> [--binary] [--timeout-ms <n>] <op>\n\
                                 queries against a running server; prints\n\
                                 the raw JSON response line(s) (see docs/serving.md)\n\
    --binary                     speak the length-prefixed binary wire codec\n\
                                 instead of JSON lines (same output; the server\n\
                                 auto-detects the codec per frame)\n\
    --trace <id>                 stamp every request with a trace id: the server\n\
                                 records a span tree for it, readable afterwards\n\
                                 via `trace <id>` (see docs/observability.md)\n\
    --timeout-ms <n>             I/O deadline on the dial and every read/write\n\
                                 (default: none; 0 also means none)\n\
    get <kernel> <algo> <N> [--latency <n>] [--device <d>]\n\
    explore [axis flags as for explore]     (--batch uses one mexplore line)\n\
    stats | shutdown\n\
    metrics [--prom]             full telemetry snapshot (JSON, or Prometheus\n\
                                 text exposition with --prom; see docs/observability.md)\n\
    trace <id>                   span waterfall the server's flight recorder\n\
                                 retains for a trace id\n\
    series (--last <n> | --window-us <n>)\n\
                                 raw time-series op: the last n sampler snapshots,\n\
                                 or the counter/histogram delta over a trailing\n\
                                 window (needs --sample-interval-ms on the server)\n\
    top [--interval-ms <n>] [--once]\n\
                                 refreshing req/s + hit% + p50/p99 dashboard over\n\
                                 the `series` op (default interval 2000 ms;\n\
                                 --once prints a single frame for scripts)\n\
    pipe                         read raw request lines from stdin, pipeline\n\
                                 them over ONE keep-alive connection, print\n\
                                 the reply lines in request order\n\
  cluster --nodes <a:p,b:p,...> [--replicas <R>] [--vnodes <V>] [--binary] <op>\n\
                                 consistent-hash routed queries over several\n\
                                 serve nodes (see docs/cluster.md); --binary\n\
                                 uses the binary codec on every node connection\n\
    get <kernel> <algo> <N> [--latency <n>] [--device <d>]\n\
    mget [axis flags as for explore]        routed batched lookups\n\
    explore [axis flags as for explore]     routed batched explore (+tee to\n\
                                            replicas when --replicas > 1)\n\
    stats                        one JSON line per node plus a totals line\n\
    ping                         probe every node's liveness\n\
    metrics                      scrape every node, print the merged telemetry\n\
    trace <id>                   scrape every node's flight recorder, print the\n\
                                 merged cluster-wide span waterfall\n\
    repair                       anti-entropy pass: compare per-node digests and\n\
                                 copy records to the replica owners lacking them\n\
    rebalance --to <a:p,...>     move every record to its owners under a new\n\
                                 node list (client-side add/remove of nodes)\n\
    top [--interval-ms <n>] [--once]\n\
                                 fleet dashboard over the `series` op: per-node\n\
                                 and fleet-merged req/s, hit%, p50/p99, open\n\
                                 connections, up/down and SLO state\n\
    --trace <id>                 stamp every routed request with one trace id\n\
                                 across all per-node sub-batches\n\
    --timeout-ms <n>             per-node I/O deadline in ms (default 2000;\n\
                                 0 disables — a hung node then blocks forever)\n\
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
