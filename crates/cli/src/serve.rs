//! `srra serve`: the sharded result store behind a TCP query server.

use srra_serve::{Server, ServerConfig};

use crate::args::Args;
use crate::{failed, CliError};

pub(crate) fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let mut config = ServerConfig {
        workers: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        ..ServerConfig::ephemeral("")
    };
    let mut cache_dir = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag {
            "--addr" => config.addr = args.value("--addr")?.to_owned(),
            "--cache-dir" => cache_dir = Some(args.value("--cache-dir")?),
            "--shards" => config.shards = args.positive("--shards")?,
            "--workers" => config.workers = args.positive("--workers")?,
            "--slow-query-us" => config.slow_query_us = args.number("--slow-query-us")?,
            "--report-interval" => {
                config.report_interval_secs = args.number("--report-interval")?;
            }
            "--idle-timeout-secs" => {
                config.idle_timeout_secs = args.number("--idle-timeout-secs")?;
            }
            "--sample-interval-ms" => {
                config.sample_interval_ms = args.number("--sample-interval-ms")?;
            }
            "--slo" => config.slos.push(args.value("--slo")?.to_owned()),
            other => {
                return Err(CliError::with_usage(format!(
                    "unknown serve flag `{other}`"
                )))
            }
        }
    }
    let cache_dir = cache_dir.ok_or_else(|| CliError("serve needs --cache-dir".into()))?;
    config.cache_dir = cache_dir.into();
    let server = Server::bind(&config).map_err(failed("serve"))?;
    // Announce the bound address immediately (the config may have asked for
    // an ephemeral port); scripts and ci.sh scrape this line.
    println!(
        "srra-serve listening on {} ({} shards under {cache_dir}, {} workers)",
        server.local_addr(),
        config.shards,
        config.workers
    );
    let stats = server.run().map_err(failed("serve"))?.stats;
    Ok(format!(
        "srra-serve stopped after {} connections, {} requests ({} hits, {} misses, {} evaluated; {} records across {} shards)",
        stats.connections,
        stats.requests,
        stats.hits,
        stats.misses,
        stats.evaluated,
        stats.records(),
        stats.shard_records.len()
    ))
}

#[cfg(test)]
mod tests {
    use crate::run;
    use crate::tests::args;

    #[test]
    fn serve_rejects_missing_or_malformed_flags() {
        assert!(run(&args(&["serve"])).is_err(), "serve needs --cache-dir");
        assert!(run(&args(&["serve", "--cache-dir"])).is_err());
        assert!(run(&args(&["serve", "--cache-dir", "/tmp/x", "--shards", "0"])).is_err());
        assert!(run(&args(&["serve", "--cache-dir", "/tmp/x", "--frobnicate"])).is_err());
    }
}
