//! `srra cluster`: consistent-hash routed requests over several servers.

use srra_cluster::{ClusterClient, ClusterConfig, NodeStats, Ring};
use srra_explore::render_string;
use srra_serve::Response;

use crate::args::{get_canonical, names, top_flags, Args, Axes, ConnectionFlags};
use crate::render::{render_trace_output, run_top};
use crate::{failed, CliError};

/// One flat JSON line per node, `{"addr":"<node>",<fields>}`, the address
/// escaped (it is whatever the user passed to `--nodes`).
fn node_lines<'a>(nodes: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::new();
    for (addr, fields) in nodes {
        out.push_str("{\"addr\":");
        render_string(&mut out, addr);
        out.push_str(&format!(",{fields}}}\n"));
    }
    out
}

/// Renders one cluster stats node entry as the address and fields of its
/// flat JSON line, greppable by scripts (`ci.sh` asserts every node saw
/// traffic through these lines).
fn render_node_stats_line(node: &NodeStats) -> (&str, String) {
    let mut line = format!("\"up\":{},\"routed\":{}", node.up, node.routed);
    if let Some(stats) = &node.stats {
        line.push_str(&format!(
            ",\"requests\":{},\"hits\":{},\"misses\":{},\"evaluated\":{},\"records\":{}",
            stats.requests,
            stats.hits,
            stats.misses,
            stats.evaluated,
            stats.records()
        ));
    }
    (&node.addr, line)
}

pub(crate) fn cmd_cluster(args: &[String]) -> Result<String, CliError> {
    let (flags, args) = ConnectionFlags::split(args)?;
    // The target flags come before the op.
    let mut nodes = Vec::new();
    let mut replicas = 1;
    let mut vnodes = Ring::DEFAULT_VNODES;
    let mut args = Args::new(&args);
    let rest = loop {
        let rest = args.rest();
        match args.next() {
            Some("--nodes") => nodes = args.names("--nodes")?,
            Some("--replicas") => replicas = args.positive("--replicas")?,
            Some("--vnodes") => vnodes = args.positive("--vnodes")?,
            _ => break rest,
        }
    };
    if nodes.is_empty() {
        return Err(CliError::with_usage("cluster needs --nodes <a:p,b:p,...>"));
    }
    let mut config = ClusterConfig::new(nodes)
        .with_replicas(replicas)
        .with_vnodes(vnodes)
        .with_binary(flags.binary);
    if let Some(timeout) = flags.timeout {
        config = config.with_timeout(timeout);
    }
    let mut cluster = ClusterClient::connect(&config).map_err(failed("cluster"))?;
    cluster
        .set_trace(flags.trace.as_deref())
        .map_err(failed("cluster"))?;
    match rest {
        [op, kernel, algo, budget, opts @ ..] if op == "get" => {
            let canonical = get_canonical(kernel, algo, budget, opts)?;
            let record = cluster.get(&canonical).map_err(failed("cluster"))?;
            Ok(record.map_or_else(|| "null".to_owned(), |record| record.to_json_line()))
        }
        [op, axes @ ..] if op == "mget" => {
            let canonicals = Axes::points(axes)?
                .iter()
                .map(|point| srra_serve::canonical_for(point).map_err(CliError))
                .collect::<Result<Vec<_>, _>>()?;
            let records = cluster.mget(&canonicals).map_err(failed("cluster"))?;
            Ok(Response::MultiGot { records }.render())
        }
        [op, axes @ ..] if op == "explore" => {
            let points = Axes::points(axes)?;
            let reply = cluster.explore(&points).map_err(failed("cluster"))?;
            // Routing/replication summary to stderr, the outcomes to stdout —
            // stdout stays byte-identical between a cold and a warm run.
            eprintln!(
                "cluster explore: {} points over {} nodes, {} hits, {} evaluated, {} replicated",
                reply.outcomes.len(),
                cluster.ring().len(),
                reply.hits,
                reply.evaluated,
                reply.replicated
            );
            Ok(Response::MultiExplored {
                outcomes: reply.outcomes,
                hits: reply.hits,
                evaluated: reply.evaluated,
            }
            .render())
        }
        [op] if op == "stats" => {
            let stats = cluster.stats();
            let mut out = node_lines(stats.nodes.iter().map(render_node_stats_line));
            out.push_str(&format!(
                "{{\"nodes_up\":{},\"replicas\":{},\"total_requests\":{},\"total_evaluated\":{},\"total_records\":{}}}",
                stats.nodes_up(),
                stats.replicas,
                stats.total_requests(),
                stats.total_evaluated(),
                stats.total_records()
            ));
            Ok(out)
        }
        [op] if op == "ping" => {
            let pings = cluster.ping_all();
            let lines = pings.iter().map(|(addr, up)| (addr.as_str(), format!("\"up\":{up}")));
            Ok(node_lines(lines).trim_end().to_owned())
        }
        [op] if op == "metrics" => {
            let metrics = cluster.metrics();
            let mut out = node_lines(metrics.nodes.iter().map(|(addr, snapshot)| {
                (addr.as_str(), format!("\"scraped\":{}", snapshot.is_some()))
            }));
            // One merged line: every reachable node's telemetry plus this
            // process's own client_*/cluster_* instruments.
            let mut combined = metrics.aggregate.clone();
            combined.merge(&metrics.client);
            out.push_str(&combined.render_json());
            Ok(out)
        }
        [op, id] if op == "trace" => {
            let scraped = cluster.trace(id);
            let mut out = node_lines(scraped.nodes.iter().map(|(addr, spans)| {
                let count = spans.as_ref().map_or(0, Vec::len);
                (addr.as_str(), format!("\"scraped\":{},\"spans\":{count}", spans.is_some()))
            }));
            out.push_str(&render_trace_output(id, &scraped.merged));
            Ok(out)
        }
        [op] if op == "repair" => {
            let report = cluster.repair().map_err(failed("cluster"))?;
            Ok(format!(
                "{{\"digests_equal\":{},\"records_seen\":{},\"records_copied\":{}}}",
                report.digests_equal, report.records_seen, report.records_copied
            ))
        }
        [op, to_flag, list] if op == "rebalance" && to_flag == "--to" => {
            let report = cluster.rebalance(&names(list)).map_err(failed("cluster"))?;
            Ok(format!(
                "{{\"records_walked\":{},\"records_stored\":{}}}",
                report.records_walked, report.records_stored
            ))
        }
        [op, flags @ ..] if op == "top" => {
            run_top(top_flags(flags)?, |window_us| cluster.series_delta(window_us))
        }
        _ => Err(CliError::with_usage(format!(
            "cluster expects get/mget/explore/stats/ping/metrics/trace/repair/rebalance --to/top, got `{}`",
            rest.join(" ")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use srra_explore::JsonValue;
    use srra_serve::{Server, ServerConfig};

    use crate::run;
    use crate::tests::args;

    #[test]
    fn node_lines_are_valid_json_for_an_address_that_needs_escaping() {
        let dir = std::env::temp_dir().join(format!("srra-cli-escape-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::ephemeral(dir.join("node"))
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());
        // One live node plus one the user spelled with a quote in it.
        let nodes = format!("{addr},bad\"node:1");
        for op in ["ping", "stats", "metrics"] {
            let out = run(&args(&["cluster", "--nodes", &nodes, op])).unwrap();
            for line in out.lines() {
                assert!(JsonValue::parse(line).is_ok(), "{op}: {line}");
            }
            assert!(out.contains(r#"{"addr":"bad\"node:1""#), "{op}: {out}");
        }
        run(&args(&["query", "--addr", &addr, "shutdown"])).unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cluster_routes_queries_over_two_nodes() {
        let dir =
            std::env::temp_dir().join(format!("srra-cli-cluster-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for index in 0..2 {
            let server = Server::bind(&ServerConfig {
                shards: 2,
                workers: 2,
                ..ServerConfig::ephemeral(dir.join(format!("node-{index}")))
            })
            .unwrap();
            addrs.push(server.local_addr().to_string());
            handles.push(std::thread::spawn(move || server.run().unwrap()));
        }
        let nodes = addrs.join(",");
        let cluster = |rest: &[&str]| {
            let mut full = vec!["cluster", "--nodes", nodes.as_str(), "--replicas", "2"];
            full.extend_from_slice(rest);
            run(&args(&full))
        };

        let ping = cluster(&["ping"]).unwrap();
        assert_eq!(ping.matches("\"up\":true").count(), 2, "{ping}");

        // 36 points: even at the worst tested balance bound (a 2/3 key
        // share) the chance of one node owning all of them is < 1e-6, so
        // the per-node traffic assertions below cannot realistically flake.
        let axes = [
            "--kernel",
            "fir,mat,pat",
            "--algos",
            "fr,pr,cpa",
            "--budgets",
            "8,16,32,64",
        ];
        let explored = cluster(&[&["explore"], &axes[..]].concat()).unwrap();
        assert!(explored.contains("\"outcomes\":["), "{explored}");
        assert!(explored.contains("\"evaluated\":36"), "{explored}");

        // Warm mget: every record answered, none null.
        let got = cluster(&[&["mget"], &axes[..]].concat()).unwrap();
        assert!(got.starts_with("{\"ok\":true,\"got\":["), "{got}");
        assert!(!got.contains("null"), "{got}");

        // The same warm mget over the binary codec routes identically and
        // prints byte-identical output.
        let binary_got = cluster(&[&["--binary", "mget"], &axes[..]].concat()).unwrap();
        assert_eq!(binary_got, got);

        // Single get against a replicated record.
        let hit = cluster(&["get", "fir", "cpa", "8"]).unwrap();
        assert!(hit.contains("\"kernel\":\"fir\""), "{hit}");
        let miss = cluster(&["get", "fir", "cpa", "127"]).unwrap();
        assert_eq!(miss, "null");

        // Stats: one line per node plus the totals line; both nodes saw
        // evaluations (the ring split the grid) and replication doubled the
        // stored records.
        let stats = cluster(&["stats"]).unwrap();
        let lines: Vec<&str> = stats.lines().collect();
        assert_eq!(lines.len(), 3, "{stats}");
        for line in &lines[..2] {
            assert!(line.contains("\"up\":true"), "{stats}");
            assert!(!line.contains("\"evaluated\":0,"), "{stats}");
        }
        assert!(lines[2].contains("\"nodes_up\":2"), "{stats}");
        assert!(lines[2].contains("\"total_evaluated\":36"), "{stats}");
        assert!(lines[2].contains("\"total_records\":72"), "{stats}");

        // A traced explore stamps one id across every node's sub-batch;
        // `cluster trace` scrapes both flight recorders and merges the spans
        // into one cluster-wide waterfall.
        let traced = cluster(&[
            "--trace",
            "cli.c.t1",
            "explore",
            "--kernel",
            "imi",
            "--algos",
            "cpa",
            "--budgets",
            "8,16,32,64",
        ])
        .unwrap();
        assert!(traced.contains("\"outcomes\":["), "{traced}");
        let waterfall = cluster(&["trace", "cli.c.t1"]).unwrap();
        assert_eq!(
            waterfall.matches("\"scraped\":true").count(),
            2,
            "{waterfall}"
        );
        assert!(waterfall.contains("trace cli.c.t1:"), "{waterfall}");
        assert!(waterfall.contains("mexplore +"), "{waterfall}");
        assert!(waterfall.contains("  engine.allocation +"), "{waterfall}");

        // Config errors fail before any traffic.
        assert!(run(&args(&["cluster", "stats"])).is_err(), "needs --nodes");
        assert!(cluster(&["frobnicate"]).is_err());
        assert!(run(&args(&[
            "cluster",
            "--nodes",
            nodes.as_str(),
            "--replicas",
            "3",
            "stats"
        ]))
        .is_err());

        for addr in &addrs {
            run(&args(&["query", "--addr", addr, "shutdown"])).unwrap();
        }
        for handle in handles {
            handle.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
