//! `srra query`: requests against one running server.

use srra_serve::{ClientError, Connection, Request, Response};

use crate::args::{get_canonical, top_flags, Args, Axes, ConnectionFlags};
use crate::render::{render_trace_output, run_top};
use crate::{failed, CliError};

pub(crate) fn cmd_query(args: &[String]) -> Result<String, CliError> {
    let (flags, args) = ConnectionFlags::split(args)?;
    let connect = |addr: &str| -> Result<Connection, CliError> {
        let mut connection = Connection::dial(addr, flags.binary, flags.timeout.flatten())
            .map_err(failed("query"))?;
        connection
            .set_trace(flags.trace.as_deref())
            .map_err(failed("query"))?;
        Ok(connection)
    };
    let (addr, rest) = match &args[..] {
        [flag, addr, rest @ ..] if flag == "--addr" => (addr.as_str(), rest),
        _ => return Err(CliError::with_usage("query needs --addr <host:port>")),
    };
    let request = match rest {
        [op] if op == "pipe" => return cmd_query_pipe(connect(addr)?, std::io::stdin().lock()),
        [op, kernel, algo, budget, opts @ ..] if op == "get" => Request::Get {
            canonical: get_canonical(kernel, algo, budget, opts)?,
        },
        [op, rest @ ..] if op == "explore" => {
            // `--batch` switches to the batched `mexplore` op: same points,
            // one line each way, per-point outcomes instead of all-or-nothing.
            let batch = rest.iter().any(|flag| flag == "--batch");
            let axes: Vec<String> = rest.iter().filter(|f| *f != "--batch").cloned().collect();
            let points = Axes::points(&axes)?;
            if batch {
                Request::MultiExplore { points }
            } else {
                Request::Explore { points }
            }
        }
        [op] if op == "stats" => Request::Stats,
        [op] if op == "shutdown" => Request::Shutdown,
        [op, flags @ ..] if op == "metrics" => {
            // The Prometheus exposition is multi-line text: print it raw
            // rather than wrapped in the single-line JSON reply envelope.
            let prom = match flags {
                [] => false,
                [flag] if flag == "--prom" => true,
                _ => {
                    return Err(CliError(format!(
                        "query metrics takes only --prom, got `{}`",
                        flags.join(" ")
                    )))
                }
            };
            let mut connection = connect(addr)?;
            return if prom {
                connection.metrics_text()
            } else {
                connection.metrics().map(|snapshot| snapshot.render_json())
            }
            .map(|text| text.trim_end().to_owned())
            .map_err(failed("query"));
        }
        [op, id] if op == "trace" => {
            // The waterfall is multi-line text, like the Prometheus path:
            // print it directly instead of the single-line JSON envelope.
            let spans = connect(addr)?.trace_spans(id).map_err(failed("query"))?;
            return Ok(render_trace_output(id, &spans));
        }
        [op, flags @ ..] if op == "series" => {
            let (mut last, mut window_us) = (0, 0);
            let mut flags = Args::new(flags);
            while let Some(flag) = flags.next() {
                match flag {
                    "--last" => last = flags.positive("--last")?,
                    "--window-us" => window_us = flags.positive("--window-us")?,
                    other => return Err(CliError(format!("unknown series flag `{other}`"))),
                }
            }
            if (last == 0) == (window_us == 0) {
                return Err(CliError(
                    "query series needs exactly one of --last <n> or --window-us <n>".into(),
                ));
            }
            Request::Series { last, window_us }
        }
        [op, flags @ ..] if op == "top" => {
            let top = top_flags(flags)?;
            let mut connection = connect(addr)?;
            return run_top(top, |window_us| {
                vec![(addr.to_owned(), connection.series_delta(window_us).ok())]
            });
        }
        _ => {
            return Err(CliError::with_usage(format!(
                "query expects get/explore/stats/metrics/trace/series/top/shutdown/pipe, got `{}`",
                rest.join(" ")
            )))
        }
    };
    // A refused request is an error, as for `metrics` and `trace` above.
    match connect(addr)?
        .roundtrip(&request)
        .map_err(failed("query"))?
    {
        Response::Error { message } => Err(failed("query")(ClientError::Server(message))),
        response => Ok(response.render()),
    }
}

/// Pipelined requests in flight per window of `srra query pipe`, bounded by
/// line count *and* request bytes so a window cannot fill both sockets'
/// buffers while neither side reads (the classic pipelining deadlock);
/// within a window all request lines go out before any reply is read.  The
/// byte bound keeps even reply-heavy windows (an explore line's reply is an
/// order of magnitude larger than its request) well inside default socket
/// buffer sizes.
const PIPE_WINDOW: usize = 256;

/// Request bytes per pipelined window of `srra query pipe`.
const PIPE_WINDOW_BYTES: usize = 8 * 1024;

/// `srra query ... pipe`: reads raw request lines from `input`, validates
/// them, pipelines them over one keep-alive connection in windows of
/// [`PIPE_WINDOW`] (each window fully written *before any of its replies are
/// read*), and returns the reply lines in request order.
///
/// Windows are dispatched *while stdin is still being read*, so a slow or
/// endless producer sees its earlier requests answered and the in-memory
/// request backlog never exceeds one window.  (The reply text itself is
/// accumulated — the CLI contract returns one string — so output stays
/// proportional to the replies.)
fn cmd_query_pipe(
    mut connection: Connection,
    input: impl std::io::BufRead,
) -> Result<String, CliError> {
    let mut window: Vec<Request> = Vec::with_capacity(PIPE_WINDOW);
    let mut out = String::new();
    let mut flush_window = |window: &mut Vec<Request>, out: &mut String| -> Result<(), CliError> {
        if window.is_empty() {
            return Ok(());
        }
        let responses = connection.pipeline(window).map_err(failed("query"))?;
        window.clear();
        for response in &responses {
            if !out.is_empty() {
                out.push('\n');
            }
            response.render_into(out);
        }
        Ok(())
    };
    let mut window_bytes = 0usize;
    for (number, line) in input.lines().enumerate() {
        let line = line.map_err(|err| CliError(format!("query pipe: stdin: {err}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(err) => {
                // Earlier windows already executed server-side: surface their
                // replies before failing rather than discarding served work.
                if !out.is_empty() {
                    println!("{out}");
                }
                return Err(CliError(format!(
                    "query pipe: line {}: {err}{}",
                    number + 1,
                    if out.is_empty() {
                        ""
                    } else {
                        " (replies to the already-dispatched requests are printed above; \
                         the remaining lines were not sent)"
                    }
                )));
            }
        };
        window.push(request);
        window_bytes += line.len();
        if window.len() == PIPE_WINDOW || window_bytes >= PIPE_WINDOW_BYTES {
            flush_window(&mut window, &mut out)?;
            window_bytes = 0;
        }
    }
    if window.is_empty() && out.is_empty() {
        return Err(CliError("query pipe: no request lines on stdin".into()));
    }
    flush_window(&mut window, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use srra_serve::{Connection, Server, ServerConfig};

    use super::cmd_query_pipe;
    use crate::run;
    use crate::tests::args;

    #[test]
    fn serve_and_query_round_trip_over_a_live_socket() {
        let dir = std::env::temp_dir().join(format!("srra-cli-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache");

        // Bind directly (not via `run`) so the test learns the port without
        // scraping stdout, then exercise the `query` command end to end.
        let server = Server::bind(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::ephemeral(cache_dir.clone())
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let query = |rest: &[&str]| {
            let mut full = vec!["query", "--addr", addr.as_str()];
            full.extend_from_slice(rest);
            run(&args(&full))
        };
        let miss = query(&["get", "fir", "cpa", "32"]).unwrap();
        assert_eq!(miss, "{\"ok\":true,\"found\":false}");
        let explored = query(&["explore", "--kernel", "fir", "--algos", "cpa"]).unwrap();
        assert!(explored.contains("\"evaluated\":1"), "{explored}");
        let hit = query(&["get", "fir", "cpa", "32"]).unwrap();
        assert!(hit.contains("\"found\":true"), "{hit}");
        assert!(hit.contains("\"kernel\":\"fir\""), "{hit}");
        let stats = query(&["stats"]).unwrap();
        assert!(stats.contains("\"evaluated\":1"), "{stats}");
        assert_eq!(
            query(&["shutdown"]).unwrap(),
            "{\"ok\":true,\"shutting_down\":true}"
        );
        handle.join().unwrap();

        // Bad query invocations fail client-side with usage hints.
        assert!(run(&args(&["query", "get", "fir", "cpa", "32"])).is_err());
        assert!(query(&["get", "fir", "cpa", "many"]).is_err());
        assert!(query(&["frobnicate"]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_pipe_and_batch_drive_one_keepalive_connection() {
        let dir = std::env::temp_dir().join(format!("srra-cli-pipe-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::ephemeral(dir.join("cache"))
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());

        // `explore --batch` switches to one mexplore line with per-point
        // outcomes.
        let batched = run(&args(&[
            "query", "--addr", &addr, "explore", "--kernel", "fir", "--algos", "cpa", "--batch",
        ]))
        .unwrap();
        assert!(
            batched.contains("\"outcomes\":[{\"hit\":false"),
            "{batched}"
        );

        // `pipe`: several ops pipelined over ONE connection, replies in
        // request order, one line each.
        let input = concat!(
            "{\"op\":\"explore\",\"points\":[{\"kernel\":\"fir\",\"algo\":\"cpa\",\"budget\":32}]}\n",
            "\n",
            "{\"op\":\"mget\",\"canonicals\":[\"kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560\",\"nope\"]}\n",
            "{\"op\":\"stats\"}\n",
        );
        let out = cmd_query_pipe(
            Connection::dial(&addr, false, None).unwrap(),
            input.as_bytes(),
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].starts_with("{\"ok\":true,\"records\":["), "{out}");
        assert!(
            lines[1].starts_with("{\"ok\":true,\"got\":[{") && lines[1].ends_with(",null]}"),
            "{out}"
        );
        assert!(lines[2].contains("\"ops\":{"), "{out}");

        // The same pipe over the binary codec: stdin stays JSON lines, only
        // the wire format changes, and the data-bearing replies (not the
        // stats line, whose latency digests move between runs) come back
        // byte-identical to the JSON-codec run.
        let binary_out = cmd_query_pipe(
            Connection::dial(&addr, true, None).unwrap(),
            input.as_bytes(),
        )
        .unwrap();
        let binary_lines: Vec<&str> = binary_out.lines().collect();
        assert_eq!(binary_lines.len(), 3, "{binary_out}");
        assert_eq!(binary_lines[..2], lines[..2], "{binary_out}");
        assert!(binary_lines[2].contains("\"ops\":{"), "{binary_out}");

        // `--binary get` speaks the binary codec and prints the same JSON.
        let hit = run(&args(&[
            "query", "--addr", &addr, "--binary", "get", "fir", "cpa", "32",
        ]))
        .unwrap();
        assert!(hit.contains("\"found\":true"), "{hit}");
        assert!(hit.contains("\"kernel\":\"fir\""), "{hit}");

        // Malformed or empty stdin fails client-side, before any bytes move.
        assert!(cmd_query_pipe(
            Connection::dial(&addr, false, None).unwrap(),
            "not json\n".as_bytes()
        )
        .is_err());
        assert!(
            cmd_query_pipe(Connection::dial(&addr, false, None).unwrap(), "".as_bytes()).is_err()
        );

        let down = run(&args(&["query", "--addr", &addr, "shutdown"])).unwrap();
        assert!(down.contains("shutting_down"));
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_trace_records_and_prints_span_waterfalls() {
        let dir = std::env::temp_dir().join(format!("srra-cli-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::ephemeral(dir.join("cache"))
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let query = |rest: &[&str]| {
            let mut full = vec!["query", "--addr", addr.as_str()];
            full.extend_from_slice(rest);
            run(&args(&full))
        };

        // A traced cold explore leaves a span tree in the flight recorder;
        // `trace <id>` prints it as a waterfall with the engine stages as
        // children of the root request span.
        let explored = query(&[
            "--trace", "cli.q.t1", "explore", "--kernel", "fir", "--algos", "cpa",
        ])
        .unwrap();
        assert!(explored.contains("\"evaluated\":1"), "{explored}");
        let waterfall = query(&["trace", "cli.q.t1"]).unwrap();
        assert!(waterfall.starts_with("trace cli.q.t1:"), "{waterfall}");
        assert!(waterfall.contains("\nexplore +0us "), "{waterfall}");
        assert!(waterfall.contains("codec=json"), "{waterfall}");
        assert!(waterfall.contains("  engine.allocation +"), "{waterfall}");
        assert!(waterfall.contains("  render +"), "{waterfall}");

        // An unknown id answers cleanly, and a malformed one fails
        // client-side before any bytes move.
        assert_eq!(
            query(&["trace", "nope"]).unwrap(),
            "trace nope: no spans retained"
        );
        assert!(query(&["--trace", "bad id", "stats"]).is_err());

        query(&["shutdown"]).unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn series_and_top_render_the_sampled_time_dimension() {
        let dir = std::env::temp_dir().join(format!("srra-cli-top-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A malformed SLO rule is rejected at bind time, before serving.
        let bad = run(&args(&[
            "serve",
            "--cache-dir",
            dir.join("bad").to_str().unwrap(),
            "--sample-interval-ms",
            "10",
            "--slo",
            "nonsense",
        ]));
        assert!(bad.is_err(), "{bad:?}");

        // Two sampled nodes; node traffic below arms the deliberately
        // impossible latency SLO, so `top` shows a breach.
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for index in 0..2 {
            let server = Server::bind(&ServerConfig {
                shards: 2,
                workers: 2,
                sample_interval_ms: 10,
                slos: vec!["serve_op_explore_latency_us p99 < 1us over 30s".to_owned()],
                ..ServerConfig::ephemeral(dir.join(format!("node-{index}")))
            })
            .unwrap();
            addrs.push(server.local_addr().to_string());
            handles.push(std::thread::spawn(move || server.run().unwrap()));
        }
        let query = |addr: &str, rest: &[&str]| {
            let mut full = vec!["query", "--addr", addr];
            full.extend_from_slice(rest);
            run(&args(&full))
        };
        // The SLO reads the delta between two samples, so the explore must
        // land after the sampler's first tick, and the breach shows only
        // once a later tick has evaluated it.  Wait for both, bounded: a
        // busy machine can take far longer than a few 10 ms ticks.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let wait_for = |what: &[&str], shows: &str| {
            while std::time::Instant::now() < deadline
                && !query(&addrs[0], what).unwrap().contains(shows)
            {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };
        wait_for(&["series", "--last", "1"], "\"at_us\":");
        let explored = query(&addrs[0], &["explore", "--kernel", "fir", "--algos", "cpa"]).unwrap();
        assert!(explored.contains("\"evaluated\":1"), "{explored}");
        wait_for(&["top", "--once"], "BREACH:1");

        // Raw sample mode: at least two timestamped snapshots by now.
        let series = query(&addrs[0], &["series", "--last", "16"]).unwrap();
        assert!(series.contains("\"series\":["), "{series}");
        assert!(series.matches("\"at_us\":").count() >= 2, "{series}");

        // Raw window mode: the delta envelope with the window bounds.
        let delta = query(&addrs[0], &["series", "--window-us", "30000000"]).unwrap();
        assert!(delta.contains("\"delta\":{"), "{delta}");
        assert!(delta.contains("\"from_us\":"), "{delta}");

        // Exactly one of --last / --window-us, and only known flags.
        assert!(query(&addrs[0], &["series"]).is_err());
        assert!(query(&addrs[0], &["series", "--last", "4", "--window-us", "1000"]).is_err());
        assert!(query(&addrs[0], &["series", "--last", "0"]).is_err());
        assert!(query(&addrs[0], &["top", "--frobnicate"]).is_err());

        // Single-node dashboard frame: header, the node row, the breach.
        let frame = query(&addrs[0], &["top", "--once"]).unwrap();
        assert!(frame.contains("NODE"), "{frame}");
        assert!(frame.contains(&addrs[0]), "{frame}");
        assert!(frame.contains(" up "), "{frame}");
        assert!(frame.contains("BREACH:1"), "{frame}");

        // Fleet dashboard: both node rows plus the merged fleet row; the
        // idle node is up but SLO-clean, so the fleet inherits one breach.
        let nodes = addrs.join(",");
        let top = run(&args(&["cluster", "--nodes", &nodes, "top", "--once"])).unwrap();
        for addr in &addrs {
            assert!(top.contains(addr.as_str()), "{top}");
        }
        assert!(top.contains("fleet (2/2 up)"), "{top}");
        assert!(top.contains("BREACH:1"), "{top}");

        for addr in &addrs {
            query(addr, &["shutdown"]).unwrap();
        }
        for handle in handles {
            handle.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
