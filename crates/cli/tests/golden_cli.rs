//! Golden transcripts of the serving commands: stdout, stderr and exit code
//! of the built `srra` binary for every `srra query` and `srra cluster`
//! subcommand and every error path of the argument parsers, run against
//! in-process [`Server`]s.
//!
//! Each fixture under `tests/golden/cli_*.txt` records one sequence of
//! invocations in order; later steps see the state earlier ones left on the
//! servers.  The servers run without a metrics sampler, so `series` and `top`
//! print their deterministic "no samples" forms.  Before comparison only
//! these fields are normalised, everything else must match byte for byte:
//!
//! - the servers' addresses: each prints as `<name>`.  The query node
//!   binds an ephemeral port; the cluster nodes bind fixed loopback
//!   addresses, because ring placement hashes the address and the
//!   per-node lines depend on it;
//! - `uptime_ms` and `uptime_secs` in `stats` replies (wall clock);
//! - latency digests: the `p50_us`, `p99_us`, `buckets` and `exemplars` of
//!   every histogram in JSON replies, and the sample values of the
//!   Prometheus exposition's `_bucket` lines;
//! - the `serve_open_connections` gauge, which races the server's close of
//!   the previous process's connection;
//! - span offsets and durations in trace waterfalls, and with them the
//!   order of sibling spans (siblings are sorted by start time, so two
//!   siblings that start in the same microsecond can swap).
//!
//! All transcripts run inside one test: the servers share this process's
//! global telemetry registry, so a second test running alongside would move
//! the counters they report.
//!
//! On a mismatch the actual transcript is written next to the test's build
//! output (the failure message names the file); re-record a fixture only for
//! a deliberate change of the CLI's output, and say so in the change.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use srra_serve::{Server, ServerConfig};

/// One in-process serve node.
struct Node {
    addr: String,
    handle: JoinHandle<()>,
}

/// Starts a node on `addr`.  A fixed address that is taken is waited for,
/// so two concurrent runs of this test take turns instead of failing; the
/// probe comes before [`Server::bind`] because every bind attempt counts in
/// the telemetry the transcripts print.
fn start_node(dir: &Path, addr: &str) -> Node {
    let deadline = Instant::now() + Duration::from_secs(120);
    let server = loop {
        let bound = std::net::TcpListener::bind(addr)
            .map(drop)
            .map_err(|err| err.to_string())
            .and_then(|()| {
                Server::bind(&ServerConfig {
                    addr: addr.to_owned(),
                    shards: 2,
                    workers: 2,
                    ..ServerConfig::ephemeral(dir)
                })
                .map_err(|err| err.to_string())
            });
        match bound {
            Ok(server) => break server,
            Err(err) => assert!(Instant::now() < deadline, "cannot bind {addr}: {err}"),
        }
        std::thread::sleep(Duration::from_millis(250));
    };
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || {
        server.run().expect("server runs");
    });
    Node { addr, handle }
}

fn stop_node(node: Node) {
    let output = Command::new(env!("CARGO_BIN_EXE_srra"))
        .args(["query", "--addr", &node.addr, "shutdown"])
        .output()
        .expect("srra runs");
    assert!(output.status.success(), "shutdown of {}", node.addr);
    node.handle.join().expect("server thread");
}

/// A transcript under construction: every step's command line, stdin,
/// stdout, stderr and exit code, normalised as the module doc describes.
struct Transcript {
    /// `(address, label)` pairs substituted into every recorded text.
    labels: Vec<(String, String)>,
    text: String,
}

impl Transcript {
    fn new(labels: &[(&str, &str)]) -> Self {
        Self {
            labels: labels
                .iter()
                .map(|(addr, label)| ((*addr).to_owned(), format!("<{label}>")))
                .collect(),
            text: String::new(),
        }
    }

    fn run(&mut self, args: &[&str]) {
        self.run_with_stdin(args, None);
    }

    fn run_with_stdin(&mut self, args: &[&str], stdin: Option<&str>) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_srra"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("srra runs");
        {
            let mut pipe = child.stdin.take().expect("stdin piped");
            if let Some(input) = stdin {
                // A command that fails before reading stdin closes the pipe.
                let _ = pipe.write_all(input.as_bytes());
            }
        }
        let output = child.wait_with_output().expect("srra exits");
        let quoted: Vec<String> = args
            .iter()
            .map(|arg| {
                if arg.is_empty() || arg.contains([' ', '"', '\'']) {
                    format!("'{arg}'")
                } else {
                    (*arg).to_owned()
                }
            })
            .collect();
        let mut step = format!("$ srra {}\n", quoted.join(" "));
        if let Some(input) = stdin {
            step.push_str("[stdin]\n");
            step.push_str(input);
        }
        step.push_str("[stdout]\n");
        step.push_str(&String::from_utf8_lossy(&output.stdout));
        step.push_str("[stderr]\n");
        step.push_str(&String::from_utf8_lossy(&output.stderr));
        step.push_str(&format!(
            "[exit {}]\n\n",
            output.status.code().unwrap_or(-1)
        ));
        self.text.push_str(&self.normalise(&step));
    }

    fn normalise(&self, text: &str) -> String {
        let mut text = text.to_owned();
        for (addr, label) in &self.labels {
            text = text.replace(addr.as_str(), label);
        }
        for key in [
            "uptime_ms",
            "uptime_secs",
            "p50_us",
            "p99_us",
            "serve_open_connections",
        ] {
            text = mask_json_value(&text, &format!("\"{key}\":"), None);
        }
        text = mask_json_value(&text, "\"buckets\":", Some(('[', ']')));
        text = mask_json_value(&text, "\"exemplars\":", Some(('{', '}')));
        let lines: Vec<String> = text.lines().map(mask_exposition_line).collect();
        let mut text = canonical_waterfalls(&lines).join("\n");
        text.push('\n');
        text
    }
}

/// Replaces the value after every `key` (a run of digits, or a bracketed
/// group when `group` names its delimiters) with `<t>`.
fn mask_json_value(text: &str, key: &str, group: Option<(char, char)>) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(key) {
        let value_start = at + key.len();
        out.push_str(&rest[..value_start]);
        let value = &rest[value_start..];
        let len = match group {
            None => value
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(value.len()),
            Some((open, close)) if value.starts_with(open) => {
                value.find(close).map_or(value.len(), |end| end + 1)
            }
            Some(_) => 0,
        };
        if len > 0 {
            out.push_str("<t>");
        }
        rest = &value[len..];
    }
    out.push_str(rest);
    out
}

/// Masks the sample value (and any exemplar) of a Prometheus `_bucket` line
/// and of the open-connections gauge.
fn mask_exposition_line(line: &str) -> String {
    if let Some(end) = line
        .find("_bucket{le=\"")
        .and_then(|at| line[at..].find("} ").map(|end| at + end))
    {
        return format!("{} <t>", &line[..=end]);
    }
    if line.starts_with("serve_open_connections ") {
        return "serve_open_connections <t>".to_owned();
    }
    line.to_owned()
}

/// One waterfall line split into its indent depth and its text with the
/// offset and duration masked, or `None` for any other line.
fn waterfall_line(line: &str) -> Option<(usize, String)> {
    let body = line.trim_start_matches(' ');
    let depth = (line.len() - body.len()) / 2;
    let (name, timing) = body.split_once(" +")?;
    let (offset, after) = timing.split_once("us ")?;
    let (duration, annotations) = after.split_once("us").unwrap_or((after, ""));
    let numeric = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if name.contains(' ') || !numeric(offset) || !numeric(duration) {
        return None;
    }
    Some((depth, format!("{name} +<t>us <t>us{annotations}")))
}

/// Rewrites every span waterfall (the lines after a `trace <id>: N span(s)`
/// headline) with masked timings and siblings in sorted order.
fn canonical_waterfalls(lines: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(lines.len());
    let mut index = 0;
    while index < lines.len() {
        let line = &lines[index];
        out.push(line.clone());
        index += 1;
        if !(line.starts_with("trace ") && line.ends_with(" span(s)")) {
            continue;
        }
        let mut spans = Vec::new();
        while let Some(span) = lines.get(index).and_then(|line| waterfall_line(line)) {
            spans.push(span);
            index += 1;
        }
        let mut cursor = 0;
        for tree in sorted_subtrees(&spans, &mut cursor, 0) {
            out.extend(tree.lines().map(str::to_owned));
        }
    }
    out
}

/// The subtrees at `depth` starting at `spans[*cursor]`, each rendered as
/// indented lines with its own children sorted, in sorted order.
fn sorted_subtrees(spans: &[(usize, String)], cursor: &mut usize, depth: usize) -> Vec<String> {
    let mut trees = Vec::new();
    while let Some((span_depth, text)) = spans.get(*cursor) {
        if *span_depth < depth {
            break;
        }
        *cursor += 1;
        let mut tree = format!("{}{text}\n", "  ".repeat(depth));
        for child in sorted_subtrees(spans, cursor, depth + 1) {
            tree.push_str(&child);
        }
        trees.push(tree);
    }
    trees.sort();
    trees
}

/// Compares `transcript` with its fixture; on a mismatch writes the actual
/// text next to the build output and returns a description.
fn compare(name: &str, transcript: &Transcript) -> Option<String> {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&fixture).unwrap_or_default();
    if expected == transcript.text {
        return None;
    }
    let actual = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&actual, &transcript.text).expect("actual transcript written");
    Some(format!(
        "{} differs; actual transcript in {}",
        fixture.display(),
        actual.display()
    ))
}

/// Builds command lines that share the leading arguments `head`.
fn prefixed<'a>(head: Vec<&'a str>) -> impl Fn(&[&'a str]) -> Vec<&'a str> {
    move |rest| [&head[..], rest].concat()
}

const FIR_CANON: &str = "kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560";

fn query_transcripts(dir: &Path, failures: &mut Vec<String>) {
    let node = start_node(&dir.join("query"), "127.0.0.1:0");
    let addr = node.addr.as_str();
    let mut t = Transcript::new(&[(addr, "addr")]);
    let q = prefixed(vec!["query", "--addr", addr]);
    t.run(&q(&["get", "fir", "cpa", "32"]));
    t.run(&q(&[
        "explore",
        "--kernel",
        "fir",
        "--algos",
        "cpa",
        "--budgets",
        "32",
    ]));
    t.run(&q(&["get", "fir", "cpa", "32"]));
    t.run(&q(&[
        "get",
        "fir",
        "cpa",
        "32",
        "--latency",
        "2",
        "--device",
        "xcv1000",
    ]));
    t.run(&q(&["--binary", "get", "fir", "cpa", "32"]));
    t.run(&q(&["get", "fir", "cpa", "32", "--binary"]));
    t.run(&[
        "query", "--binary", "--addr", addr, "get", "mat", "fr", "16",
    ]);
    t.run(&q(&[
        "explore",
        "--batch",
        "--kernel",
        "fir,mat",
        "--algos",
        "fr,cpa",
        "--budgets",
        "16",
    ]));
    t.run(&q(&[
        "explore",
        "--kernels",
        "imi",
        "--algo",
        "pr",
        "--budgets",
        "8,16",
        "--latencies",
        "1,2",
        "--devices",
        "xcv1000,xcv300",
    ]));
    t.run(&q(&["--timeout-ms", "2000", "stats"]));
    t.run(&q(&["stats", "--timeout-ms", "0"]));
    t.run(&q(&["--trace", "cli.g.t1", "get", "fir", "cpa", "32"]));
    t.run(&q(&["get", "fir", "cpa", "32", "--trace", "cli.g.t2"]));
    t.run(&q(&["trace", "cli.g.t1"]));
    t.run(&q(&["--binary", "trace", "cli.g.t2"]));
    t.run(&q(&["trace", "cli.never.sent"]));
    t.run(&q(&["series", "--last", "4"]));
    t.run(&q(&["series", "--window-us", "30000000"]));
    t.run(&q(&["top", "--once"]));
    t.run(&q(&["top", "--interval-ms", "500", "--once"]));
    let pipe_input = format!(
        "{{\"op\":\"get\",\"canonical\":\"{FIR_CANON}\"}}\n\n\
         {{\"op\":\"mget\",\"canonicals\":[\"{FIR_CANON}\",\"kernel=nope\"]}}\n\
         {{\"op\":\"mexplore\",\"points\":[{{\"kernel\":\"mat\",\"algo\":\"fr\",\"budget\":16}},{{\"kernel\":\"nope\",\"algo\":\"fr\",\"budget\":16}}]}}\n\
         {{\"op\":\"ping\"}}\n"
    );
    t.run_with_stdin(&q(&["pipe"]), Some(&pipe_input));
    t.run_with_stdin(&q(&["--binary", "pipe"]), Some(&pipe_input));
    t.run(&q(&["stats"]));
    t.run(&q(&["metrics"]));
    t.run(&q(&["metrics", "--prom"]));
    failures.extend(compare("cli_query", &t));

    let mut t = Transcript::new(&[(addr, "addr")]);
    let dead = "127.0.0.1:1";
    t.run(&["query"]);
    t.run(&["query", "get", "fir", "cpa", "32"]);
    t.run(&["query", "--addr"]);
    t.run(&["query", "--addr", addr]);
    t.run(&q(&["frobnicate"]));
    t.run(&q(&["stats", "extra"]));
    t.run(&q(&["--trace"]));
    t.run(&q(&["stats", "--trace"]));
    t.run(&q(&["--timeout-ms"]));
    t.run(&q(&["--timeout-ms", "soon", "stats"]));
    t.run(&q(&["--trace", "bad id", "stats"]));
    t.run(&["query", "--addr", dead, "stats"]);
    t.run(&["query", "--addr", dead, "get", "fir", "cpa", "many"]);
    t.run(&["query", "--addr", dead, "get", "fir", "cpa"]);
    t.run(&["query", "--addr", dead, "get", "fir", "cpa", "32", "--frob"]);
    t.run(&[
        "query",
        "--addr",
        dead,
        "get",
        "fir",
        "cpa",
        "32",
        "--latency",
    ]);
    t.run(&[
        "query",
        "--addr",
        dead,
        "get",
        "fir",
        "cpa",
        "32",
        "--latency",
        "x",
    ]);
    t.run(&[
        "query",
        "--addr",
        dead,
        "get",
        "fir",
        "cpa",
        "32",
        "--latency",
        "65537",
    ]);
    t.run(&[
        "query", "--addr", dead, "get", "fir", "cpa", "32", "--device",
    ]);
    t.run(&q(&["get", "fir", "nope", "32"]));
    t.run(&q(&["get", "nope", "cpa", "32"]));
    t.run(&q(&["get", "fir", "cpa", "32", "--device", "xcv9000"]));
    t.run(&["query", "--addr", dead, "explore", "--frob"]);
    t.run(&["query", "--addr", dead, "explore", "--budgets"]);
    t.run(&["query", "--addr", dead, "explore", "--budgets", "8,x"]);
    t.run(&["query", "--addr", dead, "explore", "--latencies", "2,65537"]);
    t.run(&["query", "--addr", dead, "explore", "--algos", ","]);
    t.run(&["query", "--addr", dead, "explore", "--kernel"]);
    t.run(&q(&["explore", "--kernel", "nope", "--algos", "cpa"]));
    t.run(&q(&[
        "explore", "--batch", "--kernel", "nope", "--algos", "cpa",
    ]));
    t.run(&["query", "--addr", dead, "metrics", "--frob"]);
    t.run(&["query", "--addr", dead, "metrics", "--prom", "--prom"]);
    t.run(&["query", "--addr", dead, "trace"]);
    t.run(&["query", "--addr", dead, "series"]);
    t.run(&[
        "query",
        "--addr",
        dead,
        "series",
        "--last",
        "4",
        "--window-us",
        "1000",
    ]);
    t.run(&["query", "--addr", dead, "series", "--last", "0"]);
    t.run(&["query", "--addr", dead, "series", "--last"]);
    t.run(&["query", "--addr", dead, "series", "--window-us", "x"]);
    t.run(&["query", "--addr", dead, "series", "--frob"]);
    t.run(&["query", "--addr", dead, "top", "--frob"]);
    t.run(&["query", "--addr", dead, "top", "--interval-ms", "0"]);
    t.run(&["query", "--addr", dead, "top", "--interval-ms"]);
    t.run_with_stdin(&q(&["pipe"]), Some(""));
    t.run_with_stdin(&q(&["pipe"]), Some("{\"op\":\"ping\"}\nnot json\n"));
    t.run_with_stdin(
        &["query", "--addr", dead, "pipe"],
        Some("{\"op\":\"ping\"}\n"),
    );
    failures.extend(compare("cli_query_errors", &t));

    let mut t = Transcript::new(&[(addr, "addr")]);
    t.run(&q(&["shutdown"]));
    node.handle.join().expect("server thread");
    failures.extend(compare("cli_query_shutdown", &t));
}

fn cluster_transcripts(dir: &Path, failures: &mut Vec<String>) {
    // Ring placement hashes each node's address, so the per-node lines are
    // reproducible only on fixed addresses.  Linux routes all of 127.0.0.0/8
    // to the loopback device, so these need no setup and collide with
    // nothing but another run of this test.
    let a = start_node(&dir.join("node-a"), "127.77.41.1:27841");
    let b = start_node(&dir.join("node-b"), "127.77.41.2:27841");
    let c = start_node(&dir.join("node-c"), "127.77.41.3:27841");
    let labels = [
        (a.addr.as_str(), "node-a"),
        (b.addr.as_str(), "node-b"),
        (c.addr.as_str(), "node-c"),
    ];
    let nodes = format!("{},{}", a.addr, b.addr);
    let grown = format!("{},{},{}", a.addr, b.addr, c.addr);
    let cl = prefixed(vec!["cluster", "--nodes", nodes.as_str()]);
    let axes = [
        "--kernel",
        "fir,mat",
        "--algos",
        "fr,cpa",
        "--budgets",
        "8,16",
    ];

    let mut t = Transcript::new(&labels);
    t.run(&cl(&["ping"]));
    t.run(&cl(&[&["--replicas", "2", "explore"][..], &axes].concat()));
    t.run(&cl(&[&["mget"][..], &axes].concat()));
    t.run(&cl(&[&["--binary", "mget"][..], &axes].concat()));
    t.run(&cl(&[
        &["--replicas", "2", "--vnodes", "16", "mget"][..],
        &axes,
    ]
    .concat()));
    t.run(&cl(&["get", "fir", "cpa", "8"]));
    t.run(&cl(&[
        "--binary",
        "get",
        "mat",
        "fr",
        "16",
        "--latency",
        "2",
    ]));
    t.run(&cl(&["get", "fir", "cpa", "127"]));
    t.run(&cl(&["--timeout-ms", "0", "stats"]));
    t.run(&cl(&["--replicas", "2", "stats"]));
    t.run(&cl(&["--timeout-ms", "2000", "ping"]));
    t.run(&cl(&[
        "--trace",
        "cli.c.t1",
        "explore",
        "--kernel",
        "imi",
        "--algos",
        "cpa",
        "--budgets",
        "8,16,32,64",
    ]));
    t.run(&cl(&["trace", "cli.c.t1"]));
    t.run(&cl(&["trace", "cli.never.sent"]));
    t.run(&cl(&["--replicas", "2", "repair"]));
    t.run(&cl(&["--replicas", "2", "repair"]));
    t.run(&cl(&["rebalance", "--to", &grown]));
    t.run(&["cluster", "--nodes", &grown, "stats"]);
    t.run(&cl(&["top", "--once"]));
    t.run(&[
        "cluster",
        "--nodes",
        &grown,
        "top",
        "--interval-ms",
        "1000",
        "--once",
    ]);
    t.run(&cl(&["metrics"]));
    failures.extend(compare("cli_cluster", &t));

    let mut t = Transcript::new(&labels);
    let dead = "127.0.0.1:1";
    t.run(&["cluster"]);
    t.run(&["cluster", "stats"]);
    t.run(&["cluster", "--nodes"]);
    t.run(&["cluster", "--nodes", ",", "stats"]);
    t.run(&["cluster", "--nodes", dead, "stats"]);
    t.run(&cl(&["--replicas", "3", "stats"]));
    t.run(&cl(&["--replicas", "0", "stats"]));
    t.run(&cl(&["--replicas", "many", "stats"]));
    t.run(&cl(&["--replicas"]));
    t.run(&cl(&["--vnodes", "0", "stats"]));
    t.run(&cl(&["--timeout-ms", "x", "stats"]));
    t.run(&cl(&["--timeout-ms"]));
    t.run(&cl(&["--trace"]));
    t.run(&cl(&["--trace", "bad id", "stats"]));
    t.run(&cl(&[]));
    t.run(&cl(&["frobnicate"]));
    t.run(&cl(&["stats", "extra"]));
    t.run(&cl(&["get", "fir", "cpa", "many"]));
    t.run(&cl(&["get", "fir", "cpa"]));
    t.run(&cl(&["get", "fir", "cpa", "32", "--frob"]));
    t.run(&cl(&["get", "fir", "cpa", "32", "--latency"]));
    t.run(&cl(&["get", "fir", "cpa", "32", "--latency", "65537"]));
    t.run(&cl(&["get", "nope", "cpa", "32"]));
    t.run(&cl(&["mget", "--frob"]));
    t.run(&cl(&["mget", "--budgets", "x"]));
    t.run(&cl(&["mget", "--kernel", "nope"]));
    t.run(&cl(&["explore", "--algos", ","]));
    t.run(&cl(&["explore", "--latencies", "65537"]));
    t.run(&cl(&["trace"]));
    t.run(&cl(&["rebalance"]));
    t.run(&cl(&["rebalance", "--to"]));
    t.run(&cl(&["top", "--frob"]));
    t.run(&cl(&["top", "--interval-ms", "0"]));
    failures.extend(compare("cli_cluster_errors", &t));

    // Connection flags after the op.  Run last on these nodes: the lines'
    // traffic must not show up in another transcript's counters.
    let mut t = Transcript::new(&labels);
    t.run(&cl(&["get", "fir", "cpa", "8", "--binary"]));
    t.run(&cl(&[&["mget"][..], &axes, &["--binary"]].concat()));
    t.run(&cl(&["get", "fir", "cpa", "8", "--timeout-ms", "1000"]));
    t.run(&cl(&["ping", "--timeout-ms", "0"]));
    t.run(&cl(&[
        "explore", "--kernel", "bic", "--algos", "fr", "--trace", "cli.c.t2",
    ]));
    failures.extend(compare("cli_cluster_flags_after_op", &t));

    stop_node(a);
    stop_node(b);
    stop_node(c);
}

fn local_error_transcripts(failures: &mut Vec<String>) {
    let mut t = Transcript::new(&[]);
    for args in [
        &["explore", "--frobnicate"][..],
        &["explore", "--kernel"],
        &["explore", "--kernel", "nope", "--budgets", "x"],
        &["explore", "--budgets", "x", "--kernel", "nope"],
        &["explore", "--algos", "zzz", "--devices", "xcv9000"],
        &["explore", "--devices", "xcv9000", "--algos", "zzz"],
        &["explore", "--algos", ","],
        &["explore", "--budgets", ""],
        &["explore", "--latencies", "2,65537"],
        &["explore", "--jobs", "0"],
        &["explore", "--jobs"],
        &["explore", "--stats-json"],
        &["explore", "--cache", "a.seg", "--cache-dir", "b"],
        &["explore", "--shards", "2"],
        &["explore", "--shards", "0", "--cache-dir", "b"],
        &["migrate"],
        &["migrate", "a.jsonl"],
        &["migrate", "--cache"],
        &["migrate", "a.jsonl", "--cache", "x.seg", "--shards", "2"],
        &["serve"],
        &["serve", "--cache-dir"],
        &["serve", "--shards", "2"],
        &["serve", "--cache-dir", "d", "--shards", "0"],
        &["serve", "--cache-dir", "d", "--workers", "many"],
        &["serve", "--cache-dir", "d", "--slow-query-us", "-1"],
        &["serve", "--cache-dir", "d", "--report-interval"],
        &["serve", "--cache-dir", "d", "--idle-timeout-secs", "x"],
        &["serve", "--cache-dir", "d", "--sample-interval-ms", "x"],
        &["serve", "--cache-dir", "d", "--slo"],
        &["serve", "--cache-dir", "d", "--frobnicate"],
    ] {
        t.run(args);
    }
    failures.extend(compare("cli_local_errors", &t));
}

#[test]
fn query_and_cluster_transcripts_are_byte_identical() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("golden-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut failures = Vec::new();
    query_transcripts(&dir, &mut failures);
    cluster_transcripts(&dir, &mut failures);
    local_error_transcripts(&mut failures);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
