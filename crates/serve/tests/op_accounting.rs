//! The server's per-op accounting, pinned on a live socket: `stats` lists
//! every op in the fixed wire order, and `metrics` exposes one counter and
//! one latency histogram per op.  Both are visible to clients, so the order
//! and the names must not drift when the op declarations move.

use srra_serve::{Connection, Server, ServerConfig};

/// The `stats` reporting order: every wire op, then `invalid` for request
/// lines that failed to decode.
const OPS: [&str; 14] = [
    "get", "mget", "explore", "mexplore", "put", "ping", "stats", "metrics", "trace", "series",
    "digest", "scan", "shutdown", "invalid",
];

#[test]
fn stats_and_metrics_account_every_op_in_the_fixed_order() {
    let dir = std::env::temp_dir().join(format!("srra-serve-ops-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(&ServerConfig {
        shards: 2,
        workers: 2,
        ..ServerConfig::ephemeral(dir.clone())
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    let mut connection = Connection::connect(&addr).expect("connects");
    connection.ping().expect("ping");
    let stats = connection.stats().expect("stats");
    let names: Vec<&str> = stats.ops.iter().map(|entry| entry.op.as_str()).collect();
    assert_eq!(names, OPS);
    assert_eq!(stats.op("ping").expect("ping accounted").count, 1);

    let snapshot = connection.metrics().expect("metrics");
    for op in OPS {
        assert!(
            snapshot.counter(&format!("serve_op_{op}_total")).is_some(),
            "no counter for `{op}`"
        );
        assert!(
            snapshot
                .histogram(&format!("serve_op_{op}_latency_us"))
                .is_some(),
            "no latency histogram for `{op}`"
        );
    }

    connection.shutdown().expect("shutdown");
    drop(connection);
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).unwrap();
}
