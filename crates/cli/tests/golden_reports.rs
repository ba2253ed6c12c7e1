//! Golden transcripts of the paper reproductions: the exact stdout bytes of
//! `srra table1` and `srra figure2`.
//!
//! The fixtures under `tests/golden/` pin every number the two reports
//! print.  A change to the cost model, the allocators or the rendering that
//! moves one byte fails here; re-record a fixture only for a deliberate
//! change of the model's output, and say so in the change that does it.

use std::path::PathBuf;
use std::process::Command;

fn assert_stdout_matches(command: &str) {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{command}.txt"));
    let expected = std::fs::read(&fixture)
        .unwrap_or_else(|err| panic!("fixture {}: {err}", fixture.display()));
    let output = Command::new(env!("CARGO_BIN_EXE_srra"))
        .arg(command)
        .output()
        .expect("srra runs");
    assert!(
        output.status.success(),
        "srra {command} exited with {}",
        output.status
    );
    assert!(
        output.stdout == expected,
        "srra {command} stdout differs from {}:\n{}",
        fixture.display(),
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn table1_stdout_is_byte_identical() {
    assert_stdout_matches("table1");
}

#[test]
fn figure2_stdout_is_byte_identical() {
    assert_stdout_matches("figure2");
}
