//! The paper binaries honour `LOWINO_TRACE` like the benches do: a run
//! with the variable set leaves a chrome trace that the in-tree validator
//! accepts. `fig8_layers` on one layer at a small batch is the quickest of
//! them that drives executors through a pool, so its trace holds events.

use std::process::Command;

#[test]
fn fig8_layers_writes_a_valid_trace_when_asked() {
    let dir = std::env::temp_dir().join(format!("lowino-bin-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig8.json");

    let out = Command::new(env!("CARGO_BIN_EXE_fig8_layers"))
        .args(["--reps", "1", "--batch-div", "64", "--hw-div", "8", "--layer", "VGG16_a"])
        .env("LOWINO_TRACE", &path)
        .output()
        .expect("fig8_layers runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let json = std::fs::read_to_string(&path).expect("the trace file exists");
    lowino_testkit::validate_json(&json).unwrap();
    assert!(json.contains("\"ph\""), "the trace holds events: {json}");
    std::fs::remove_dir_all(&dir).ok();
}
