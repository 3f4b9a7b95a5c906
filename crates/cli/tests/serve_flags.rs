//! `spark serve` argument boundary, driven through the real binary.

use std::process::Command;

/// The micro-batcher has no timer, so there is no window to set: the old
/// `--window-us` flag must be refused before any socket is bound, not
/// silently accepted.
#[test]
fn serve_rejects_the_removed_window_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_spark"))
        .args(["serve", "--window-us", "5"])
        .output()
        .expect("run spark");
    assert!(!out.status.success(), "spark serve --window-us 5 exited successfully");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unexpected argument"), "stderr: {stderr}");
    assert!(stderr.contains("--window-us"), "stderr: {stderr}");
}
