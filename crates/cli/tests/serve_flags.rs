//! `spark serve` argument boundary, driven through the real binary.

use std::process::Command;

/// The server has no micro-batcher, so there is no batch window or batch
/// size to set: the removed `--window-us` and `--batch` flags must each be
/// refused before any socket is bound, not silently accepted.
#[test]
fn serve_rejects_the_removed_window_flag() {
    for (flag, value) in [("--window-us", "5"), ("--batch", "8")] {
        let out = Command::new(env!("CARGO_BIN_EXE_spark"))
            .args(["serve", flag, value])
            .output()
            .expect("run spark");
        assert!(!out.status.success(), "spark serve {flag} {value} exited successfully");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unexpected argument"), "stderr: {stderr}");
        assert!(stderr.contains(flag), "stderr: {stderr}");
    }
}
