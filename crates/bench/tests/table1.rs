//! `table1` measures lu against ocean by design, so it must refuse a
//! recorded trace rather than print the lu/ocean table as if it had been
//! replayed.

use std::process::Command;

#[test]
fn replay_is_refused_with_exit_code_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--custom", "1/32", "--replay", "/nonexistent.trc"])
        .output()
        .expect("run table1");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--replay"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
