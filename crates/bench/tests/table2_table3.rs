//! `table2` and `table3` take no options: `--help` prints usage, any other
//! argument is refused with exit code 2, and no argument prints the table.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
}

fn check(bin: &str, table: &str) {
    let bogus = run(bin, &["--bogus"]);
    assert_eq!(bogus.status.code(), Some(2), "{bin} --bogus");
    let stderr = String::from_utf8_lossy(&bogus.stderr);
    assert!(stderr.contains("--bogus"), "{bin} stderr: {stderr}");
    assert!(
        bogus.stdout.is_empty(),
        "{bin} stdout: {}",
        String::from_utf8_lossy(&bogus.stdout)
    );

    for flag in ["--help", "-h"] {
        let help = run(bin, &[flag]);
        assert_eq!(help.status.code(), Some(0), "{bin} {flag}");
        assert!(
            String::from_utf8_lossy(&help.stdout).starts_with("usage:"),
            "{bin} {flag}"
        );
    }

    let plain = run(bin, &[]);
    assert_eq!(plain.status.code(), Some(0), "{bin}");
    let stdout = String::from_utf8_lossy(&plain.stdout);
    assert!(stdout.contains(table), "{bin} stdout: {stdout}");
}

#[test]
fn table2_refuses_arguments_and_prints_help() {
    check(env!("CARGO_BIN_EXE_table2"), "Table 2");
}

#[test]
fn table3_refuses_arguments_and_prints_help() {
    check(env!("CARGO_BIN_EXE_table3"), "Table 3");
}
