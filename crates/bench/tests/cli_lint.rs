//! The `cgra-lint` binary rejects fabrics it cannot build with a
//! one-line usage error and exit code 2, never a panic.

use std::process::Command;

#[test]
fn bad_fabric_arguments_exit_2() {
    let cases: [&[&str]; 4] = [
        &["--dim", "0"],
        &["--dim", "3"],
        &["--page", "3"],
        &["--dim", "70000"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_cgra-lint"))
            .args(args)
            .output()
            .expect("cgra-lint runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: bad fabric: "),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
