//! The `cgra-lint` and `fig9` binaries reject bad arguments with a
//! usage error and exit code 2, never a panic or an abort.

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

#[test]
fn fig9_rejects_a_fault_count_above_the_ceiling() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig9"))
        .args(["--smoke", "--faults", "mtbf=1,count=4294967295"])
        .output()
        .expect("fig9 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("`count=4294967295` at byte 7: expected a fault count of at most 65536"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}
