//! The `cgra-mt` binary rejects bad numeric arguments with a one-line
//! usage error and exit code 1, never a panic.

use std::process::Command;

/// Run `cgra-mt` with `args`; returns `(exit code, stderr)`.
fn cgra_mt(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cgra-mt"))
        .args(args)
        .output()
        .expect("cgra-mt runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn bad_fabric_arguments_are_usage_errors() {
    for dim in ["0", "1", "3", "65535", "70000"] {
        let (code, stderr) = cgra_mt(&["map", "builtin:sobel", "--cgra", dim]);
        assert_eq!(code, Some(1), "--cgra {dim}: {stderr}");
        assert!(!stderr.contains("panicked"), "--cgra {dim}: {stderr}");
        assert!(
            stderr.starts_with("error: bad fabric: "),
            "--cgra {dim}: {stderr}"
        );
    }
    let (code, stderr) = cgra_mt(&["map", "builtin:sobel", "--page-size", "3"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with("error: bad fabric: "), "{stderr}");
}

#[test]
fn exec_rejects_zero_iterations() {
    let (code, stderr) = cgra_mt(&["exec", "builtin:sobel", "--iters", "0"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr, "error: --iters must be at least 1\n");
}

#[test]
fn unparsable_numbers_are_usage_errors() {
    let cases: [(&[&str], &str, &str); 5] = [
        (&["map", "builtin:sobel"], "cgra", "abc"),
        (&["map", "builtin:sobel"], "page-size", "x"),
        (&["map", "builtin:sobel"], "rf", "-1"),
        (&["shrink", "builtin:laplace"], "pages", "two"),
        (&["exec", "builtin:sobel"], "iters", "1.5"),
    ];
    for (cmd, flag, value) in cases {
        let mut args = cmd.to_vec();
        let key = format!("--{flag}");
        args.extend([key.as_str(), value]);
        let (code, stderr) = cgra_mt(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr,
            format!("error: --{flag}: expected a number, got '{value}'\n"),
            "{args:?}"
        );
    }
}
