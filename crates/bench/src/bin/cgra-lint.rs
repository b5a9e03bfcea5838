//! `cgra-lint` — static analysis of the whole compilation pipeline.
//!
//! Compiles every kernel once through `cgra_bench::compile` and analyzes
//! each artifact it returns (baseline + constrained mappings, paged
//! schedule, halving-chain shrink plans, kernel profile), plus a
//! one-dead-page degradation, with `cgra-analyze`. Exits 1 if any
//! artifact carries an error diagnostic, and 2 on a usage error
//! (including a fabric `--dim`/`--page` cannot build).
//!
//! Usage: `cargo run -p cgra-bench --bin cgra-lint --release [-- FLAGS]`
//!
//! Flags:
//!   --dim N    fabric side length (default 4; even, at most 254)
//!   --page S   page size in PEs (default 4)
//!   --grid     lint every configuration of the paper grid instead
//!   --json     emit the findings as one JSON document

use cgra_arch::CgraConfig;
use cgra_bench::lint;

fn arg_value(args: &[String], flag: &str) -> Option<usize> {
    let i = args.iter().position(|a| a == flag)?;
    let v = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    });
    v.parse().ok().or_else(|| {
        eprintln!("{flag}: not a number: {v}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dim = arg_value(&args, "--dim").unwrap_or(4);
    let page = arg_value(&args, "--page").unwrap_or(4);

    let findings = if args.iter().any(|a| a == "--grid") {
        lint::lint_grid()
    } else {
        let cgra = CgraConfig::try_square(dim, page).unwrap_or_else(|e| {
            eprintln!("error: bad fabric: {e}");
            std::process::exit(2);
        });
        lint::lint_config(&cgra)
    };
    let (text, errors) = lint::render(&findings);
    if args.iter().any(|a| a == "--json") {
        println!("{}", lint::render_json(&findings));
        eprint!("{text}");
    } else {
        print!("{text}");
    }
    if errors > 0 {
        std::process::exit(1);
    }
}
