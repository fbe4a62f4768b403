//! CLI driver for `baywatch-lint`.
//!
//! ```text
//! cargo run -p baywatch-lint [--] [OPTIONS]
//!
//!   --root <DIR>        workspace root (default: .)
//!   --config <FILE>     allowlist/policies (default: <root>/lint.toml)
//!   --manifest <FILE>   metrics manifest (default: <root>/METRICS.md)
//!   --json              machine-readable output instead of the table
//!   --verbose           include allowlisted findings
//! ```
//!
//! Exit codes: 0 clean (no unsuppressed findings), 1 findings, 2 usage or
//! configuration error.

#![warn(clippy::unwrap_used)]

use std::path::PathBuf;
use std::process::ExitCode;

use baywatch_lint::{report, run, LintOptions};

struct Args {
    opts: LintOptions,
    json: bool,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: LintOptions::default(),
        json: false,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut path_arg = |name: &str| {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--root" => args.opts.root = path_arg("--root")?,
            "--config" => args.opts.config_path = Some(path_arg("--config")?),
            "--manifest" => args.opts.manifest_path = Some(path_arg("--manifest")?),
            "--json" => args.json = true,
            "--verbose" => args.verbose = true,
            "--help" | "-h" => {
                println!(
                    "baywatch-lint: workspace invariant linter (L1 float ordering, \
                     L2 determinism, L3 budget checkpoints, L5 atomic-ordering policy, \
                     L6 metric registry, L7 ledger arithmetic)\n\n\
                     Options:\n  --root <DIR>  --config <FILE>  --manifest <FILE>\n  \
                     --json  --verbose"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("baywatch-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args.opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("baywatch-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.json {
        print!("{}", report::render_json(&outcome));
    } else {
        print!("{}", report::render_table(&outcome, args.verbose));
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
