//! The `fedlint` CLI: `cargo run -p fedlint -- check [--root PATH]`.

use std::path::PathBuf;
use std::process::ExitCode;

use fedlint::{scan_workspace, Rule};

const USAGE: &str = "\
usage: fedlint <command> [options]

commands:
  check [--root PATH]   scan the workspace (default: current directory);
                        exits 1 if any finding is reported
  rules                 list the rules and their rationale
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("check") => {
            let mut root = PathBuf::from(".");
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => match args.next() {
                        Some(p) => root = PathBuf::from(p),
                        None => {
                            eprintln!("fedlint: --root needs a path\n{USAGE}");
                            return ExitCode::from(2);
                        }
                    },
                    other => {
                        eprintln!("fedlint: unknown option `{other}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            check(&root)
        }
        Some("rules") => {
            for rule in Rule::ALL {
                println!("{:<18} {}", rule.id(), rule.rationale());
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(root: &std::path::Path) -> ExitCode {
    match scan_workspace(root) {
        Ok(findings) if findings.is_empty() => {
            eprintln!("fedlint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("fedlint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fedlint: scan failed: {e}");
            ExitCode::from(2)
        }
    }
}
