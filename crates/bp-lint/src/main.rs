//! `bp_lint` — the command-line front end.
//!
//! ```text
//! bp_lint [--root DIR] [--format text|json] [--list-rules]
//! ```
//!
//! Exit codes: `0` clean (every finding fixed or waived), `1` violations,
//! `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use bp_lint::{run_lint, Config, LintError};

struct Cli {
    root: Option<PathBuf>,
    format: String,
    list_rules: bool,
}

fn parse_args() -> Result<Cli, LintError> {
    let mut cli = Cli {
        root: None,
        format: "text".to_string(),
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args
                    .next()
                    .ok_or_else(|| LintError::Usage("--root needs a value".to_string()))?;
                cli.root = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = args
                    .next()
                    .ok_or_else(|| LintError::Usage("--format needs a value".to_string()))?;
                if v != "text" && v != "json" {
                    return Err(LintError::Usage(format!(
                        "--format must be `text` or `json`, got `{v}`"
                    )));
                }
                cli.format = v;
            }
            "--list-rules" => cli.list_rules = true,
            other => {
                return Err(LintError::Usage(format!(
                    "unknown argument `{other}` (try --root, --format, --list-rules)"
                )));
            }
        }
    }
    Ok(cli)
}

/// Ascends from the current directory to the workspace root (the first
/// ancestor whose `Cargo.toml` declares `[workspace]`).
fn find_root() -> Result<PathBuf, LintError> {
    let mut dir = std::env::current_dir().map_err(|e| LintError::Io(e.to_string()))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(LintError::Usage(
                "no workspace root found above the current directory (pass --root)".to_string(),
            ));
        }
    }
}

fn run() -> Result<ExitCode, LintError> {
    let cli = parse_args()?;
    if cli.list_rules {
        for rule in bp_lint::rules::ALL_RULES {
            println!("{rule}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    let root = match cli.root {
        Some(r) => r,
        None => find_root()?,
    };
    let report = run_lint(&Config::workspace_default(&root))?;
    match cli.format.as_str() {
        "json" => print!("{}", report.to_json()),
        _ => print!("{}", report.to_text()),
    }
    if report.is_clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bp-lint: {e}");
            ExitCode::from(2)
        }
    }
}
