//! `xtask` — workspace-native static analysis for the Iustitia repo.
//!
//! Run as `cargo run -p xtask -- lint`. Exits 0 when the workspace is
//! clean, 1 with `file:line: [Lnnn] message` diagnostics otherwise.
//! Two tiers run under the one command: the per-token lints L001–L004,
//! L006 and L007 (see [`lints`]) and the interprocedural analyses
//! L008–L011 built on the call graph (see [`analyses`]). `lint --json`
//! emits a machine-readable report for CI.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::{analyses, lints};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n");
            print!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
xtask — workspace-native static analysis

USAGE:
    cargo run -p xtask -- lint [--list] [--json] [--root <dir>]

COMMANDS:
    lint          run every project lint over the workspace
    lint --list   print the lint table and exit
    lint --json   emit the report as JSON on stdout (for CI artifacts)

L001-L004, L006, L007 are per-token lints; L008-L011 are interprocedural analyses
driven by the roots declared in crates/xtask/roots.toml.

Suppress a finding with an inline justification on the same or the
preceding line:  // lint: allow(L001) — <reason>
";

fn lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for (id, description) in lints::LINTS {
                    println!("{id}  {description}");
                }
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            "--root" => match iter.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("xtask: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask: unknown lint flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);

    let merged = lints::run(&root).and_then(|mut violations| {
        violations.extend(analyses::run(&root)?);
        violations.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
        Ok(violations)
    });
    match merged {
        Ok(violations) if json => {
            println!("{}", json_report(&violations));
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: workspace clean ({} lints)", lints::LINTS.len());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for violation in &violations {
                println!("{violation}");
            }
            eprintln!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: error analyzing {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

/// Renders the lint table and findings as a JSON document. Hand-rolled
/// (the workspace has no route to crates.io) but escape-correct for the
/// strings the lints produce.
fn json_report(violations: &[lints::Violation]) -> String {
    let mut out = String::from("{\n  \"lints\": [\n");
    for (i, (id, description)) in lints::LINTS.iter().enumerate() {
        let comma = if i + 1 < lints::LINTS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"id\": {}, \"description\": {}}}{comma}\n",
            json_str(id),
            json_str(description)
        ));
    }
    out.push_str("  ],\n  \"violations\": [\n");
    for (i, v) in violations.iter().enumerate() {
        let comma = if i + 1 < violations.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"lint\": {}, \"message\": {}}}{comma}\n",
            json_str(&v.file),
            v.line,
            json_str(v.lint),
            json_str(&v.message)
        ));
    }
    out.push_str(&format!("  ],\n  \"clean\": {}\n}}", violations.is_empty()));
    out
}

/// JSON string literal with the required escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_escapes_and_lists_every_lint() {
        let violations = vec![lints::Violation {
            file: "crates/serve/src/proto.rs".to_string(),
            line: 7,
            lint: "L011",
            message: "bare `+` on a \"length\"\nvalue".to_string(),
        }];
        let report = json_report(&violations);
        for (id, _) in lints::LINTS {
            assert!(report.contains(&format!("\"id\": \"{id}\"")), "missing {id}");
        }
        assert!(report.contains("\\\"length\\\"\\nvalue"), "escapes quotes and newlines");
        assert!(report.contains("\"clean\": false"));
        assert!(json_report(&[]).contains("\"clean\": true"));
    }
}
