//! `liger-lint` — static diagnostics for MiniLang sources.
//!
//! Reads one or more `.ml`/`.txt` sources (or stdin when no file is
//! given), runs the full analysis stack, and prints one diagnostic per
//! line as `file:line N: [severity] kind: message`.
//!
//! Exit status: 0 when no fatal diagnostics were found, 1 when a fatal
//! diagnostic (or, under `--deny-warnings`, any diagnostic) was found,
//! 2 when a source failed to parse or typecheck.

use analysis::lint;
use std::io::Read;
use std::process::ExitCode;

const USAGE: &str = "usage: liger-lint [options] [FILE...]

Lints MiniLang sources; reads stdin when no FILE is given.

options:
  --deny-warnings   exit non-zero on any diagnostic, not just fatal ones
  --fatal-only      print only fatal diagnostics
  --canon           canonicalize each source first: assert the rewrite
                    fixpoint is idempotent, lint the canonical form, and
                    print one `canon <hash> <file>` line per source
  --quiet           suppress the per-run summary line
  --metrics         print the global metrics table (lint.* counters) to
                    stderr after the run
  --store-path DIR  read/write lint reports through the artifact store at
                    DIR: an unchanged source replays its cached report
                    without re-running the analysis stack
  -h, --help        show this help";

struct Options {
    deny_warnings: bool,
    fatal_only: bool,
    canon: bool,
    quiet: bool,
    metrics: bool,
    store_path: Option<String>,
    files: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        deny_warnings: false,
        fatal_only: false,
        canon: false,
        quiet: false,
        metrics: false,
        store_path: None,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => opts.deny_warnings = true,
            "--fatal-only" => opts.fatal_only = true,
            "--canon" => opts.canon = true,
            "--quiet" => opts.quiet = true,
            "--metrics" => opts.metrics = true,
            "--store-path" => {
                opts.store_path =
                    Some(args.next().ok_or(format!("--store-path needs DIR\n\n{USAGE}"))?);
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            f if !f.starts_with('-') => opts.files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}`\n\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Lints one source; returns (diagnostics printed, fatal seen) or an
/// error message for parse/typecheck failures.
fn lint_source(
    label: &str,
    src: &str,
    opts: &Options,
    store: Option<&store::Store>,
) -> Result<(usize, bool), String> {
    // `LangError` already names its phase ("parse error at line N: …").
    let mut program = minilang::parse(src).map_err(|e| format!("{label}: {e}"))?;
    minilang::typecheck(&program).map_err(|e| format!("{label}: {e}"))?;
    if opts.canon {
        let once = analysis::canonicalize(&program);
        let twice = analysis::canonicalize(&once.program);
        if once.program != twice.program || once.hash != twice.hash {
            return Err(format!("{label}: canonicalization is not idempotent"));
        }
        minilang::typecheck(&once.program)
            .map_err(|e| format!("{label}: canonical form fails to typecheck: {e}"))?;
        println!("canon {:016x} {label}", once.hash);
        program = once.program;
    }
    // The key is the hash of what is actually linted: canonicalization
    // changes the program, so `--canon` runs live in a different key
    // space than plain runs and the two never share reports.
    let key = if opts.canon {
        analysis::canon_hash(&program)
    } else {
        store::hash::fnv1a_str(src)
    };
    let report = analysis::lint_with_store(&program, key, store)
        .map_err(|e| format!("{label}: store error: {e}"))?;
    let mut printed = 0;
    for d in &report.diagnostics {
        if opts.fatal_only && d.severity != lint::Severity::Fatal {
            continue;
        }
        println!("{label}:{}", d.render());
        printed += 1;
    }
    Ok((printed, report.has_fatal()))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut sources: Vec<(String, String)> = Vec::new();
    if opts.files.is_empty() {
        let mut src = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut src) {
            eprintln!("liger-lint: failed to read stdin: {e}");
            return ExitCode::from(2);
        }
        sources.push(("<stdin>".to_string(), src));
    } else {
        for f in &opts.files {
            match std::fs::read_to_string(f) {
                Ok(src) => sources.push((f.clone(), src)),
                Err(e) => {
                    eprintln!("liger-lint: cannot read {f}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let astore = match &opts.store_path {
        Some(dir) => match store::Store::open(std::path::Path::new(dir)) {
            Ok(st) => Some(st),
            Err(e) => {
                eprintln!("liger-lint: cannot open store {dir}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let mut total = 0usize;
    let mut any_fatal = false;
    let mut any_error = false;
    let n_sources = sources.len();
    for (label, src) in &sources {
        match lint_source(label, src, &opts, astore.as_ref()) {
            Ok((printed, fatal)) => {
                total += printed;
                any_fatal |= fatal;
            }
            Err(msg) => {
                eprintln!("{msg}");
                any_error = true;
            }
        }
    }

    if !opts.quiet {
        eprintln!("liger-lint: {n_sources} source(s), {total} diagnostic(s)");
    }
    if opts.metrics {
        eprint!("{}", obs::metrics::registry().snapshot().render_table());
    }
    if any_error {
        ExitCode::from(2)
    } else if any_fatal || (opts.deny_warnings && total > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_error(src: &str) -> String {
        let opts = Options {
            deny_warnings: false,
            fatal_only: false,
            canon: false,
            quiet: true,
            metrics: false,
            store_path: None,
            files: Vec::new(),
        };
        lint_source("in.ml", src, &opts, None).unwrap_err()
    }

    #[test]
    fn frontend_errors_name_their_phase_once() {
        let parse = lint_error("fn f( {");
        assert!(parse.starts_with("in.ml: parse error at line 1"), "{parse}");
        assert_eq!(parse.matches("parse error").count(), 1, "{parse}");
        let ty = lint_error("fn f(x: int) -> int { return true; }");
        assert!(ty.starts_with("in.ml: type error: "), "{ty}");
        assert_eq!(ty.matches("type error").count(), 1, "{ty}");
    }
}
