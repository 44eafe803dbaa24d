//! `vprof` — the Value Profiling command-line tool.
//!
//! Run `vprof --help` for every subcommand and the flags each accepts.
//! Flags may come before or after a subcommand's positional arguments;
//! an undeclared flag, a flag missing its value, or a surplus argument
//! is an error naming the offending token.

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("vprof: {message}");
            ExitCode::FAILURE
        }
    }
}
