//! `vprof` — the Value Profiling command-line tool.
//!
//! Run `vprof --help` for every subcommand and the flags each accepts.
//! Flags may come before or after a subcommand's positional arguments;
//! an undeclared flag, a flag missing its value, or a surplus argument
//! is an error naming the offending token.

mod commands;

use std::io::{self, Write};
use std::process::ExitCode;

use commands::Failure;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let result = commands::dispatch(&args, &mut out).and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader stopped reading (`vprof list | head -1`): the output
        // it wanted was delivered, so this is a quiet success.
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("vprof: {failure}");
            ExitCode::FAILURE
        }
    }
}
