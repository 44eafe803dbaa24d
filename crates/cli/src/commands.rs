//! `vprof` subcommand implementations.

use std::fmt;
use std::io::{self, Write};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use vp_asm::Program;
use vp_bench::experiments::{self, Experiment};
use vp_bench::{SuiteProfile, SuiteRunner};
use vp_core::{
    render_metric_table, report::row, FaultPlan, MemBudget, PhaseBudget, ProfileMode, ProfilerStats,
};
use vp_instrument::{ChunkReader, Instrumenter, Selection};
use vp_obs::Json;
use vp_sim::{InputSet, Machine, MachineConfig};
use vp_workloads::{suite, DataSet, Workload};

const BUDGET: u64 = 100_000_000;

const USAGE: &str = "usage:
  vprof list
  vprof run <target> [--train]
  vprof assemble <file.s> -o <file.vpo>
  vprof disasm <target>
  vprof profile <target> [--train] [--all] [--convergent] [--top N] [--save FILE]
  vprof profile-suite [--train] [--all] [--convergent] [--jobs N] [--baseline]
                      [--adaptive [--phase-window N] [--max-rearms N]]
                      [--telemetry FILE] [--retries N] [--checkpoint FILE [--resume]]
                      [--deadline-ms N] [--mem-budget-mb N]
  vprof record <target> [-o <file.vpc>] [--train] [--all] [--deadline-ms N]
                      [--chunk-events N]
  vprof replay <file.vpc> [--save FILE] [--deadline-ms N] [--mem-budget-mb N]
                      [--convergent|--adaptive [--phase-window N] [--max-rearms N]]
  vprof serve --socket SOCK [--state-dir DIR] [--resume] [--max-sessions N]
                      [--max-tenants N] [--tenant-sessions N] [--idle-ms N]
                      [--deadline-ms N] [--mem-budget-mb N] [--telemetry FILE]
                      [--convergent|--adaptive [--phase-window N] [--max-rearms N]]
  vprof client <file.vpc> --connect SOCK [--tenant T] [--workload W] [--save FILE]
                      [--query]
  vprof client --connect SOCK --shutdown
  vprof stats <telemetry.jsonl>
  vprof verify <profile.tsv> [--lenient]
  vprof experiment <E#|all> [--jobs N] [--telemetry FILE]
  vprof optimize [--jobs N]
                      [--convergent|--adaptive [--phase-window N] [--max-rearms N]]
                      [--min-invariance P] [--min-executions N] [--max-ways N]
                      [--report FILE] [--telemetry FILE] [--retries N]
                      [--checkpoint FILE [--resume]] [--deadline-ms N] [--mem-budget-mb N]

<target> is a built-in workload name or a path to a .s or .vpo file.";

/// What one subcommand accepts, declared once: its switches and its
/// valued options (each a space-separated list; an option takes the next
/// token as its value), and at most how many positional arguments. Flags
/// and positionals may come in any order.
struct Spec {
    switches: &'static str,
    options: &'static str,
    positionals: usize,
}

/// A command line split against its [`Spec`].
#[derive(Debug, Default, PartialEq)]
struct Args<'a> {
    switches: Vec<&'a str>,
    options: Vec<(&'a str, &'a str)>,
    positionals: Vec<&'a str>,
}

type Handler = fn(&Args<'_>, &mut dyn Write) -> Result<(), Failure>;

/// Why a command failed.
#[derive(Debug)]
pub enum Failure {
    /// A message for the user.
    Message(String),
    /// Writing the command's output failed, as when its reader has
    /// closed the pipe.
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Message(message)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Output(e)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Message(message) => f.write_str(message),
            Failure::Output(e) => write!(f, "cannot write output: {e}"),
        }
    }
}

/// Every subcommand's declaration and implementation.
fn command(name: &str) -> Option<(Spec, Handler)> {
    Some(match name {
        "list" => (Spec { switches: "", options: "", positionals: 0 }, list),
        "run" => (Spec { switches: "--train", options: "", positionals: 1 }, run),
        "assemble" => (Spec { switches: "", options: "-o", positionals: 1 }, assemble_cmd),
        "disasm" => (Spec { switches: "", options: "", positionals: 1 }, disasm),
        "profile" => (
            Spec {
                switches: "--train --all --convergent",
                options: "--top --save",
                positionals: 1,
            },
            profile,
        ),
        "profile-suite" => (
            Spec {
                switches: "--train --all --convergent --adaptive --baseline --resume",
                options: "--jobs --phase-window --max-rearms --telemetry \
                          --retries --checkpoint --deadline-ms --mem-budget-mb",
                positionals: 0,
            },
            profile_suite,
        ),
        "record" => (
            Spec {
                switches: "--train --all",
                options: "-o --deadline-ms --chunk-events",
                positionals: 1,
            },
            record_cmd,
        ),
        "replay" => (
            Spec {
                switches: "--convergent --adaptive",
                options: "--save --deadline-ms --mem-budget-mb --phase-window --max-rearms",
                positionals: 1,
            },
            replay_cmd,
        ),
        "serve" => (
            Spec {
                switches: "--resume --convergent --adaptive",
                options: "--socket --state-dir --max-sessions --max-tenants --tenant-sessions \
                          --idle-ms --deadline-ms --mem-budget-mb --telemetry --phase-window \
                          --max-rearms",
                positionals: 0,
            },
            serve_cmd,
        ),
        "client" => (
            Spec {
                switches: "--query --shutdown",
                options: "--connect --tenant --workload --save",
                positionals: 1,
            },
            client_cmd,
        ),
        "stats" => (Spec { switches: "", options: "", positionals: 1 }, stats_cmd),
        "verify" => (Spec { switches: "--lenient", options: "", positionals: 1 }, verify_cmd),
        "experiment" => {
            (Spec { switches: "", options: "--jobs --telemetry", positionals: 1 }, experiment_cmd)
        }
        "optimize" => (
            Spec {
                switches: "--convergent --adaptive --resume",
                options: "--jobs --phase-window --max-rearms \
                          --min-invariance --min-executions --max-ways --report --telemetry \
                          --retries --checkpoint --deadline-ms --mem-budget-mb",
                positionals: 0,
            },
            optimize_cmd,
        ),
        _ => return None,
    })
}

/// Whether a space-separated flag list names `flag`.
fn lists(list: &str, flag: &str) -> bool {
    list.split_whitespace().any(|f| f == flag)
}

/// Dispatches a command line, writing the command's output to `out`.
pub fn dispatch(argv: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let (name, rest) = match argv.split_first() {
        Some((name, rest)) if name != "--help" && name != "-h" => (name, rest),
        _ => {
            writeln!(out, "{USAGE}")?;
            return Ok(());
        }
    };
    let (spec, run) = command(name).ok_or_else(|| format!("unknown command `{name}`\n{USAGE}"))?;
    let args = spec.parse(rest).map_err(|e| format!("{name}: {e} (see `vprof --help`)"))?;
    run(&args, out)
}

impl Spec {
    /// Splits `argv` into switches, option values and positionals.
    /// Rejects an undeclared or repeated flag, an option with no value,
    /// and a surplus positional; each error names the offending token.
    fn parse<'a>(&self, argv: &'a [String]) -> Result<Args<'a>, String> {
        let mut args = Args::default();
        let mut tokens = argv.iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            if !token.starts_with('-') {
                if args.positionals.len() == self.positionals {
                    return Err(format!("unexpected argument `{token}`"));
                }
                args.positionals.push(token);
            } else if args.has(token) || args.value(token).is_some() {
                return Err(format!("`{token}` given twice"));
            } else if lists(self.switches, token) {
                args.switches.push(token);
            } else if lists(self.options, token) {
                match tokens.next() {
                    Some(value) if !value.starts_with("--") => args.options.push((token, value)),
                    _ => return Err(format!("`{token}` needs a value")),
                }
            } else {
                return Err(format!("unknown flag `{token}`"));
            }
        }
        Ok(args)
    }
}

impl<'a> Args<'a> {
    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn value(&self, option: &str) -> Option<&'a str> {
        self.options.iter().find(|(name, _)| *name == option).map(|&(_, value)| value)
    }

    /// The first positional: the file or workload the command acts on.
    fn target(&self) -> Result<&'a str, String> {
        self.positionals.first().copied().ok_or_else(|| format!("missing target\n{USAGE}"))
    }

    /// Option `name`'s value parsed as a `T`; `None` when it is absent. A
    /// value that does not parse, or fails `valid`, is a "bad value"
    /// error ending in `why`.
    fn get_if<T: FromStr>(
        &self,
        name: &str,
        valid: impl Fn(&T) -> bool,
        why: &str,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.value(name) else { return Ok(None) };
        match v.parse() {
            Ok(parsed) if valid(&parsed) => Ok(Some(parsed)),
            _ => Err(format!("bad {name} value `{v}`{why}")),
        }
    }

    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get_if(name, |_| true, "")
    }

    /// Like [`Args::get`], also rejecting a value below `min`.
    fn at_least<T: FromStr + PartialOrd + std::fmt::Display>(
        &self,
        name: &str,
        min: T,
    ) -> Result<Option<T>, String> {
        self.get_if(name, |n| *n >= min, &format!(" (need at least {min})"))
    }
}

fn dataset(args: &Args) -> DataSet {
    if args.has("--train") {
        DataSet::Train
    } else {
        DataSet::Test
    }
}

/// `--all` profiles every register-defining instruction, the default only
/// loads: the selection and its name in table titles.
fn selection(args: &Args) -> (Selection, &'static str) {
    if args.has("--all") {
        (Selection::RegisterDefining, "all register-defining instructions")
    } else {
        (Selection::LoadsOnly, "loads")
    }
}

/// Parses the adaptive-profiling flags: `--adaptive` plus the optional
/// `--phase-window N` / `--max-rearms N` budget overrides. The budget
/// flags without `--adaptive` are an error (they would silently do
/// nothing otherwise).
fn phase_budget_arg(args: &Args) -> Result<Option<PhaseBudget>, String> {
    let window = args.at_least("--phase-window", 1)?;
    let max_rearms = args.get("--max-rearms")?;
    if !args.has("--adaptive") {
        if window.is_some() || max_rearms.is_some() {
            return Err("--phase-window/--max-rearms require --adaptive".to_string());
        }
        return Ok(None);
    }
    let default = PhaseBudget::default();
    Ok(Some(PhaseBudget {
        window: window.unwrap_or(default.window),
        max_rearms: max_rearms.unwrap_or(default.max_rearms),
    }))
}

/// Parses the profiling mode — `--convergent`, `--adaptive [--phase-window
/// N] [--max-rearms N]`, or full profiling by default — and the
/// per-workload `--mem-budget-mb N`. Only the full profiler is governed,
/// so a budget with another mode is an error rather than a budget
/// nothing enforces.
fn mode_arg(args: &Args) -> Result<(ProfileMode, Option<MemBudget>), String> {
    let mem_budget = args.get("--mem-budget-mb")?.map(MemBudget::mib);
    let mode = match phase_budget_arg(args)? {
        Some(_) if args.has("--convergent") => {
            return Err("--adaptive and --convergent are mutually exclusive".to_string())
        }
        Some(budget) => ProfileMode::Adaptive(budget),
        None if args.has("--convergent") => ProfileMode::Convergent,
        None => ProfileMode::Full,
    };
    if mem_budget.is_some() && mode != ProfileMode::Full {
        return Err(format!(
            "--mem-budget-mb is not supported with --{} (the convergent trackers are already constant-space)",
            mode_name(mode)
        ));
    }
    Ok((mode, mem_budget))
}

/// The mode's name, as its flag and in telemetry.
fn mode_name(mode: ProfileMode) -> &'static str {
    match mode {
        ProfileMode::Full => "full",
        ProfileMode::Convergent => "convergent",
        ProfileMode::Adaptive(_) => "adaptive",
    }
}

/// The suite-runner configuration `profile-suite` and `optimize` share,
/// parsed once by [`suite_args`].
struct SuiteArgs {
    /// Jobs, retries, faults, deadline, memory budget, mode and
    /// checkpoint applied; each command adds its selection, recorder and
    /// baseline.
    runner: SuiteRunner,
    jobs: usize,
    mode: ProfileMode,
    mem_budget: Option<MemBudget>,
}

/// Parses `--jobs N`, `--retries N`, `--deadline-ms N`,
/// `--mem-budget-mb N`, the mode flags, and `--checkpoint FILE
/// [--resume]` into a configured [`SuiteRunner`].
/// `$VP_FAULTS` arms the fault plan.
fn suite_args(args: &Args) -> Result<SuiteArgs, String> {
    use vp_bench::{Checkpoint, RetryPolicy};

    let jobs = args.get("--jobs")?.unwrap_or(1);
    let mut policy = RetryPolicy::default();
    policy.max_retries = args.get("--retries")?.unwrap_or(policy.max_retries);
    let deadline = args.get("--deadline-ms")?.map(Duration::from_millis);
    let (mode, mem_budget) = mode_arg(args)?;
    let mut runner = SuiteRunner::new()
        .jobs(jobs)
        .retry(policy)
        .faults(Arc::new(FaultPlan::from_env()?))
        .deadline(deadline)
        .mem_budget(mem_budget)
        .mode(mode);
    match (args.value("--checkpoint"), args.has("--resume")) {
        (Some(path), resume) => {
            let path = std::path::Path::new(path);
            let checkpoint = if resume {
                let (checkpoint, summary) = Checkpoint::resume(path)
                    .map_err(|e| format!("cannot resume `{}`: {e}", path.display()))?;
                // Progress notices go to stderr: stdout must stay
                // byte-identical to an uninterrupted run's.
                if let Some(reason) = &summary.dropped_tail {
                    eprintln!("checkpoint: dropped torn final record ({reason})");
                }
                eprintln!(
                    "resuming from {}: {} workload(s) restored",
                    path.display(),
                    summary.restored
                );
                checkpoint
            } else {
                Checkpoint::create(path)
                    .map_err(|e| format!("cannot create `{}`: {e}", path.display()))?
            };
            runner = runner.checkpoint(Arc::new(checkpoint));
        }
        (None, true) => return Err("--resume requires --checkpoint FILE".to_string()),
        (None, false) => {}
    }
    Ok(SuiteArgs { runner, jobs, mode, mem_budget })
}

/// Resolves a target to (program, input): a workload name or a `.s` path.
fn resolve(target: &str, ds: DataSet) -> Result<(Program, InputSet), String> {
    if let Some(w) = Workload::by_name(target) {
        return Ok((w.program().clone(), w.input(ds).clone()));
    }
    if target.ends_with(".s") {
        let src =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read `{target}`: {e}"))?;
        let program = vp_asm::assemble(&src).map_err(|e| e.to_string())?;
        return Ok((program, InputSet::empty()));
    }
    if target.ends_with(".vpo") {
        let bytes = std::fs::read(target).map_err(|e| format!("cannot read `{target}`: {e}"))?;
        let program = Program::from_bytes(&bytes).map_err(|e| e.to_string())?;
        return Ok((program, InputSet::empty()));
    }
    Err(format!("`{target}` is neither a workload (try `vprof list`) nor a .s/.vpo file"))
}

fn list(_: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    writeln!(out, "{:<10} {:>8} description", "name", "instrs")?;
    for w in suite() {
        writeln!(out, "{:<10} {:>8} {}", w.name(), w.program().len(), w.description())?;
    }
    Ok(())
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let (program, input) = resolve(args.target()?, dataset(args))?;
    let mut machine =
        Machine::new(program, MachineConfig::new().input(input)).map_err(|e| e.to_string())?;
    let outcome = machine.run(BUDGET).map_err(|e| e.to_string())?;
    if !outcome.output.is_empty() {
        write!(out, "{}", outcome.output_text())?;
    }
    writeln!(out, "exit code    {}", outcome.exit_code)?;
    writeln!(out, "instructions {}", outcome.instructions)?;
    for (class, count) in machine.stats().per_class() {
        writeln!(out, "  {class:<9} {count}")?;
    }
    Ok(())
}

fn assemble_cmd(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let target = args.target()?;
    if !target.ends_with(".s") {
        return Err(format!("assemble expects a .s file, got `{target}`").into());
    }
    let out_path = args
        .value("-o")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{}.vpo", target.trim_end_matches(".s")));
    let src =
        std::fs::read_to_string(target).map_err(|e| format!("cannot read `{target}`: {e}"))?;
    let program = vp_asm::assemble(&src).map_err(|e| e.to_string())?;
    vp_core::durable::write_atomic(std::path::Path::new(&out_path), &program.to_bytes())
        .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
    writeln!(
        out,
        "wrote {out_path}: {} instructions, {} data bytes, {} procedures",
        program.len(),
        program.data().len(),
        program.procedures().len()
    )?;
    Ok(())
}

fn disasm(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let (program, _) = resolve(args.target()?, DataSet::Test)?;
    write!(out, "{program}")?;
    Ok(())
}

/// One engine profile of one target: full by default (a metric table and
/// the `--top N` hottest instructions) or `--convergent`, of its loads or
/// (`--all`) every register-defining instruction. `--save FILE` persists
/// the profile as a CRC-footered TSV.
fn profile(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let target = args.target()?;
    let (program, input) = resolve(target, dataset(args))?;
    let cfg = MachineConfig::new().input(input);
    let top = args.get("--top")?.unwrap_or(10);
    let (selection, what) = selection(args);
    let mode = if args.has("--convergent") { ProfileMode::Convergent } else { ProfileMode::Full };
    // A convergent profile prints no hottest list for `--top` to cut.
    if mode == ProfileMode::Convergent && args.value("--top").is_some() {
        return Err("--top is not supported with --convergent".to_string().into());
    }
    let mut profiler = mode.build(None);
    profiler
        .run_live(&Instrumenter::new().select(selection), &program, cfg, BUDGET)
        .map_err(|e| e.to_string())?;
    let metrics = profiler.metrics();
    if let Some(path) = args.value("--save") {
        vp_core::durable::write_profile(std::path::Path::new(path), &metrics)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        writeln!(out, "saved {} entities to {path}", metrics.len())?;
    }
    let rows = [row(target, &metrics)];

    if mode == ProfileMode::Convergent {
        writeln!(out, "{}", render_metric_table(&format!("convergent profile: {what}"), &rows))?;
        writeln!(out, "profiled {:.2}% of executions", profiler.profile_fraction() * 100.0)?;
        return Ok(());
    }

    writeln!(out, "{}", render_metric_table(&format!("value profile: {what}"), &rows))?;
    let mut ms = metrics;
    ms.sort_by_key(|m| std::cmp::Reverse(m.executions));
    writeln!(out, "hottest instructions:")?;
    for m in ms.into_iter().take(top) {
        writeln!(
            out,
            "  [{:>5}] {:<24} execs {:>9}  inv-top1 {:5.1}%  lvp {:5.1}%  top {:?}",
            m.id,
            program.code()[m.id as usize].to_string(),
            m.executions,
            m.inv_top1 * 100.0,
            m.lvp * 100.0,
            m.top_value
        )?;
    }
    Ok(())
}

/// Profiles the whole workload suite, optionally across worker threads.
/// One workload per worker, so `--jobs N` output matches a serial run.
/// Run telemetry lands in `--telemetry FILE` (default: `$VP_TELEMETRY`,
/// else `telemetry.jsonl`); inspect it with `vprof stats <file>`.
///
/// The run is fault-tolerant: a workload that panics is retried
/// (`--retries N` rounds, default 2) and quarantined when the budget is
/// exhausted — the rest of the suite still completes, quarantined
/// workloads are listed in a failure table, and the fault counters land
/// in telemetry. With `--checkpoint FILE` each finished workload is
/// durably persisted as it completes; `--resume` restores those instead
/// of re-profiling them, producing output identical to an uninterrupted
/// run. `$VP_FAULTS` arms deterministic fault injection (see
/// `vp_core::fault`).
///
/// `--deadline-ms N` arms a per-workload wall-clock deadline: an attempt
/// still running when it fires is cancelled cooperatively, counted as a
/// timeout (distinct from a panic), retried, and quarantined when the
/// retry budget runs out. `--mem-budget-mb N` caps each workload's
/// profiler memory: over budget, entities degrade full-profile →
/// TNV-only → dropped (see `vp_core::govern`), and the governor counters
/// land in the output and telemetry.
fn profile_suite(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    use vp_obs::MemRecorder;

    let ds = dataset(args);
    let (selection, what) = selection(args);
    let SuiteArgs { runner, jobs, mode, mem_budget } = suite_args(args)?;
    let telemetry_path =
        args.value("--telemetry").map_or_else(vp_bench::default_path, std::path::PathBuf::from);
    let recorder = Arc::new(MemRecorder::new());
    let runner = runner
        .selection(selection)
        .recorder(recorder.clone())
        .measure_baseline(args.has("--baseline"));
    let outcome = runner.try_run(ds);
    let profile = &outcome.profile;
    writeln!(
        out,
        "{}",
        profile.render(&format!("suite value profile: {what} [{} data set]", ds.name()))
    )?;
    if mode != ProfileMode::Full {
        writeln!(out, "profiled fraction per workload:")?;
        for w in &profile.workloads {
            writeln!(out, "  {:<10} {:6.2}%", w.name, w.profile_fraction * 100.0)?;
        }
    }
    if let ProfileMode::Adaptive(budget) = mode {
        writeln!(
            out,
            "adaptive phase detection (window {}, max {} re-arms/instruction):",
            budget.window, budget.max_rearms
        )?;
        write_stats_rows(out, profile)?;
    }
    if args.has("--baseline") {
        writeln!(out, "slowdown vs uninstrumented replay:")?;
        for w in &profile.workloads {
            match w.slowdown() {
                Some(s) => writeln!(out, "  {:<10} {s:6.2}x", w.name)?,
                None => writeln!(out, "  {:<10}      -", w.name)?,
            }
        }
    }
    let (pool, agg) = profile.pooled();
    writeln!(
        out,
        "pooled: {} sites, {} executions, inv-top1 {:.1}%, lvp {:.1}%",
        pool.len(),
        agg.executions,
        agg.inv_top1 * 100.0,
        agg.lvp * 100.0
    )?;
    writeln!(
        out,
        "{} workloads, {} dynamic instructions total",
        profile.workloads.len(),
        profile.total_instructions()
    )?;
    if let Some(budget) = mem_budget {
        writeln!(out, "governor (budget {} bytes/workload):", budget.limit_bytes())?;
        write_stats_rows(out, profile)?;
    }
    if !outcome.is_clean() {
        writeln!(out)?;
        write!(out, "{}", outcome.render_failures())?;
    }

    let mode = format!("{}-{}", mode_name(mode), if args.has("--all") { "all" } else { "loads" });
    let mut records =
        vp_bench::suite_records("profile-suite", ds, jobs, &mode, profile, Some(&recorder));
    records.extend(vp_bench::fault_records("profile-suite", &outcome));
    vp_bench::write_jsonl(&telemetry_path, &records)
        .map_err(|e| format!("cannot write `{}`: {e}", telemetry_path.display()))?;
    writeln!(out, "telemetry: {} ({} records)", telemetry_path.display(), records.len())?;
    Ok(())
}

/// Writes `profile-suite`'s row for each workload's stats section, and a
/// warning when the memory governor dropped any entity outright.
fn write_stats_rows(out: &mut dyn Write, profile: &SuiteProfile) -> io::Result<()> {
    let mut dropped = 0;
    for w in &profile.workloads {
        match w.stats {
            Some(ProfilerStats::Governor(g)) => {
                dropped += g.entities_dropped;
                writeln!(
                    out,
                    "  {:<10} peak {:>12}  degraded {:>6}  dropped {:>6}  obs dropped {:>9}",
                    w.name,
                    g.bytes_peak,
                    g.entities_degraded,
                    g.entities_dropped,
                    g.observations_dropped
                )?;
            }
            Some(ProfilerStats::Phase(ph)) => writeln!(
                out,
                "  {:<10} windows {:>8}  shifts {:>6}  rearms {:>5}  denied {:>5}",
                w.name, ph.windows, ph.shifts_detected, ph.rearms, ph.rearms_denied
            )?,
            None => {}
        }
    }
    if dropped > 0 {
        writeln!(
            out,
            "warning: {dropped} entities dropped — raise --mem-budget-mb to recover them"
        )?;
    }
    Ok(())
}

/// Renders a human-readable summary of a `telemetry.jsonl` file. A final
/// line torn by a crash mid-append is dropped with a warning (exit 0) —
/// every complete record still gets summarized. An absent or empty file
/// (e.g. a serve daemon that never admitted a session) is not an error:
/// it prints a clean "no records" line and exits 0. Corruption anywhere
/// else is an error.
fn stats_cmd(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let target = args.target()?;
    let text = match std::fs::read_to_string(target) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            writeln!(out, "{target}: no telemetry records")?;
            return Ok(());
        }
        Err(e) => return Err(format!("cannot read `{target}`: {e}").into()),
    };
    let parsed = vp_obs::telemetry::parse_jsonl_lenient(&text)?;
    if let Some(reason) = &parsed.dropped_tail {
        // A torn tail with nothing before it recovered zero records —
        // that is corruption, not a clean empty file.
        if parsed.records.is_empty() {
            return Err(format!("{target}: no records recovered ({reason})").into());
        }
        eprintln!(
            "warning: {target}: dropped torn final line ({reason}); recovered {} record(s)",
            parsed.records.len()
        );
    }
    if parsed.records.is_empty() {
        writeln!(out, "{target}: no telemetry records")?;
        return Ok(());
    }
    write!(out, "{}", vp_obs::stats::summarize_records(&parsed.records)?)?;
    Ok(())
}

/// `vprof serve`: runs the multi-tenant profile-ingestion daemon on a
/// Unix-domain socket until SIGTERM or a client's `SHUTDOWN` frame
/// drains it. Every session checkpoints through the durable layer, so a
/// `kill -9` + restart with `--resume` loses nothing a client cannot
/// retransmit.
fn serve_cmd(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    use vp_bench::serve::{serve, ServeConfig};
    let socket =
        args.value("--socket").ok_or_else(|| format!("serve needs --socket PATH\n{USAGE}"))?;
    let state_dir =
        args.value("--state-dir").map_or_else(|| format!("{socket}.state"), str::to_string);
    let mut cfg =
        ServeConfig::new(std::path::PathBuf::from(socket), std::path::PathBuf::from(state_dir));
    cfg.max_sessions = args.at_least("--max-sessions", 1)?.unwrap_or(cfg.max_sessions);
    cfg.max_tenants = args.at_least("--max-tenants", 1)?.unwrap_or(cfg.max_tenants);
    cfg.tenant_sessions = args.at_least("--tenant-sessions", 1)?.unwrap_or(cfg.tenant_sessions);
    cfg.idle = args.get("--idle-ms")?.map(Duration::from_millis);
    cfg.deadline = args.get("--deadline-ms")?.map(Duration::from_millis);
    (cfg.mode, cfg.mem_budget) = mode_arg(args)?;
    cfg.resume = args.has("--resume");
    // Telemetry is opt-in: a flag or the environment, never by default.
    cfg.telemetry = args.value("--telemetry").map(std::path::PathBuf::from).or_else(|| {
        std::env::var_os(vp_bench::telemetry::TELEMETRY_ENV).map(|_| vp_bench::default_path())
    });
    let telemetry = cfg.telemetry.clone();
    let report = serve(cfg)?;
    writeln!(
        out,
        "serve: {} completed, {} killed, {} rejected, {} chunks acked",
        report.counts.get(vp_obs::CounterId::SessionCompleted),
        report.counts.get(vp_obs::CounterId::SessionKilled),
        report.counts.get(vp_obs::CounterId::SessionRejected),
        report.counts.get(vp_obs::CounterId::ChunksAcked),
    )?;
    if let Some(path) = telemetry {
        writeln!(out, "telemetry: {} ({} records)", path.display(), report.records().len())?;
    }
    Ok(())
}

/// `vprof client`: streams a recorded `.vpc` trace into a serve daemon
/// chunk by chunk, keeping at most [`vp_bench::serve::WINDOW`] chunks
/// unacknowledged, and fetches the final profile. Reconnecting after a
/// server crash resumes from the durable cursor in `HELLO_OK` —
/// already-acknowledged chunks are skipped, the rest retransmitted.
fn client_cmd(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    use std::os::unix::net::UnixStream;
    use vp_bench::serve;
    use vp_instrument::net::{self, ChunkView, MsgError, SessionMsg};
    let sock =
        args.value("--connect").ok_or_else(|| format!("client needs --connect SOCK\n{USAGE}"))?;
    let connect =
        || UnixStream::connect(sock).map_err(|e| format!("cannot connect to `{sock}`: {e}"));
    if args.has("--shutdown") {
        let mut stream = connect()?;
        vp_instrument::frame::write_magic(&mut stream)
            .and_then(|()| net::write_msg(&mut stream, &SessionMsg::Shutdown))
            .map_err(|e| format!("cannot send shutdown: {e}"))?;
        writeln!(out, "shutdown requested")?;
        return Ok(());
    }
    let target = args.target()?;
    let tenant = args.value("--tenant").unwrap_or("default").to_string();
    let workload = args
        .value("--workload")
        .map(str::to_string)
        .or_else(|| {
            std::path::Path::new(target).file_stem().map(|s| s.to_string_lossy().replace('.', "_"))
        })
        .ok_or_else(|| format!("cannot derive a workload name from `{target}`; use --workload"))?;
    let bytes = std::fs::read(target).map_err(|e| format!("cannot read `{target}`: {e}"))?;
    let chunks =
        vp_instrument::trace_codec::raw_chunks(&bytes).map_err(|e| format!("{target}: {e}"))?;
    let total = chunks.len() as u64;
    let events: u64 = chunks.iter().map(|c| u64::from(c.count)).sum();
    let mut stream = connect()?;
    let mut reader = vp_instrument::FrameReader::new(
        stream.try_clone().map_err(|e| format!("cannot clone socket: {e}"))?,
    );
    let send = |stream: &mut UnixStream, msg: &SessionMsg| {
        net::write_msg(stream, msg).map_err(|e| format!("connection lost: {e}"))
    };
    vp_instrument::frame::write_magic(&mut stream).map_err(|e| format!("connection lost: {e}"))?;
    send(&mut stream, &SessionMsg::Hello { tenant: tenant.clone(), workload: workload.clone() })?;
    reader.expect_magic().map_err(|e| format!("bad server greeting: {e}"))?;
    let recv = |reader: &mut vp_instrument::FrameReader<UnixStream>| match net::read_msg(reader) {
        Ok(msg) => Ok(msg),
        Err(MsgError::Frame(vp_instrument::FrameError::PeerClosed)) => {
            Err("server closed the connection mid-session".to_string())
        }
        Err(e) => Err(format!("bad server reply: {e}")),
    };
    let start = match recv(&mut reader)? {
        SessionMsg::HelloOk { acked } => acked,
        SessionMsg::Busy { reason } => return Err(format!("server busy: {reason}").into()),
        SessionMsg::Err { reason } => return Err(format!("session refused: {reason}").into()),
        other => return Err(format!("unexpected reply to HELLO: {other:?}").into()),
    };
    let mut acked = start;
    for seq in start..total {
        // The inflight window: block on ACKs before overrunning it. The
        // daemon acks every `CHECKPOINT_EVERY` chunks, which the window
        // always covers.
        while seq - acked >= serve::WINDOW {
            match recv(&mut reader)? {
                SessionMsg::Ack { acked: a } => acked = a,
                SessionMsg::Err { reason } => {
                    return Err(format!("session killed: {reason}").into())
                }
                other => return Err(format!("unexpected reply mid-stream: {other:?}").into()),
            }
        }
        // Framed straight from the trace bytes: one copy, one CRC pass.
        let chunk = &chunks[seq as usize];
        ChunkView { seq, count: chunk.count, crc: chunk.crc, payload: chunk.payload }
            .write(&mut stream)
            .map_err(|e| format!("connection lost: {e}"))?;
    }
    if args.has("--query") {
        send(&mut stream, &SessionMsg::Query)?;
        loop {
            match recv(&mut reader)? {
                SessionMsg::Stats { json } => {
                    writeln!(out, "stats: {json}")?;
                    break;
                }
                // END_OK carries the final cursor; interim acks are noise.
                SessionMsg::Ack { .. } => {}
                SessionMsg::Err { reason } => {
                    return Err(format!("session killed: {reason}").into())
                }
                other => return Err(format!("unexpected reply to QUERY: {other:?}").into()),
            }
        }
    }
    send(&mut stream, &SessionMsg::End)?;
    let profile = loop {
        match recv(&mut reader)? {
            SessionMsg::EndOk { acked: a, profile } => {
                acked = a;
                break profile;
            }
            SessionMsg::Ack { .. } => {}
            SessionMsg::Err { reason } => return Err(format!("session killed: {reason}").into()),
            other => return Err(format!("unexpected reply to END: {other:?}").into()),
        }
    };
    if let Some(path) = args.value("--save") {
        vp_core::durable::write_atomic(std::path::Path::new(path), profile.as_bytes())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    writeln!(
        out,
        "client {tenant}/{workload}: {total} chunks ({events} events), {acked} acked, resumed at {start}"
    )?;
    Ok(())
}

/// Integrity-checks a profile file written by `profile --save`: verifies
/// the trailing CRC32 footer against the content. `--lenient` instead
/// salvages every row that parses and reports what was recovered.
fn verify_cmd(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    use vp_core::IntegrityMode;
    let target = args.target()?;
    let mode = if args.has("--lenient") { IntegrityMode::Lenient } else { IntegrityMode::Strict };
    let checked = vp_core::load_profile(std::path::Path::new(target), mode)
        .map_err(|e| format!("{target}: {e}"))?;
    writeln!(out, "{target}: {}", checked.integrity)?;
    Ok(())
}

/// Records a workload's selected `(pc, value)` stream into the chunked,
/// CRC-checked binary trace format (`vp_instrument::trace_codec`). The
/// workload executes once; `vprof replay` can then re-profile the trace
/// any number of times, in any mode, without re-running it.
/// `--deadline-ms N` bounds the recording run's wall clock: a run past
/// its deadline is cancelled cooperatively and no trace file is written.
fn record_cmd(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let target = args.target()?;
    let (program, input) = resolve(target, dataset(args))?;
    let selection = selection(args).0;
    let deadline = args.get("--deadline-ms")?.map(Duration::from_millis);
    let path = args.value("-o").map(str::to_owned).unwrap_or_else(|| format!("{target}.vpc"));
    // Small traces fit one default-sized chunk; `--chunk-events` forces
    // more chunk boundaries so checkpoint/ACK paths can be exercised.
    let chunk_events = args
        .at_least("--chunk-events", 1)?
        .unwrap_or(vp_instrument::trace_codec::DEFAULT_CHUNK_EVENTS);
    struct Recorder(vp_instrument::TraceEncoder);
    impl vp_instrument::Analysis for Recorder {
        const VALUE_STREAM: bool = true;

        fn observe_values(&mut self, events: &[(u32, u64)]) {
            self.0.push_all(events);
        }
    }
    let mut rec = Recorder(vp_instrument::TraceEncoder::with_chunk_events(chunk_events));
    let run = |rec: &mut Recorder| {
        Instrumenter::new()
            .select(selection)
            .run(&program, MachineConfig::new().input(input.clone()), BUDGET, rec)
            .map_err(|e| e.to_string())
            .map(|_| ())
    };
    match deadline {
        Some(d) => vp_instrument::cancel::run_with_deadline(d, || run(&mut rec))
            .map_err(|_| format!("record {target}: deadline exceeded"))??,
        None => run(&mut rec)?,
    }
    let bytes = rec.0.finish();
    let stats = vp_instrument::trace_codec::stats(&bytes).map_err(|e| e.to_string())?;
    vp_core::durable::write_atomic(std::path::Path::new(&path), &bytes)
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    writeln!(
        out,
        "wrote {path}: {} events, {} chunks, {} bytes",
        stats.events, stats.chunks, stats.bytes
    )?;
    Ok(())
}

/// Replays a binary trace written by `vprof record` through the value
/// profiler of the chosen mode (full by default; `--convergent` or
/// `--adaptive` reweight metrics to true totals, so the table is directly
/// comparable to a full replay's). An empty trace replays to the same
/// zero-row profile an empty workload produces; a corrupt or truncated
/// trace is rejected, never mis-decoded. `--deadline-ms N` bounds the
/// replay's wall clock (checked at every chunk boundary);
/// `--mem-budget-mb N` caps the full profiler's memory via the
/// degradation ladder (`vp_core::govern`).
fn replay_cmd(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let target = args.target()?;
    let deadline = args.get("--deadline-ms")?.map(Duration::from_millis);
    let (mode, mem_budget) = mode_arg(args)?;
    // The trace is read once, and every chunk decodes straight out of it.
    let bytes = std::fs::read(target).map_err(|e| format!("cannot read `{target}`: {e}"))?;
    // The whole decode-and-profile pass runs under the optional deadline;
    // every chunk boundary is a cancellation checkpoint.
    let replay = || -> Result<(vp_core::Profiler, u64, u64), String> {
        let mut reader = ChunkReader::new(&bytes).map_err(|e| format!("{target}: {e}"))?;
        let profiler =
            mode.profile_trace(mem_budget, &mut reader).map_err(|e| format!("{target}: {e}"))?;
        Ok((profiler, reader.events_read(), reader.chunks_read() as u64))
    };
    let (profiler, events_read, chunks_read) = match deadline {
        Some(d) => vp_instrument::cancel::run_with_deadline(d, replay)
            .map_err(|_| format!("replay {target}: deadline exceeded"))??,
        None => replay()?,
    };
    if let Some(path) = args.value("--save") {
        vp_core::durable::write_profile(std::path::Path::new(path), &profiler.metrics())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    let rows = [row(target, &profiler.metrics())];
    let title = match mode {
        ProfileMode::Full => "value profile".to_string(),
        _ => format!("{} value profile", mode_name(mode)),
    };
    writeln!(
        out,
        "{}",
        render_metric_table(
            &format!("{title} replayed from {target} ({events_read} events, {chunks_read} chunks)"),
            &rows
        )
    )?;
    if mode != ProfileMode::Full {
        writeln!(out, "profiled fraction: {:6.2}%", profiler.profile_fraction() * 100.0)?;
    }
    match (profiler.stats(), mode) {
        (Some(ProfilerStats::Governor(g)), _) => writeln!(
            out,
            "governor: peak {} bytes, degraded {}, dropped {}, obs dropped {}",
            g.bytes_peak, g.entities_degraded, g.entities_dropped, g.observations_dropped
        )?,
        (Some(ProfilerStats::Phase(ph)), ProfileMode::Adaptive(budget)) => writeln!(
            out,
            "adaptive: windows {}, shifts {}, rearms {}, denied {} (window {}, max {} re-arms)",
            ph.windows,
            ph.shifts_detected,
            ph.rearms,
            ph.rearms_denied,
            budget.window,
            budget.max_rearms
        )?,
        _ => {}
    }
    Ok(())
}

/// `vprof experiment <E#|all>`: renders the selected paper experiments
/// (registered in `vp_bench::experiments::ALL`) over the whole suite,
/// each report's text followed by a blank line. Their telemetry records
/// are written once, atomically, to `--telemetry` (default
/// `$VP_TELEMETRY`, else `telemetry.jsonl`) — and only when there are
/// any, so a text-only experiment leaves an existing file untouched.
fn experiment_cmd(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let path =
        args.value("--telemetry").map_or_else(vp_bench::default_path, std::path::PathBuf::from);
    let records = run_experiments(args, out)?;
    if !records.is_empty() {
        vp_bench::write_jsonl(&path, &records)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs the experiments `experiment`'s target selects, in E-order, on
/// `--jobs` threads. Writes each report's text to `out` as soon as it is
/// rendered and returns every report's records.
fn run_experiments(args: &Args, out: &mut dyn Write) -> Result<Vec<Json>, Failure> {
    let target = args.target()?;
    let selected: Vec<&Experiment> = if target == "all" {
        experiments::ALL.iter().collect()
    } else {
        let exp = experiments::by_id(target).ok_or_else(|| {
            let ids: Vec<&str> = experiments::ALL.iter().map(|e| e.id).collect();
            format!("unknown experiment `{target}` (expected {} or all)", ids.join(", "))
        })?;
        vec![exp]
    };
    let jobs = args.get("--jobs")?.unwrap_or(1);
    let workloads = suite();
    let mut records = Vec::new();
    for exp in selected {
        let report = (exp.run)(&workloads, jobs);
        writeln!(out, "{}", report.text)?;
        records.extend(report.records);
    }
    Ok(records)
}

/// `vprof optimize`: the end-to-end PGO loop. Profiles the suite on the
/// *train* input (through `SuiteRunner`, so `--jobs`, the governor,
/// checkpointing and fault injection all apply), plans
/// semi-invariant candidates from the per-load metrics, specializes each
/// program behind runtime guards, and re-runs original vs specialized on
/// the *test* input. Emits the cross-input report as a deterministic
/// table, a durable CRC-footered artifact (`--report FILE`), and
/// parallelism-invariant telemetry records (`vprof stats` renders them as
/// an `optimize` section).
fn optimize_cmd(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    use vp_bench::OptimizeConfig;
    use vp_obs::MemRecorder;

    let mut cfg = OptimizeConfig::default();
    let candidates = &mut cfg.options.candidates;
    let fraction = |p: &f64| (0.0..=1.0).contains(p);
    candidates.min_invariance = args
        .get_if("--min-invariance", fraction, " (want a fraction in 0..=1)")?
        .unwrap_or(candidates.min_invariance);
    candidates.min_executions = args.get("--min-executions")?.unwrap_or(candidates.min_executions);
    cfg.options.max_ways = args.at_least("--max-ways", 1)?.unwrap_or(cfg.options.max_ways);
    // Parsed after the optimizer options: it creates the checkpoint file.
    let SuiteArgs { runner, mode, .. } = suite_args(args)?;
    let telemetry_path =
        args.value("--telemetry").map_or_else(vp_bench::default_path, std::path::PathBuf::from);
    let report_path = args.value("--report").unwrap_or("optimize-report.txt");

    // The profiling pass: loads only, on the train input. These metrics
    // select the sites and give each its first guard value (a sampled
    // one in `--convergent`/`--adaptive`); an exact per-workload pass
    // inside `optimize_from_outcome` only offers further guard values.
    let recorder = Arc::new(MemRecorder::new());
    let runner = runner.selection(Selection::LoadsOnly).recorder(recorder.clone());
    let mode = mode_name(mode);
    let workloads = vp_workloads::suite();
    let outcome = runner.try_run_workloads(&workloads, cfg.train);

    let report = vp_bench::optimize_from_outcome(&outcome, &workloads, mode, &cfg)?;
    write!(out, "{}", report.render())?;
    if !outcome.is_clean() {
        writeln!(out)?;
        write!(out, "{}", outcome.render_failures())?;
    }
    if !report.all_equivalent() {
        writeln!(
            out,
            "warning: specialized output diverged from the original — guards failed to preserve behaviour"
        )?;
    }
    report
        .write_report(std::path::Path::new(report_path))
        .map_err(|e| format!("cannot write `{report_path}`: {e}"))?;
    writeln!(out, "report: {report_path} ({} workloads)", report.workloads.len())?;

    let mut records = report.optimize_records("optimize");
    records.extend(vp_bench::fault_records("optimize", &outcome));
    vp_bench::write_jsonl(&telemetry_path, &records)
        .map_err(|e| format!("cannot write `{}`: {e}", telemetry_path.display()))?;
    writeln!(out, "telemetry: {} ({} records)", telemetry_path.display(), records.len())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Runs a command line, discarding its output; a failure is its
    /// message.
    fn vprof(list: &[&str]) -> Result<(), String> {
        dispatch(&args(list), &mut io::sink()).map_err(|e| e.to_string())
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(vprof(&["--help"]).is_ok());
        assert!(vprof(&[]).is_ok());
        let err = vprof(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn list_runs() {
        assert!(vprof(&["list"]).is_ok());
    }

    #[test]
    fn run_and_profile_workloads() {
        assert!(vprof(&["run", "vortex"]).is_ok());
        assert!(vprof(&["run", "vortex", "--train"]).is_ok());
        assert!(vprof(&["profile", "vortex", "--top", "3"]).is_ok());
        assert!(vprof(&["profile", "vortex", "--all"]).is_ok());
        assert!(vprof(&["profile", "vortex", "--convergent"]).is_ok());
        assert!(vprof(&["disasm", "vortex"]).is_ok());
    }

    #[test]
    fn profile_suite_serial_and_parallel() {
        let dir = std::env::temp_dir().join("vprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("suite.jsonl");
        let tel = tel.to_str().unwrap();
        assert!(vprof(&["profile-suite", "--telemetry", tel]).is_ok());
        assert!(vprof(&["profile-suite", "--jobs", "4", "--train", "--telemetry", tel]).is_ok());
        assert!(vprof(&[
            "profile-suite",
            "--all",
            "--convergent",
            "--jobs",
            "2",
            "--baseline",
            "--telemetry",
            tel
        ])
        .is_ok());
    }

    #[test]
    fn optimize_rejects_bad_flags() {
        assert!(vprof(&["optimize", "--convergent", "--adaptive"])
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(vprof(&["optimize", "--resume"]).unwrap_err().contains("--resume requires"));
    }

    #[test]
    fn stats_summarizes_telemetry() {
        let dir = std::env::temp_dir().join("vprof-cli-test-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("stats.jsonl");
        let tel_s = tel.to_str().unwrap();
        assert!(vprof(&["profile-suite", "--telemetry", tel_s]).is_ok());
        let text = std::fs::read_to_string(&tel).unwrap();
        assert!(text.lines().next().unwrap().contains("\"kind\":\"run\""));
        assert!(vprof(&["stats", tel_s]).is_ok());
        // Absent and empty telemetry are clean no-record runs, exit 0 —
        // the shape a serve daemon that admitted no session leaves.
        assert!(vprof(&["stats", "/nonexistent/telemetry.jsonl"]).is_ok());
        std::fs::write(&tel, "").unwrap();
        assert!(vprof(&["stats", tel_s]).is_ok());
        // A present-but-corrupt file is still an error.
        std::fs::write(&tel, "not json\n").unwrap();
        assert!(vprof(&["stats", tel_s]).is_err());
        // A directory is unreadable for a reason other than absence.
        assert!(vprof(&["stats", dir.to_str().unwrap()]).unwrap_err().contains("cannot read"));
    }

    #[test]
    fn verify_detects_corruption() {
        let dir = std::env::temp_dir().join("vprof-cli-test-verify");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("profile.tsv");
        let out_s = out.to_str().unwrap();
        assert!(vprof(&["profile", "vortex", "--save", out_s]).is_ok());
        assert!(vprof(&["verify", out_s]).is_ok());
        assert!(vprof(&["verify", out_s, "--lenient"]).is_ok());
        // Flip one digit in a data row (not the header): strict
        // verification fails, lenient recovers.
        let text = std::fs::read_to_string(&out).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        let corrupted = format!("{header}\n{}", body.replacen('1', "2", 1));
        assert_ne!(text, corrupted);
        std::fs::write(&out, corrupted).unwrap();
        let err = vprof(&["verify", out_s]).unwrap_err();
        assert!(err.contains("crc32 mismatch"), "{err}");
        assert!(vprof(&["verify", out_s, "--lenient"]).is_ok());
        assert!(vprof(&["verify", "/nonexistent.tsv"]).is_err());
    }

    #[test]
    fn checkpointed_suite_runs_and_resumes() {
        let dir = std::env::temp_dir().join("vprof-cli-test-checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("t.jsonl");
        let ckpt = dir.join("c.jsonl");
        let (tel_s, ckpt_s) = (tel.to_str().unwrap(), ckpt.to_str().unwrap());
        assert!(vprof(&["profile-suite", "--telemetry", tel_s, "--checkpoint", ckpt_s]).is_ok());
        assert!(ckpt.exists());
        // Resuming a complete checkpoint re-runs nothing and still works.
        assert!(vprof(&[
            "profile-suite",
            "--telemetry",
            tel_s,
            "--checkpoint",
            ckpt_s,
            "--resume"
        ])
        .is_ok());
        assert!(vprof(&["profile-suite", "--resume"]).unwrap_err().contains("--resume requires"));
    }

    #[test]
    fn governed_suite_writes_governor_telemetry() {
        let dir = std::env::temp_dir().join("vprof-cli-test-governor");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("g.jsonl");
        let tel_s = tel.to_str().unwrap();
        // A generous budget and deadline leave the suite clean, emit the
        // governor section, and land governor objects in telemetry.
        assert!(vprof(&[
            "profile-suite",
            "--telemetry",
            tel_s,
            "--mem-budget-mb",
            "64",
            "--deadline-ms",
            "60000"
        ])
        .is_ok());
        let text = std::fs::read_to_string(&tel).unwrap();
        assert!(text.contains("\"governor\""), "{text}");
        assert!(vprof(&["stats", tel_s]).is_ok());
    }

    #[test]
    fn record_and_replay_accept_governor_flags() {
        let dir = std::env::temp_dir().join("vprof-cli-test-governed-replay");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("li.vpc");
        let out_s = out.to_str().unwrap();
        assert!(vprof(&["record", "li", "-o", out_s, "--deadline-ms", "60000"]).is_ok());
        // A generous budget replays to the same profile as an ungoverned
        // replay.
        let plain = dir.join("plain.tsv");
        let governed = dir.join("governed.tsv");
        assert!(vprof(&["replay", out_s, "--save", plain.to_str().unwrap()]).is_ok());
        assert!(vprof(&[
            "replay",
            out_s,
            "--mem-budget-mb",
            "64",
            "--deadline-ms",
            "60000",
            "--save",
            governed.to_str().unwrap()
        ])
        .is_ok());
        assert_eq!(std::fs::read(&plain).unwrap(), std::fs::read(&governed).unwrap());
    }

    #[test]
    fn adaptive_suite_and_flag_errors() {
        let dir = std::env::temp_dir().join("vprof-cli-test-adaptive");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("a.jsonl");
        let tel_s = tel.to_str().unwrap();
        assert!(vprof(&[
            "profile-suite",
            "--adaptive",
            "--phase-window",
            "256",
            "--max-rearms",
            "4",
            "--telemetry",
            tel_s
        ])
        .is_ok());
        let text = std::fs::read_to_string(&tel).unwrap();
        assert!(text.contains("\"phase\""), "{text}");
        assert!(text.contains("\"mode\":\"adaptive-loads\""), "{text}");
        assert!(vprof(&["stats", tel_s]).is_ok());
        // Non-adaptive telemetry carries no phase objects.
        assert!(vprof(&["profile-suite", "--telemetry", tel_s]).is_ok());
        let text = std::fs::read_to_string(&tel).unwrap();
        assert!(!text.contains("\"phase\""), "{text}");
        // Flag validation.
        assert!(vprof(&["profile-suite", "--adaptive", "--convergent"])
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(vprof(&["profile-suite", "--phase-window", "64"])
            .unwrap_err()
            .contains("require --adaptive"));
    }

    #[test]
    fn adaptive_replay_applies_the_window_override() {
        let dir = std::env::temp_dir().join("vprof-cli-test-adaptive-replay");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("li.vpc");
        let out_s = out.to_str().unwrap();
        assert!(vprof(&["record", "li", "-o", out_s]).is_ok());
        let [replayed, expected] = ["replayed.tsv", "expected.tsv"].map(|n| dir.join(n));
        assert!(vprof(&[
            "replay",
            out_s,
            "--adaptive",
            "--phase-window",
            "256",
            "--save",
            replayed.to_str().unwrap()
        ])
        .is_ok());
        // The replay profiled with the overridden window, not the default.
        let mode = ProfileMode::Adaptive(PhaseBudget { window: 256, ..PhaseBudget::default() });
        let bytes = std::fs::read(&out).unwrap();
        let profiler = mode.profile_trace(None, &mut ChunkReader::new(&bytes).unwrap()).unwrap();
        vp_core::durable::write_profile(&expected, &profiler.metrics()).unwrap();
        assert_eq!(std::fs::read(&replayed).unwrap(), std::fs::read(&expected).unwrap());
        assert!(vprof(&["replay", out_s, "--adaptive", "--mem-budget-mb", "64"])
            .unwrap_err()
            .contains("not supported with --adaptive"));
        assert!(vprof(&["replay", out_s, "--max-rearms", "4"])
            .unwrap_err()
            .contains("require --adaptive"));
    }

    #[test]
    fn mem_budget_is_rejected_outside_full_mode() {
        // Only the full profiler is governed: a budget with a sampling
        // mode used to be silently ignored by profile-suite and optimize.
        for cmd in [&["profile-suite"][..], &["optimize"], &["serve", "--socket", "unused.sock"]] {
            for (mode, name) in [("--convergent", "convergent"), ("--adaptive", "adaptive")] {
                let argv: Vec<&str> =
                    cmd.iter().copied().chain([mode, "--mem-budget-mb", "8"]).collect();
                let err = vprof(&argv).unwrap_err();
                assert!(err.contains(&format!("not supported with --{name}")), "{argv:?}: {err}");
            }
        }
    }

    #[test]
    fn convergent_replay_differs_from_a_full_replay() {
        let dir = std::env::temp_dir().join("vprof-cli-test-convergent-replay");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("li.vpc");
        let out_s = out.to_str().unwrap();
        assert!(vprof(&["record", "li", "-o", out_s]).is_ok());
        let [full, convergent] = ["full", "convergent"].map(|n| dir.join(n));
        assert!(vprof(&["replay", out_s, "--save", full.to_str().unwrap()]).is_ok());
        let convergent_s = convergent.to_str().unwrap();
        assert!(vprof(&["replay", out_s, "--convergent", "--save", convergent_s]).is_ok());
        assert_ne!(std::fs::read(&convergent).unwrap(), std::fs::read(&full).unwrap());
        assert!(vprof(&["replay", out_s, "--convergent", "--mem-budget-mb", "64"])
            .unwrap_err()
            .contains("not supported with --convergent"));
    }

    #[test]
    fn profile_save_matches_replay_in_full_and_convergent_mode() {
        let dir = std::env::temp_dir().join("vprof-cli-test-profile-save");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("li.vpc");
        let trace_s = trace.to_str().unwrap();
        assert!(vprof(&["record", "li", "--all", "-o", trace_s]).is_ok());
        for mode in [None, Some("--convergent")] {
            let [live, replayed] = ["live", "replayed"].map(|n| dir.join(n));
            let _ = std::fs::remove_file(&live);
            let mut profile = vec!["profile", "li", "--all", "--save", live.to_str().unwrap()];
            let mut replay = vec!["replay", trace_s, "--save", replayed.to_str().unwrap()];
            profile.extend(mode);
            replay.extend(mode);
            assert!(vprof(&profile).is_ok(), "{mode:?}");
            assert!(vprof(&replay).is_ok(), "{mode:?}");
            let saved = std::fs::read(&live).unwrap();
            assert_eq!(saved, std::fs::read(&replayed).unwrap(), "{mode:?}");
            assert!(vprof(&["verify", live.to_str().unwrap()]).is_ok());
        }
    }

    #[test]
    fn experiment_rejects_an_unknown_id() {
        let err = vprof(&["experiment", "E99"]).unwrap_err();
        assert!(err.contains("`E99`"), "{err}");
        assert!(err.contains("E1, E2, E3") && err.contains("E17 or all"), "{err}");
    }

    #[test]
    fn experiment_output_is_independent_of_jobs() {
        let stdout = |jobs: &str| {
            let argv = args(&["experiment", "E8", "--jobs", jobs]);
            let mut text = Vec::new();
            run_experiments(&split(&argv).unwrap(), &mut text).unwrap();
            text
        };
        assert_eq!(stdout("4"), stdout("1"));
    }

    #[test]
    fn experiment_writes_only_its_own_records() {
        let dir = std::env::temp_dir().join("vprof-cli-test-experiment");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("experiment.jsonl");
        let tel_s = tel.to_str().unwrap();
        assert!(vprof(&["experiment", "E1", "--telemetry", tel_s]).is_ok());
        let written = vp_obs::telemetry::parse_jsonl(&std::fs::read_to_string(&tel).unwrap());
        assert_eq!(written.unwrap(), experiments::benchmarks(&suite(), 1).records);
        // E2 has no records, so it must not clobber the existing file.
        std::fs::write(&tel, "kept\n").unwrap();
        assert!(vprof(&["experiment", "E2", "--telemetry", tel_s]).is_ok());
        assert_eq!(std::fs::read_to_string(&tel).unwrap(), "kept\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_paths() {
        assert!(vprof(&["run"]).unwrap_err().contains("missing target"));
        assert!(vprof(&["run", "nonesuch"]).unwrap_err().contains("neither"));
        assert!(vprof(&["run", "/nonexistent/x.s"]).unwrap_err().contains("cannot read"));
        assert!(vprof(&["assemble", "notasm.txt"]).unwrap_err().contains("expects a .s"));
    }

    #[test]
    fn profile_save_writes_a_parseable_profile() {
        let dir = std::env::temp_dir().join("vprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("profile.tsv");
        assert!(vprof(&["profile", "vortex", "--save", out.to_str().unwrap()]).is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        let parsed = vp_core::parse_profile(&text).unwrap();
        assert!(!parsed.is_empty());
    }

    #[test]
    fn record_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("vprof-cli-test-record");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("li.vpc");
        let out_s = out.to_str().unwrap();
        assert!(vprof(&["record", "li", "-o", out_s]).is_ok());
        assert!(vprof(&["replay", out_s]).is_ok());
        // A replay with its flags given before the trace writes the same
        // profile as one with them after it.
        let [last, first] = ["flags-last.tsv", "flags-first.tsv"].map(|n| dir.join(n));
        assert!(vprof(&["replay", out_s, "--save", last.to_str().unwrap()]).is_ok());
        assert!(vprof(&["replay", "--save", first.to_str().unwrap(), out_s]).is_ok());
        assert_eq!(std::fs::read(&last).unwrap(), std::fs::read(&first).unwrap());
        // Corruption anywhere in the file is rejected, never mis-decoded.
        let mut bytes = std::fs::read(&out).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&out, &bytes).unwrap();
        assert!(vprof(&["replay", out_s]).is_err());
        std::fs::write(&out, b"junk").unwrap();
        assert!(vprof(&["replay", out_s]).is_err());
    }

    #[test]
    fn replay_empty_trace_matches_empty_workload() {
        let dir = std::env::temp_dir().join("vprof-cli-test-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("empty.vpc");
        let out_s = out.to_str().unwrap();
        // A trace with a header and trailer but zero events replays to a
        // zero-row profile without panicking, in every mode.
        std::fs::write(&out, vp_instrument::TraceEncoder::new().finish()).unwrap();
        let saved = dir.join("empty.tsv");
        assert!(vprof(&["replay", out_s, "--save", saved.to_str().unwrap()]).is_ok());
        assert!(vprof(&["replay", out_s, "--convergent"]).is_ok());
        assert!(vprof(&["replay", out_s, "--adaptive"]).is_ok());
        let text = std::fs::read_to_string(&saved).unwrap();
        assert!(vp_core::parse_profile(&text).unwrap().is_empty());
        // The bare magic with no trailer is truncated, not empty.
        std::fs::write(&out, b"VPC1").unwrap();
        assert!(vprof(&["replay", out_s]).is_err());
        // Each unreadable input is reported with its path and cause.
        let [missing, zero, cut] = ["missing.vpc", "zero.vpc", "cut.vpc"].map(|n| dir.join(n));
        std::fs::remove_file(&missing).ok();
        std::fs::write(&zero, b"").unwrap();
        let events: Vec<(u32, u64)> = (0..10_000u64).map(|i| ((i % 50) as u32, i)).collect();
        let trace = vp_instrument::trace_codec::encode(&events, 8192);
        std::fs::write(&cut, &trace[..5000]).unwrap();
        let [missing, zero, dir, cut] = [&missing, &zero, &dir, &cut].map(|p| p.to_str().unwrap());
        for (input, want) in [
            (missing, format!("cannot read `{missing}`: No such file or directory (os error 2)")),
            (zero, format!("{zero}: not a VPC1 value trace (bad magic)")),
            (dir, format!("cannot read `{dir}`: Is a directory (os error 21)")),
            (cut, format!("{cut}: trace truncated mid-chunk or missing trailer")),
        ] {
            assert_eq!(vprof(&["replay", input]).unwrap_err(), want);
        }
    }

    #[test]
    fn assemble_object_round_trip() {
        let dir = std::env::temp_dir().join("vprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("prog.s");
        let obj = dir.join("prog.vpo");
        std::fs::write(&src, ".text\nmain: li a0, 9\n sys exit\n").unwrap();
        assert!(vprof(&["assemble", src.to_str().unwrap(), "-o", obj.to_str().unwrap()]).is_ok());
        assert!(vprof(&["run", obj.to_str().unwrap()]).is_ok());
        assert!(vprof(&["disasm", obj.to_str().unwrap()]).is_ok());
        // Corrupt object is rejected cleanly.
        std::fs::write(&obj, b"garbage").unwrap();
        assert!(vprof(&["run", obj.to_str().unwrap()]).is_err());
    }

    /// Splits a full command line the way [`dispatch`] does.
    fn split(argv: &[String]) -> Result<Args<'_>, String> {
        let (spec, _) = command(&argv[0]).expect("a known command");
        spec.parse(&argv[1..])
    }

    /// Every subcommand on the USAGE text with the flags it documents.
    fn documented_flags() -> Vec<(String, Vec<String>)> {
        let mut out: Vec<(String, Vec<String>)> = Vec::new();
        for line in USAGE.lines() {
            if let Some(rest) = line.strip_prefix("  vprof ") {
                let name = rest.split_whitespace().next().unwrap().to_string();
                if out.last().is_none_or(|(last, _)| *last != name) {
                    out.push((name, Vec::new()));
                }
            } else if !line.starts_with("      ") {
                continue;
            }
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let flags = words.filter(|w| w.starts_with('-')).map(str::to_string);
            out.last_mut().unwrap().1.extend(flags);
        }
        out
    }

    #[test]
    fn every_subcommand_accepts_exactly_its_usage() {
        let documented = documented_flags();
        assert_eq!(documented.len(), 14, "{documented:?}");
        for (name, flags) in &documented {
            let err = vprof(&[name, "--bogus"]).unwrap_err();
            assert!(err.contains("unknown flag `--bogus`"), "{name}: {err}");
            let (spec, _) = command(name).unwrap();
            // No undocumented flag…
            let declared = format!("{} {}", spec.switches, spec.options);
            for declared in declared.split_whitespace() {
                assert!(flags.iter().any(|f| f == declared), "{name} {declared}");
            }
            // …and every documented one parses.
            for flag in flags {
                let mut argv = args(&[flag]);
                if lists(spec.options, flag) {
                    argv.push("1".to_string());
                }
                assert!(spec.parse(&argv).is_ok(), "{name} {argv:?}");
            }
        }
    }

    #[test]
    fn flags_may_come_before_the_target() {
        let pairs: [(&[&str], &[&str]); 4] = [
            (&["replay", "--save", "p.tsv", "li.vpc"], &["replay", "li.vpc", "--save", "p.tsv"]),
            (&["record", "-o", "li.vpc", "li"], &["record", "li", "-o", "li.vpc"]),
            (&["profile", "--top", "3", "li"], &["profile", "li", "--top", "3"]),
            (&["client", "--connect", "S", "li.vpc"], &["client", "li.vpc", "--connect", "S"]),
        ];
        for (first, last) in pairs {
            let (first, last) = (args(first), args(last));
            let parsed = split(&first).unwrap();
            assert_eq!(parsed.target(), Ok(last[1].as_str()), "{first:?}");
            assert_eq!(parsed, split(&last).unwrap(), "{first:?}");
        }
    }

    #[test]
    fn malformed_command_lines_name_the_offending_token() {
        let rejected: &[(&[&str], &str)] = &[
            (&["replay", "li.vpc", "--shard", "4"], "unknown flag `--shard`"),
            (&["profile", "li", "--adaptive"], "unknown flag `--adaptive`"),
            (&["profile", "li", "--mem-budget-mb", "1"], "unknown flag `--mem-budget-mb`"),
            (&["record", "li", "--convergent"], "unknown flag `--convergent`"),
            (&["stats", "t.jsonl", "--check"], "unknown flag `--check`"),
            (&["replay", "li.vpc", "extra.vpc"], "unexpected argument `extra.vpc`"),
            (&["optimize", "50"], "unexpected argument `50`"),
            (&["optimize", "--demo"], "unknown flag `--demo`"),
            (&["replay", "li.vpc", "--deadline-ms"], "`--deadline-ms` needs a value"),
            (&["replay", "li.vpc", "--save", "--deadline-ms", "2"], "`--save` needs a value"),
            // No subcommand splits one workload across threads.
            (&["profile-suite", "--shards", "2"], "unknown flag `--shards`"),
            (&["optimize", "--shards", "2"], "unknown flag `--shards`"),
            (&["replay", "li.vpc", "--shards", "2"], "unknown flag `--shards`"),
            // Every suite run is in-process: no worker-process pool.
            (&["profile-suite", "--workers", "2"], "unknown flag `--workers`"),
            (&["optimize", "--workers", "2"], "unknown flag `--workers`"),
            (&["worker"], "unknown command `worker`"),
            (&["profile", "li", "--all", "--all"], "`--all` given twice"),
            (&["trace", "li"], "unknown command `trace`"),
            (&["profile", "vortex", "--top", "NaN"], "bad --top value `NaN`"),
            (
                &["profile", "li", "--convergent", "--top", "3"],
                "--top is not supported with --convergent",
            ),
            // The paper's tables render only through `vprof experiment`.
            (&["histogram", "li"], "unknown command `histogram`"),
            (&["compare", "li"], "unknown command `compare`"),
            (&["predict", "li"], "unknown command `predict`"),
            (&["profile", "li", "--memory"], "unknown flag `--memory`"),
            (&["profile", "li", "--params"], "unknown flag `--params`"),
            // Loads are the default selection; there is no switch naming it.
            (&["profile", "li", "--all", "--loads"], "unknown flag `--loads`"),
            (&["profile-suite", "--jobs", "many"], "bad --jobs value `many`"),
            (&["profile-suite", "--retries", "many"], "bad --retries value `many`"),
            (&["profile-suite", "--deadline-ms", "soon"], "bad --deadline-ms value `soon`"),
            (&["profile-suite", "--mem-budget-mb", "lots"], "bad --mem-budget-mb value `lots`"),
            (
                &["profile-suite", "--adaptive", "--phase-window", "0"],
                "bad --phase-window value `0`",
            ),
            (&["profile-suite", "--adaptive", "--max-rearms", "lots"], "bad --max-rearms value"),
            (&["optimize", "--jobs", "many"], "bad --jobs value `many`"),
            (&["optimize", "--min-invariance", "1.5"], "bad --min-invariance value `1.5`"),
            (&["optimize", "--max-ways", "0"], "bad --max-ways value `0`"),
            // The format check comes before the mode check.
            (&["optimize", "--convergent", "--mem-budget-mb", "lots"], "bad --mem-budget-mb"),
            (&["record", "li", "--chunk-events", "0"], "bad --chunk-events value `0`"),
            (&["serve", "--socket", "S", "--max-sessions", "0"], "bad --max-sessions value `0`"),
            // The ack cadence and the client window are constants, not
            // flags: a window below the cadence would wait forever.
            (&["serve", "--socket", "S", "--window", "4"], "unknown flag `--window`"),
            (
                &["serve", "--socket", "S", "--checkpoint-every", "4"],
                "unknown flag `--checkpoint-every`",
            ),
            (&["client", "li.vpc", "--connect", "S", "--window", "2"], "unknown flag `--window`"),
            (&["client", "li.vpc", "--connect", "S", "--burst"], "unknown flag `--burst`"),
        ];
        for (argv, expected) in rejected {
            let err = vprof(argv).unwrap_err();
            assert!(err.contains(expected), "{argv:?}: {err}");
        }
    }
}
