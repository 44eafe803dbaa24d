//! `vprof` subcommand implementations.

use std::sync::Arc;

use vp_asm::Program;
use vp_bench::SuiteRunner;
use vp_core::{
    compare, render_metric_table, report::row, track::TrackerConfig, ConvergentConfig,
    ConvergentProfiler, FaultPlan, InstructionProfiler, MemBudget, MemoryProfiler, ParamProfiler,
    PhaseBudget, ProfileMode,
};
use vp_instrument::{Instrumenter, Selection};
use vp_predict::{
    evaluate as eval_predictor, HybridPredictor, LastValuePredictor, Predictor, StridePredictor,
    TwoLevelPredictor,
};
use vp_sim::{InputSet, Machine, MachineConfig};
use vp_workloads::{suite, DataSet, Workload};

const BUDGET: u64 = 100_000_000;

const USAGE: &str = "usage:
  vprof list
  vprof run <target> [--train]
  vprof assemble <file.s> -o <file.vpo>
  vprof disasm <target>
  vprof profile <target> [--train] [--all|--loads|--memory|--params] [--convergent] [--top N] [--save FILE]
  vprof profile-suite [--train] [--all] [--convergent] [--jobs N|--workers N] [--shards N]
                      [--baseline] [--adaptive [--phase-window N] [--max-rearms N]]
                      [--telemetry FILE] [--retries N] [--checkpoint FILE [--resume]]
                      [--deadline-ms N] [--mem-budget-mb N]
  vprof record <target> [-o <file.vpc>] [--train] [--all] [--deadline-ms N]
                      [--chunk-events N]
  vprof replay <file.vpc> [--shards N] [--save FILE] [--deadline-ms N] [--mem-budget-mb N]
                      [--convergent|--adaptive [--phase-window N] [--max-rearms N]]
  vprof serve --socket SOCK [--state-dir DIR] [--resume] [--max-sessions N]
                      [--max-tenants N] [--tenant-sessions N] [--window N]
                      [--checkpoint-every N] [--idle-ms N] [--deadline-ms N]
                      [--mem-budget-mb N] [--telemetry FILE]
                      [--convergent|--adaptive [--phase-window N] [--max-rearms N]]
  vprof client <file.vpc> --connect SOCK [--tenant T] [--workload W] [--save FILE]
                      [--window N] [--query] [--burst]
  vprof client --connect SOCK --shutdown
  vprof stats <telemetry.jsonl>
  vprof verify <profile.tsv> [--lenient]
  vprof histogram <target> [--train] [--all]
  vprof trace <target> -o <file.vpt> [--train] [--all]
  vprof compare <workload>
  vprof predict <workload> [--train]
  vprof optimize [--jobs N|--workers N] [--shards N]
                      [--convergent|--adaptive [--phase-window N] [--max-rearms N]]
                      [--min-invariance P] [--min-executions N] [--max-ways N]
                      [--report FILE] [--telemetry FILE] [--retries N]
                      [--checkpoint FILE [--resume]] [--deadline-ms N] [--mem-budget-mb N]
  vprof optimize --demo [change-period]
  vprof specialize [change-period]   (alias for `optimize --demo`)

<target> is a built-in workload name or a path to a .s or .vpo file.";

/// Dispatches a parsed command line. Returns a user-facing error string on
/// failure.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("list") => list(),
        Some("run") => run(&args[1..]),
        Some("assemble") => assemble_cmd(&args[1..]),
        Some("disasm") => disasm(&args[1..]),
        Some("profile") => profile(&args[1..]),
        Some("profile-suite") => profile_suite(&args[1..]),
        // Hidden: the child end of `profile-suite --workers N`. Serves
        // workload assignments over stdin/stdout frames; never invoked
        // by hand.
        Some("worker") => worker_cmd(&args[1..]),
        Some("stats") => stats_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("client") => client_cmd(&args[1..]),
        Some("verify") => verify_cmd(&args[1..]),
        Some("histogram") => histogram(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("record") => record_cmd(&args[1..]),
        Some("replay") => replay_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("predict") => predict(&args[1..]),
        Some("optimize") => optimize_cmd(&args[1..]),
        // `specialize` predates the end-to-end pipeline; it survives as a
        // thin alias for the hardcoded demo-kernel walkthrough.
        Some("specialize") => {
            let mut demo = vec!["--demo".to_string()];
            demo.extend_from_slice(&args[1..]);
            optimize_cmd(&demo)
        }
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn dataset(args: &[String]) -> DataSet {
    if args.iter().any(|a| a == "--train") {
        DataSet::Train
    } else {
        DataSet::Test
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn option_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Parses `--deadline-ms N` into a wall-clock deadline.
fn deadline_arg(args: &[String]) -> Result<Option<std::time::Duration>, String> {
    option_value(args, "--deadline-ms")
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad --deadline-ms value `{v}`")))
        .transpose()
        .map(|ms| ms.map(std::time::Duration::from_millis))
}

/// Parses the adaptive-profiling flags: `--adaptive` plus the optional
/// `--phase-window N` / `--max-rearms N` budget overrides. The budget
/// flags without `--adaptive` are an error (they would silently do
/// nothing otherwise).
fn phase_budget_arg(args: &[String]) -> Result<Option<PhaseBudget>, String> {
    let window = option_value(args, "--phase-window");
    let max_rearms = option_value(args, "--max-rearms");
    if !flag(args, "--adaptive") {
        if window.is_some() || max_rearms.is_some() {
            return Err("--phase-window/--max-rearms require --adaptive".to_string());
        }
        return Ok(None);
    }
    let mut budget = PhaseBudget::default();
    if let Some(v) = window {
        budget.window = v.parse().map_err(|_| format!("bad --phase-window value `{v}`"))?;
        if budget.window == 0 {
            return Err("bad --phase-window value `0` (window must be positive)".to_string());
        }
    }
    if let Some(v) = max_rearms {
        budget.max_rearms = v.parse().map_err(|_| format!("bad --max-rearms value `{v}`"))?;
    }
    Ok(Some(budget))
}

/// Parses `--mem-budget-mb N` into a per-workload memory budget.
fn mem_budget_arg(args: &[String]) -> Result<Option<MemBudget>, String> {
    option_value(args, "--mem-budget-mb")
        .map(|v| v.parse::<usize>().map_err(|_| format!("bad --mem-budget-mb value `{v}`")))
        .transpose()
        .map(|mb| mb.map(MemBudget::mib))
}

/// Parses the profiling mode: `--convergent`, `--adaptive [--phase-window
/// N] [--max-rearms N]`, or full profiling by default. Only the full
/// profiler is governed, so `--mem-budget-mb` with another mode is an
/// error rather than a budget nothing enforces.
fn mode_arg(args: &[String]) -> Result<ProfileMode, String> {
    let mem_budget = mem_budget_arg(args)?;
    let mode = match phase_budget_arg(args)? {
        Some(_) if flag(args, "--convergent") => {
            return Err("--adaptive and --convergent are mutually exclusive".to_string())
        }
        Some(budget) => ProfileMode::Adaptive(budget),
        None if flag(args, "--convergent") => ProfileMode::Convergent,
        None => ProfileMode::Full,
    };
    if mem_budget.is_some() && mode != ProfileMode::Full {
        return Err(format!(
            "--mem-budget-mb is not supported with --{} (the convergent trackers are already constant-space)",
            mode_name(mode)
        ));
    }
    Ok(mode)
}

/// The mode's name, as its flag and in telemetry.
fn mode_name(mode: ProfileMode) -> &'static str {
    match mode {
        ProfileMode::Full => "full",
        ProfileMode::Convergent => "convergent",
        ProfileMode::Adaptive(_) => "adaptive",
        ProfileMode::Sampled(_) => "sampled",
    }
}

/// The suite-runner configuration `profile-suite`, `optimize` and the
/// hidden `worker` share, parsed once by [`suite_args`].
struct SuiteArgs {
    /// Jobs, shards, retries, faults, deadline, memory budget, mode and
    /// checkpoint applied; each command adds its selection, recorder and
    /// baseline.
    runner: SuiteRunner,
    jobs: usize,
    workers: Option<usize>,
    mode: ProfileMode,
    mem_budget: Option<MemBudget>,
    plan: Arc<FaultPlan>,
}

/// Parses `--jobs N` | `--workers N`, `--shards N`, `--retries N`,
/// `--deadline-ms N`, `--mem-budget-mb N`, the mode flags, and
/// `--checkpoint FILE [--resume]` into a configured [`SuiteRunner`].
/// `$VP_FAULTS` arms the fault plan.
fn suite_args(args: &[String]) -> Result<SuiteArgs, String> {
    use vp_bench::{Checkpoint, RetryPolicy};

    let jobs: usize = option_value(args, "--jobs")
        .map_or(Ok(1), |v| v.parse().map_err(|_| format!("bad --jobs value `{v}`")))?;
    let workers: Option<usize> = option_value(args, "--workers")
        .map(|v| v.parse().map_err(|_| format!("bad --workers value `{v}`")))
        .transpose()?;
    if workers.is_some() && option_value(args, "--jobs").is_some() {
        return Err(
            "--jobs and --workers are mutually exclusive (threads vs worker processes)".to_string()
        );
    }
    let shards: usize = option_value(args, "--shards")
        .map_or(Ok(1), |v| v.parse().map_err(|_| format!("bad --shards value `{v}`")))?;
    if shards == 0 {
        return Err("bad --shards value `0` (need at least one shard)".to_string());
    }
    let mut policy = RetryPolicy::default();
    policy.max_retries = option_value(args, "--retries").map_or(Ok(policy.max_retries), |v| {
        v.parse().map_err(|_| format!("bad --retries value `{v}`"))
    })?;
    let plan = Arc::new(FaultPlan::from_env()?);
    let deadline = deadline_arg(args)?;
    let mem_budget = mem_budget_arg(args)?;
    let mode = mode_arg(args)?;
    let mut runner = SuiteRunner::new()
        .jobs(jobs)
        .shards(shards)
        .retry(policy)
        .faults(Arc::clone(&plan))
        .deadline(deadline)
        .mem_budget(mem_budget)
        .tracker(mode.tracker())
        .mode(mode);
    match (option_value(args, "--checkpoint"), flag(args, "--resume")) {
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
    Ok(SuiteArgs { runner, jobs, workers, mode, mem_budget, plan })
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

fn target_arg(args: &[String]) -> Result<&str, String> {
    args.iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .ok_or_else(|| format!("missing target\n{USAGE}"))
}

fn list() -> Result<(), String> {
    println!("{:<10} {:>8} description", "name", "instrs");
    for w in suite() {
        println!("{:<10} {:>8} {}", w.name(), w.program().len(), w.description());
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let ds = dataset(args);
    let (program, input) = resolve(target_arg(args)?, ds)?;
    let mut machine =
        Machine::new(program, MachineConfig::new().input(input)).map_err(|e| e.to_string())?;
    let out = machine.run(BUDGET).map_err(|e| e.to_string())?;
    if !out.output.is_empty() {
        print!("{}", out.output_text());
    }
    println!("exit code    {}", out.exit_code);
    println!("instructions {}", out.instructions);
    for (class, count) in machine.stats().per_class() {
        println!("  {class:<9} {count}");
    }
    Ok(())
}

fn assemble_cmd(args: &[String]) -> Result<(), String> {
    let target = target_arg(args)?;
    if !target.ends_with(".s") {
        return Err(format!("assemble expects a .s file, got `{target}`"));
    }
    let out_path = option_value(args, "-o")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{}.vpo", target.trim_end_matches(".s")));
    let src =
        std::fs::read_to_string(target).map_err(|e| format!("cannot read `{target}`: {e}"))?;
    let program = vp_asm::assemble(&src).map_err(|e| e.to_string())?;
    vp_core::durable::write_atomic(std::path::Path::new(&out_path), &program.to_bytes())
        .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
    println!(
        "wrote {out_path}: {} instructions, {} data bytes, {} procedures",
        program.len(),
        program.data().len(),
        program.procedures().len()
    );
    Ok(())
}

fn disasm(args: &[String]) -> Result<(), String> {
    let (program, _) = resolve(target_arg(args)?, DataSet::Test)?;
    print!("{program}");
    Ok(())
}

fn profile(args: &[String]) -> Result<(), String> {
    let ds = dataset(args);
    let target = target_arg(args)?;
    if target.ends_with(".vpt") {
        return profile_trace(target, args);
    }
    let (program, input) = resolve(target, ds)?;
    let cfg = MachineConfig::new().input(input);
    let top: usize = option_value(args, "--top")
        .map_or(Ok(10), |v| v.parse().map_err(|_| format!("bad --top value `{v}`")))?;

    if flag(args, "--memory") {
        let mut profiler = MemoryProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::MemoryOps)
            .run(&program, cfg, BUDGET, &mut profiler)
            .map_err(|e| e.to_string())?;
        if profiler.dropped() > 0 {
            eprintln!(
                "warning: {} stores dropped at the memory profiler's location cap — per-location results are incomplete",
                profiler.dropped()
            );
        }
        let rows = [row(target, &profiler.metrics())];
        println!("{}", render_metric_table("memory locations (stored values)", &rows));
        println!("hottest locations:");
        for m in profiler.hottest(top) {
            println!(
                "  {:#010x}  execs {:>8}  inv-top1 {:5.1}%  top value {:?}",
                m.id,
                m.executions,
                m.inv_top1 * 100.0,
                m.top_value
            );
        }
        return Ok(());
    }

    if flag(args, "--params") {
        let mut profiler = ParamProfiler::new(TrackerConfig::with_full(), 4);
        Instrumenter::new()
            .select(Selection::None)
            .with_procedures(true)
            .run(&program, cfg, BUDGET, &mut profiler)
            .map_err(|e| e.to_string())?;
        println!("procedure parameters:");
        for p in profiler.metrics().into_iter().take(top) {
            println!(
                "  proc {:<3} {:?}  execs {:>8}  inv-top1 {:5.1}%",
                p.proc_index,
                p.slot,
                p.metrics.executions,
                p.metrics.inv_top1 * 100.0
            );
        }
        return Ok(());
    }

    let selection =
        if flag(args, "--all") { Selection::RegisterDefining } else { Selection::LoadsOnly };
    let what = if flag(args, "--all") { "all register-defining instructions" } else { "loads" };

    if flag(args, "--convergent") {
        let mut profiler =
            ConvergentProfiler::new(TrackerConfig::default(), ConvergentConfig::default());
        Instrumenter::new()
            .select(selection)
            .run(&program, cfg, BUDGET, &mut profiler)
            .map_err(|e| e.to_string())?;
        let rows = [row(target, &profiler.metrics())];
        println!("{}", render_metric_table(&format!("convergent profile: {what}"), &rows));
        println!("profiled {:.2}% of executions", profiler.overall_profile_fraction() * 100.0);
        return Ok(());
    }

    let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
    Instrumenter::new()
        .select(selection)
        .run(&program, cfg, BUDGET, &mut profiler)
        .map_err(|e| e.to_string())?;
    if let Some(path) = option_value(args, "--save") {
        vp_core::durable::write_profile(std::path::Path::new(path), &profiler.metrics())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("saved {} entities to {path}", profiler.metrics().len());
    }
    let rows = [row(target, &profiler.metrics())];
    println!("{}", render_metric_table(&format!("value profile: {what}"), &rows));
    let mut ms = profiler.metrics();
    ms.sort_by_key(|m| std::cmp::Reverse(m.executions));
    println!("hottest instructions:");
    for m in ms.into_iter().take(top) {
        println!(
            "  [{:>5}] {:<24} execs {:>9}  inv-top1 {:5.1}%  lvp {:5.1}%  top {:?}",
            m.id,
            program.code()[m.id as usize].to_string(),
            m.executions,
            m.inv_top1 * 100.0,
            m.lvp * 100.0,
            m.top_value
        );
    }
    Ok(())
}

/// Profiles the whole workload suite, optionally across worker threads.
/// One workload per worker, so `--jobs N` output matches a serial run.
/// `--shards N` additionally parallelizes *within* each workload: the
/// value stream is recorded once, split by entity, and profiled across
/// N threads — also output-identical to serial (see `vp_core::shard`).
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
fn profile_suite(args: &[String]) -> Result<(), String> {
    use vp_obs::MemRecorder;

    let ds = dataset(args);
    let SuiteArgs { runner, jobs, workers, mode, mem_budget, .. } = suite_args(args)?;
    let selection =
        if flag(args, "--all") { Selection::RegisterDefining } else { Selection::LoadsOnly };
    let what = if flag(args, "--all") { "all register-defining instructions" } else { "loads" };
    let telemetry_path = option_value(args, "--telemetry")
        .map_or_else(vp_bench::default_path, std::path::PathBuf::from);
    let recorder = Arc::new(MemRecorder::new());
    let runner = runner
        .selection(selection)
        .recorder(recorder.clone())
        .measure_baseline(flag(args, "--baseline"));
    let outcome = match workers {
        // Worker processes are crash domains: each profiles assigned
        // workloads behind the stdin/stdout frame protocol, and a dead
        // worker costs one retryable attempt, never the suite. Output
        // and masked telemetry stay byte-identical to `--jobs N`.
        Some(n) => runner.try_run_distributed(&vp_workloads::suite(), worker_spec(args, n)?),
        None => runner.try_run(ds),
    };
    let profile = &outcome.profile;
    println!(
        "{}",
        profile.render(&format!("suite value profile: {what} [{} data set]", ds.name()))
    );
    if mode != ProfileMode::Full {
        println!("profiled fraction per workload:");
        for w in &profile.workloads {
            println!("  {:<10} {:6.2}%", w.name, w.profile_fraction * 100.0);
        }
    }
    if let ProfileMode::Adaptive(budget) = mode {
        println!(
            "adaptive phase detection (window {}, max {} re-arms/instruction):",
            budget.window, budget.max_rearms
        );
        for w in &profile.workloads {
            let ph = w.phase.unwrap_or_default();
            println!(
                "  {:<10} windows {:>8}  shifts {:>6}  rearms {:>5}  denied {:>5}",
                w.name, ph.windows, ph.shifts_detected, ph.rearms, ph.rearms_denied
            );
        }
    }
    if flag(args, "--baseline") {
        println!("slowdown vs uninstrumented replay:");
        for w in &profile.workloads {
            match w.slowdown() {
                Some(s) => println!("  {:<10} {s:6.2}x", w.name),
                None => println!("  {:<10}      -", w.name),
            }
        }
    }
    let (pool, agg) = profile.pooled();
    println!(
        "pooled: {} sites, {} executions, inv-top1 {:.1}%, lvp {:.1}%",
        pool.len(),
        agg.executions,
        agg.inv_top1 * 100.0,
        agg.lvp * 100.0
    );
    println!(
        "{} workloads, {} dynamic instructions total",
        profile.workloads.len(),
        profile.total_instructions()
    );
    let governed: Vec<_> =
        profile.workloads.iter().filter_map(|w| w.governor.map(|g| (w.name, g))).collect();
    if let Some(budget) = mem_budget {
        println!("governor (budget {} bytes/workload):", budget.limit_bytes());
        for (name, g) in &governed {
            println!(
                "  {:<10} peak {:>12}  degraded {:>6}  dropped {:>6}  obs dropped {:>9}",
                name, g.bytes_peak, g.entities_degraded, g.entities_dropped, g.observations_dropped
            );
        }
        let dropped: u64 = governed.iter().map(|(_, g)| g.entities_dropped).sum();
        if dropped > 0 {
            println!("warning: {dropped} entities dropped — raise --mem-budget-mb to recover them");
        }
    }
    if !outcome.is_clean() {
        println!();
        print!("{}", outcome.render_failures());
    }

    let mode = format!("{}-{}", mode_name(mode), if flag(args, "--all") { "all" } else { "loads" });
    // `--workers N` reports N in the `jobs` field: the records describe
    // the same parallelism either way and stay byte-comparable.
    let mut records = vp_bench::suite_records(
        "profile-suite",
        ds,
        workers.unwrap_or(jobs),
        &mode,
        profile,
        Some(&recorder),
    );
    records.extend(vp_bench::fault_records("profile-suite", &outcome));
    vp_bench::write_jsonl(&telemetry_path, &records)
        .map_err(|e| format!("cannot write `{}`: {e}", telemetry_path.display()))?;
    println!("telemetry: {} ({} records)", telemetry_path.display(), records.len());
    Ok(())
}

/// Builds the subprocess spec for `profile-suite --workers N`: the
/// current binary re-invoked as `vprof worker` with the profiling flags
/// forwarded. Orchestration flags (`--jobs`/`--workers`/`--retries`/
/// `--checkpoint`/`--telemetry`) stay with the parent — workers only
/// profile what they are told to.
fn worker_spec(args: &[String], workers: usize) -> Result<vp_bench::WorkerSpec, String> {
    let bin =
        std::env::current_exe().map_err(|e| format!("cannot locate the vprof binary: {e}"))?;
    let mut forwarded = vec!["worker".to_string()];
    for f in ["--train", "--all", "--convergent", "--adaptive", "--baseline"] {
        if flag(args, f) {
            forwarded.push(f.to_string());
        }
    }
    for opt in ["--shards", "--phase-window", "--max-rearms", "--deadline-ms", "--mem-budget-mb"] {
        if let Some(v) = option_value(args, opt) {
            forwarded.push(opt.to_string());
            forwarded.push(v.to_string());
        }
    }
    Ok(vp_bench::WorkerSpec { bin, args: forwarded, workers })
}

/// Hidden subcommand: the child end of `profile-suite --workers N`.
/// Builds the same profiling configuration the parent would (selection,
/// mode, shards, deadline, memory budget, baseline) and serves workload
/// assignments over the stdin/stdout frame protocol until told to exit.
/// Retries, checkpointing, and telemetry stay with the parent; fault
/// injection re-arms from this process's own `$VP_FAULTS` view, with
/// `$VP_FAULTS_SCOPE` picking the victim worker.
fn worker_cmd(args: &[String]) -> Result<(), String> {
    let ds = dataset(args);
    let SuiteArgs { runner, plan, .. } = suite_args(args)?;
    let selection =
        if flag(args, "--all") { Selection::RegisterDefining } else { Selection::LoadsOnly };
    let runner = runner
        .selection(selection)
        .retry(vp_bench::RetryPolicy::none())
        .measure_baseline(flag(args, "--baseline"));
    vp_bench::serve_worker(&runner, ds, &plan).map_err(|e| format!("worker: {e}"))
}

/// Renders a human-readable summary of a `telemetry.jsonl` file. A final
/// line torn by a crash mid-append is dropped with a warning (exit 0) —
/// every complete record still gets summarized. An absent or empty file
/// (e.g. a serve daemon that never admitted a session) is not an error:
/// it prints a clean "no records" line and exits 0. Corruption anywhere
/// else is an error.
fn stats_cmd(args: &[String]) -> Result<(), String> {
    let target = target_arg(args)?;
    let text = match std::fs::read_to_string(target) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("{target}: no telemetry records");
            return Ok(());
        }
        Err(e) => return Err(format!("cannot read `{target}`: {e}")),
    };
    let parsed = vp_obs::telemetry::parse_jsonl_lenient(&text)?;
    if let Some(reason) = &parsed.dropped_tail {
        // A torn tail with nothing before it recovered zero records —
        // that is corruption, not a clean empty file.
        if parsed.records.is_empty() {
            return Err(format!("{target}: no records recovered ({reason})"));
        }
        eprintln!(
            "warning: {target}: dropped torn final line ({reason}); recovered {} record(s)",
            parsed.records.len()
        );
    }
    if parsed.records.is_empty() {
        println!("{target}: no telemetry records");
        return Ok(());
    }
    print!("{}", vp_obs::stats::summarize_records(&parsed.records)?);
    Ok(())
}

/// `vprof serve`: runs the multi-tenant profile-ingestion daemon on a
/// Unix-domain socket until SIGTERM or a client's `SHUTDOWN` frame
/// drains it. Every session checkpoints through the durable layer, so a
/// `kill -9` + restart with `--resume` loses nothing a client cannot
/// retransmit.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    use vp_bench::serve::{serve, ServeConfig};
    let socket = option_value(args, "--socket")
        .ok_or_else(|| format!("serve needs --socket PATH\n{USAGE}"))?;
    let state_dir =
        option_value(args, "--state-dir").map_or_else(|| format!("{socket}.state"), str::to_string);
    let mut cfg =
        ServeConfig::new(std::path::PathBuf::from(socket), std::path::PathBuf::from(state_dir));
    let count = |name: &str, min: usize, into: &mut usize| -> Result<(), String> {
        if let Some(v) = option_value(args, name) {
            *into = v.parse().map_err(|_| format!("bad {name} value `{v}`"))?;
            if *into < min {
                return Err(format!("bad {name} value `{v}` (need at least {min})"));
            }
        }
        Ok(())
    };
    count("--max-sessions", 1, &mut cfg.max_sessions)?;
    count("--max-tenants", 1, &mut cfg.max_tenants)?;
    count("--tenant-sessions", 1, &mut cfg.tenant_sessions)?;
    let mut window = cfg.window as usize;
    let mut every = cfg.checkpoint_every as usize;
    count("--window", 1, &mut window)?;
    count("--checkpoint-every", 1, &mut every)?;
    cfg.window = window as u64;
    cfg.checkpoint_every = every as u64;
    cfg.idle = option_value(args, "--idle-ms")
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad --idle-ms value `{v}`")))
        .transpose()?
        .map(std::time::Duration::from_millis);
    cfg.deadline = deadline_arg(args)?;
    cfg.mem_budget = mem_budget_arg(args)?;
    cfg.mode = mode_arg(args)?;
    cfg.resume = flag(args, "--resume");
    // Telemetry is opt-in: a flag or the environment, never by default.
    cfg.telemetry = option_value(args, "--telemetry").map(std::path::PathBuf::from).or_else(|| {
        std::env::var_os(vp_bench::telemetry::TELEMETRY_ENV).map(|_| vp_bench::default_path())
    });
    let telemetry = cfg.telemetry.clone();
    let report = serve(cfg)?;
    println!(
        "serve: {} completed, {} killed, {} rejected, {} chunks acked",
        report.counts.get(vp_obs::CounterId::SessionCompleted),
        report.counts.get(vp_obs::CounterId::SessionKilled),
        report.counts.get(vp_obs::CounterId::SessionRejected),
        report.counts.get(vp_obs::CounterId::ChunksAcked),
    );
    if let Some(path) = telemetry {
        println!("telemetry: {} ({} records)", path.display(), report.records().len());
    }
    Ok(())
}

/// `vprof client`: streams a recorded `.vpc` trace into a serve daemon
/// chunk by chunk, honouring the inflight window, and fetches the final
/// profile. Reconnecting after a server crash resumes from the durable
/// cursor in `HELLO_OK` — already-acknowledged chunks are skipped, the
/// rest retransmitted.
fn client_cmd(args: &[String]) -> Result<(), String> {
    use std::io::Write as _;
    use std::os::unix::net::UnixStream;
    use vp_instrument::net::{self, MsgError, SessionMsg};
    let sock = option_value(args, "--connect")
        .ok_or_else(|| format!("client needs --connect SOCK\n{USAGE}"))?;
    let connect =
        || UnixStream::connect(sock).map_err(|e| format!("cannot connect to `{sock}`: {e}"));
    if flag(args, "--shutdown") {
        let mut stream = connect()?;
        vp_instrument::frame::write_magic(&mut stream)
            .and_then(|()| net::write_msg(&mut stream, &SessionMsg::Shutdown))
            .map_err(|e| format!("cannot send shutdown: {e}"))?;
        println!("shutdown requested");
        return Ok(());
    }
    let target = target_arg(args)?;
    let tenant = option_value(args, "--tenant").unwrap_or("default").to_string();
    let workload = option_value(args, "--workload")
        .map(str::to_string)
        .or_else(|| {
            std::path::Path::new(target).file_stem().map(|s| s.to_string_lossy().replace('.', "_"))
        })
        .ok_or_else(|| format!("cannot derive a workload name from `{target}`; use --workload"))?;
    let window: u64 = option_value(args, "--window")
        .map_or(Ok(16), |v| v.parse().map_err(|_| format!("bad --window value `{v}`")))?;
    if window == 0 {
        return Err("bad --window value `0` (need at least one inflight chunk)".to_string());
    }
    let corrupt: Option<u64> = option_value(args, "--corrupt-chunk")
        .map(|v| v.parse().map_err(|_| format!("bad --corrupt-chunk value `{v}`")))
        .transpose()?;
    let abort_after: Option<u64> = option_value(args, "--abort-after")
        .map(|v| v.parse().map_err(|_| format!("bad --abort-after value `{v}`")))
        .transpose()?;
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
        SessionMsg::Busy { reason } => return Err(format!("server busy: {reason}")),
        SessionMsg::Err { reason } => return Err(format!("session refused: {reason}")),
        other => return Err(format!("unexpected reply to HELLO: {other:?}")),
    };
    let mut acked = start;
    let mut throttles = 0u64;
    for seq in start..total {
        // The inflight window: block on ACKs before overrunning it.
        // `--burst` ignores it, to exercise the server's THROTTLE path.
        while !flag(args, "--burst") && seq - acked >= window {
            match recv(&mut reader)? {
                SessionMsg::Ack { acked: a } => acked = a,
                SessionMsg::Throttle { acked: a } => {
                    throttles += 1;
                    acked = acked.max(a);
                }
                SessionMsg::Err { reason } => return Err(format!("session killed: {reason}")),
                other => return Err(format!("unexpected reply mid-stream: {other:?}")),
            }
        }
        let chunk = &chunks[seq as usize];
        let crc = if corrupt == Some(seq) { chunk.crc ^ 1 } else { chunk.crc };
        send(
            &mut stream,
            &SessionMsg::Chunk { seq, count: chunk.count, crc, payload: chunk.payload.to_vec() },
        )?;
        if abort_after == Some(seq + 1) {
            let _ = stream.flush();
            println!("client {tenant}/{workload}: aborted after {} chunk(s)", seq + 1);
            return Ok(());
        }
    }
    if flag(args, "--query") {
        send(&mut stream, &SessionMsg::Query)?;
        loop {
            match recv(&mut reader)? {
                SessionMsg::Stats { json } => {
                    println!("stats: {json}");
                    break;
                }
                // END_OK carries the final cursor; interim acks are noise.
                SessionMsg::Ack { .. } => {}
                SessionMsg::Throttle { .. } => throttles += 1,
                SessionMsg::Err { reason } => return Err(format!("session killed: {reason}")),
                other => return Err(format!("unexpected reply to QUERY: {other:?}")),
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
            SessionMsg::Throttle { .. } => throttles += 1,
            SessionMsg::Err { reason } => return Err(format!("session killed: {reason}")),
            other => return Err(format!("unexpected reply to END: {other:?}")),
        }
    };
    if let Some(out) = option_value(args, "--save") {
        vp_core::durable::write_atomic(std::path::Path::new(out), profile.as_bytes())
            .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    }
    println!(
        "client {tenant}/{workload}: {total} chunks ({events} events), {acked} acked, resumed at {start}"
    );
    if throttles > 0 {
        println!("throttled: {throttles}");
    }
    Ok(())
}

/// Integrity-checks a profile file written by `profile --save`: verifies
/// the trailing CRC32 footer against the content. `--lenient` instead
/// salvages every row that parses and reports what was recovered.
fn verify_cmd(args: &[String]) -> Result<(), String> {
    use vp_core::IntegrityMode;
    let target = target_arg(args)?;
    let mode = if flag(args, "--lenient") { IntegrityMode::Lenient } else { IntegrityMode::Strict };
    let checked = vp_core::load_profile(std::path::Path::new(target), mode)
        .map_err(|e| format!("{target}: {e}"))?;
    println!("{target}: {}", checked.integrity);
    Ok(())
}

fn profile_trace(path: &str, args: &[String]) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let trace = vp_instrument::Trace::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
    trace.replay(&mut profiler).map_err(|e| e.to_string())?;
    if let Some(out) = option_value(args, "--save") {
        vp_core::durable::write_profile(std::path::Path::new(out), &profiler.metrics())
            .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    }
    let rows = [row(path, &profiler.metrics())];
    println!(
        "{}",
        render_metric_table(
            &format!("value profile replayed from {path} ({} events)", trace.len()),
            &rows
        )
    );
    Ok(())
}

fn trace_cmd(args: &[String]) -> Result<(), String> {
    let ds = dataset(args);
    let target = target_arg(args)?;
    let (program, input) = resolve(target, ds)?;
    let selection =
        if flag(args, "--all") { Selection::RegisterDefining } else { Selection::LoadsOnly };
    let out =
        option_value(args, "-o").map(str::to_owned).unwrap_or_else(|| format!("{target}.vpt"));
    let trace = vp_instrument::Trace::record(
        &program,
        MachineConfig::new().input(input),
        BUDGET,
        selection,
    )
    .map_err(|e| e.to_string())?;
    vp_core::durable::write_atomic(std::path::Path::new(&out), &trace.to_bytes())
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!("wrote {out}: {} events", trace.len());
    Ok(())
}

/// Records a workload's selected `(pc, value)` stream into the chunked,
/// CRC-checked binary trace format (`vp_instrument::trace_codec`). The
/// workload executes once; `vprof replay` can then re-profile the trace
/// any number of times — serially or sharded — without re-running it.
/// `--deadline-ms N` bounds the recording run's wall clock: a run past
/// its deadline is cancelled cooperatively and no trace file is written.
fn record_cmd(args: &[String]) -> Result<(), String> {
    let ds = dataset(args);
    let target = target_arg(args)?;
    let (program, input) = resolve(target, ds)?;
    let selection =
        if flag(args, "--all") { Selection::RegisterDefining } else { Selection::LoadsOnly };
    let deadline = deadline_arg(args)?;
    let out =
        option_value(args, "-o").map(str::to_owned).unwrap_or_else(|| format!("{target}.vpc"));
    // Small traces fit one default-sized chunk; `--chunk-events` forces
    // more chunk boundaries so checkpoint/ACK paths can be exercised.
    let chunk_events: usize = option_value(args, "--chunk-events").map_or(
        Ok(vp_instrument::trace_codec::DEFAULT_CHUNK_EVENTS),
        |v| match v.parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("bad --chunk-events value `{v}` (need a positive count)")),
        },
    )?;
    struct Recorder(vp_instrument::TraceEncoder);
    impl vp_instrument::Analysis for Recorder {
        fn after_instr(&mut self, _m: &Machine, ev: &vp_sim::InstrEvent) {
            if let Some((_, v)) = ev.dest {
                self.0.push(ev.index, v);
            }
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
    vp_core::durable::write_atomic(std::path::Path::new(&out), &bytes)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!(
        "wrote {out}: {} events, {} chunks, {} bytes",
        stats.events, stats.chunks, stats.bytes
    );
    Ok(())
}

/// Replays a binary trace written by `vprof record` through the value
/// profiler of the chosen mode (full by default; `--convergent` or
/// `--adaptive` reweight metrics to true totals, so the table is directly
/// comparable to a full replay's). `--shards N` splits the replay by
/// entity across N worker threads; the output is byte-identical to a
/// serial replay (see `vp_core::shard`). An empty trace replays to the
/// same zero-row profile an empty workload produces; a corrupt or
/// truncated trace is rejected, never mis-decoded. `--deadline-ms N`
/// bounds the replay's wall clock (checked at every chunk boundary);
/// `--mem-budget-mb N` caps the full profiler's memory via the
/// degradation ladder (`vp_core::govern`), split evenly across the
/// partitions of a sharded replay.
fn replay_cmd(args: &[String]) -> Result<(), String> {
    let target = target_arg(args)?;
    let shards: usize = option_value(args, "--shards")
        .map_or(Ok(1), |v| v.parse().map_err(|_| format!("bad --shards value `{v}`")))?;
    if shards == 0 {
        return Err("bad --shards value `0` (need at least one shard)".to_string());
    }
    let deadline = deadline_arg(args)?;
    let mem_budget = mem_budget_arg(args)?;
    let mode = mode_arg(args)?;
    // Zero-copy input: the trace is mapped (or read, on the fallback
    // paths) once, and every chunk decodes straight out of it.
    let file = vp_instrument::TraceFile::open(std::path::Path::new(target))
        .map_err(|e| format!("cannot read `{target}`: {e}"))?;
    // The whole decode-and-profile pass runs under the optional deadline;
    // every chunk boundary is a cancellation checkpoint.
    let replay = || -> Result<(vp_core::Profiler, u64, u64), String> {
        let mut reader = file.reader().map_err(|e| format!("{target}: {e}"))?;
        let profiler = mode
            .profile_trace(mode.tracker(), mem_budget, &mut reader, shards)
            .map_err(|e| format!("{target}: {e}"))?;
        Ok((profiler, reader.events_read(), reader.chunks_read() as u64))
    };
    let (profiler, events_read, chunks_read) = match deadline {
        Some(d) => vp_instrument::cancel::run_with_deadline(d, replay)
            .map_err(|_| format!("replay {target}: deadline exceeded"))??,
        None => replay()?,
    };
    if let Some(out) = option_value(args, "--save") {
        vp_core::durable::write_profile(std::path::Path::new(out), &profiler.metrics())
            .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    }
    let rows = [row(target, &profiler.metrics())];
    let title = match mode {
        ProfileMode::Full => "value profile".to_string(),
        _ => format!("{} value profile", mode_name(mode)),
    };
    println!(
        "{}",
        render_metric_table(
            &format!(
                "{title} replayed from {target} ({events_read} events, {chunks_read} chunks, {shards} shard(s))",
            ),
            &rows
        )
    );
    if let Some(g) = profiler.governor_stats() {
        println!(
            "governor: peak {} bytes, degraded {}, dropped {}, obs dropped {}",
            g.bytes_peak, g.entities_degraded, g.entities_dropped, g.observations_dropped
        );
    }
    if mode != ProfileMode::Full {
        println!("profiled fraction: {:6.2}%", profiler.profile_fraction() * 100.0);
    }
    if let (ProfileMode::Adaptive(budget), Some(ph)) = (mode, profiler.phase_stats()) {
        println!(
            "adaptive: windows {}, shifts {}, rearms {}, denied {} (window {}, max {} re-arms)",
            ph.windows,
            ph.shifts_detected,
            ph.rearms,
            ph.rearms_denied,
            budget.window,
            budget.max_rearms
        );
    }
    Ok(())
}

fn histogram(args: &[String]) -> Result<(), String> {
    let ds = dataset(args);
    let target = target_arg(args)?;
    let (program, input) = resolve(target, ds)?;
    let selection =
        if flag(args, "--all") { Selection::RegisterDefining } else { Selection::LoadsOnly };
    let mut profiler = InstructionProfiler::new(TrackerConfig::default());
    Instrumenter::new()
        .select(selection)
        .run(&program, MachineConfig::new().input(input), BUDGET, &mut profiler)
        .map_err(|e| e.to_string())?;
    let buckets = vp_core::invariance_histogram(&profiler.metrics(), |m| m.inv_top1);
    println!("{target}: execution-weighted Inv-Top(1) distribution");
    for (i, weight) in buckets.iter().enumerate() {
        let bar = "#".repeat((weight * 50.0).round() as usize);
        println!(
            "  {:>3}-{:<4} {:>6.1}% {bar}",
            i * 10,
            format!("{}%", (i + 1) * 10),
            weight * 100.0
        );
    }
    Ok(())
}

fn compare_cmd(args: &[String]) -> Result<(), String> {
    let target = target_arg(args)?;
    let w = Workload::by_name(target)
        .ok_or_else(|| format!("`{target}` is not a built-in workload"))?;
    let mut profiles = Vec::new();
    for ds in [DataSet::Train, DataSet::Test] {
        let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(w.program(), w.machine_config(ds), BUDGET, &mut profiler)
            .map_err(|e| e.to_string())?;
        profiles.push(profiler.metrics());
    }
    let rows = [row("train", &profiles[0]), row("test", &profiles[1])];
    println!("{}", render_metric_table(&format!("{target}: load profile by data set"), &rows));
    let c = compare(&profiles[0], &profiles[1]);
    println!("common load sites        {}", c.common);
    println!("inv-top1 correlation     {:.3}", c.inv_correlation);
    println!("lvp correlation          {:.3}", c.lvp_correlation);
    println!("mean |inv diff|          {:.3}", c.mean_abs_inv_diff);
    println!("top-value agreement      {:.1}%", c.top_value_agreement * 100.0);
    Ok(())
}

fn predict(args: &[String]) -> Result<(), String> {
    let ds = dataset(args);
    let target = target_arg(args)?;
    let (program, input) = resolve(target, ds)?;

    // Collect the load value stream once.
    let mut stream: Vec<(u32, u64)> = Vec::new();
    struct Collector<'a>(&'a mut Vec<(u32, u64)>);
    impl vp_instrument::Analysis for Collector<'_> {
        fn after_instr(&mut self, _m: &Machine, ev: &vp_sim::InstrEvent) {
            if let Some((_, v)) = ev.dest {
                self.0.push((ev.index, v));
            }
        }
    }
    Instrumenter::new()
        .select(Selection::LoadsOnly)
        .run(&program, MachineConfig::new().input(input), BUDGET, &mut Collector(&mut stream))
        .map_err(|e| e.to_string())?;

    println!("{:<14} {:>8} {:>8} {:>8}", "predictor", "hit%", "cover%", "prec%");
    let report = |name: &str, p: &mut dyn Predictor| {
        let s = eval_predictor(p, stream.iter().copied());
        println!(
            "{:<14} {:>8.1} {:>8.1} {:>8.1}",
            name,
            s.hit_rate() * 100.0,
            s.coverage() * 100.0,
            s.precision() * 100.0
        );
    };
    report("lvp", &mut LastValuePredictor::new(1024));
    report("stride", &mut StridePredictor::new(1024));
    report("two-level", &mut TwoLevelPredictor::new());
    report(
        "hybrid(l,s)",
        &mut HybridPredictor::new(LastValuePredictor::new(1024), StridePredictor::new(1024)),
    );
    report(
        "hybrid(s,2l)",
        &mut HybridPredictor::new(StridePredictor::new(1024), TwoLevelPredictor::new()),
    );
    Ok(())
}

/// `vprof optimize`: the end-to-end PGO loop. Profiles the suite on the
/// *train* input (through `SuiteRunner`, so `--jobs/--workers/--shards`,
/// the governor, checkpointing and fault injection all apply), plans
/// semi-invariant candidates from the per-load metrics, specializes each
/// program behind runtime guards, and re-runs original vs specialized on
/// the *test* input. Emits the cross-input report as a deterministic
/// table, a durable CRC-footered artifact (`--report FILE`), and
/// parallelism-invariant telemetry records (`vprof stats` renders them as
/// an `optimize` section).
fn optimize_cmd(args: &[String]) -> Result<(), String> {
    use vp_bench::OptimizeConfig;
    use vp_obs::MemRecorder;

    if flag(args, "--demo") {
        return optimize_demo(args);
    }

    let mut cfg = OptimizeConfig::default();
    if let Some(v) = option_value(args, "--min-invariance") {
        cfg.options.candidates.min_invariance =
            v.parse().map_err(|_| format!("bad --min-invariance value `{v}`"))?;
        if !(0.0..=1.0).contains(&cfg.options.candidates.min_invariance) {
            return Err(format!("bad --min-invariance value `{v}` (want a fraction in 0..=1)"));
        }
    }
    if let Some(v) = option_value(args, "--min-executions") {
        cfg.options.candidates.min_executions =
            v.parse().map_err(|_| format!("bad --min-executions value `{v}`"))?;
    }
    if let Some(v) = option_value(args, "--max-ways") {
        cfg.options.max_ways = v.parse().map_err(|_| format!("bad --max-ways value `{v}`"))?;
        if cfg.options.max_ways == 0 {
            return Err("bad --max-ways value `0` (need at least one guarded value)".to_string());
        }
    }
    // Parsed after the optimizer options: it creates the checkpoint file.
    let SuiteArgs { runner, workers, mode, .. } = suite_args(args)?;
    let telemetry_path = option_value(args, "--telemetry")
        .map_or_else(vp_bench::default_path, std::path::PathBuf::from);
    let report_path = option_value(args, "--report").unwrap_or("optimize-report.txt");

    // The profiling pass: loads only, on the train input. Selection
    // *thresholds* read these metrics; the guard values themselves come
    // from an exact per-workload pass inside `optimize_from_outcome`.
    let recorder = Arc::new(MemRecorder::new());
    let runner = runner.selection(Selection::LoadsOnly).recorder(recorder.clone());
    let mode = mode_name(mode);
    let workloads = vp_workloads::suite();
    let outcome = match workers {
        // Workers profile the train input; the parent owns everything
        // downstream of the profile, so the report and telemetry stay
        // byte-identical to an in-process run.
        Some(n) => {
            let mut fwd = args.to_vec();
            fwd.push("--train".to_string());
            runner.try_run_distributed(&workloads, worker_spec(&fwd, n)?)
        }
        None => runner.try_run(cfg.train),
    };

    let report = vp_bench::optimize_from_outcome(&outcome, &workloads, mode, &cfg)?;
    print!("{}", report.render());
    if !outcome.is_clean() {
        println!();
        print!("{}", outcome.render_failures());
    }
    if !report.all_equivalent() {
        println!(
            "warning: specialized output diverged from the original — guards failed to preserve behaviour"
        );
    }
    report
        .write_report(std::path::Path::new(report_path))
        .map_err(|e| format!("cannot write `{report_path}`: {e}"))?;
    println!("report: {report_path} ({} workloads)", report.workloads.len());

    let mut records = report.optimize_records("optimize");
    records.extend(vp_bench::fault_records("optimize", &outcome));
    vp_bench::write_jsonl(&telemetry_path, &records)
        .map_err(|e| format!("cannot write `{}`: {e}", telemetry_path.display()))?;
    println!("telemetry: {} ({} records)", telemetry_path.display(), records.len());
    if let Some(path) = std::env::var_os("BENCH_OPTIMIZE_JSON") {
        let line = format!("{}\n", report.bench_json());
        std::fs::write(&path, line)
            .map_err(|e| format!("cannot write `{}`: {e}", path.to_string_lossy()))?;
    }
    Ok(())
}

/// `vprof optimize --demo [change-period]` (and its `vprof specialize`
/// alias): the single-kernel specialization walkthrough on the hardcoded
/// demo program, profiling and evaluating the same input.
fn optimize_demo(args: &[String]) -> Result<(), String> {
    use vp_specialize::{demo, evaluate, find_candidates, specialize_all, CandidateOptions};
    let period: u64 = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or(Ok(0), |v| v.parse().map_err(|_| format!("bad change period `{v}`")))?;
    let program = demo::program();
    let input = demo::input(20_000, period);

    let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
    Instrumenter::new()
        .select(Selection::LoadsOnly)
        .run(&program, MachineConfig::new().input(input.clone()), BUDGET, &mut profiler)
        .map_err(|e| e.to_string())?;
    let candidates = find_candidates(&program, &profiler.metrics(), CandidateOptions::default());
    println!("candidates: {}", candidates.len());
    for c in &candidates {
        println!(
            "  load @{}  value {:#x}  invariance {:.1}%  execs {}",
            c.load_index,
            c.value,
            c.invariance * 100.0,
            c.executions
        );
    }
    if candidates.is_empty() {
        println!("nothing to specialize (invariance too low?)");
        return Ok(());
    }
    let specialized = specialize_all(&program, &candidates).map_err(|e| e.to_string())?;
    let report = evaluate(&program, &specialized, &input, BUDGET).map_err(|e| e.to_string())?;
    println!("base instructions         {}", report.base_instructions);
    println!("specialized instructions  {}", report.specialized_instructions);
    println!("speedup                   {:.3}x", report.speedup());
    println!("equivalent output         {}", report.equivalent);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(&args(&["--help"])).is_ok());
        assert!(dispatch(&args(&[])).is_ok());
        let err = dispatch(&args(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn list_runs() {
        assert!(dispatch(&args(&["list"])).is_ok());
    }

    #[test]
    fn run_and_profile_workloads() {
        assert!(dispatch(&args(&["run", "vortex"])).is_ok());
        assert!(dispatch(&args(&["run", "vortex", "--train"])).is_ok());
        assert!(dispatch(&args(&["profile", "vortex", "--top", "3"])).is_ok());
        assert!(dispatch(&args(&["profile", "vortex", "--all"])).is_ok());
        assert!(dispatch(&args(&["profile", "vortex", "--memory"])).is_ok());
        assert!(dispatch(&args(&["profile", "vortex", "--params"])).is_ok());
        assert!(dispatch(&args(&["profile", "vortex", "--convergent"])).is_ok());
        assert!(dispatch(&args(&["disasm", "vortex"])).is_ok());
    }

    #[test]
    fn profile_suite_serial_and_parallel() {
        let dir = std::env::temp_dir().join("vprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("suite.jsonl");
        let tel = tel.to_str().unwrap();
        assert!(dispatch(&args(&["profile-suite", "--telemetry", tel])).is_ok());
        assert!(dispatch(&args(&["profile-suite", "--jobs", "4", "--train", "--telemetry", tel]))
            .is_ok());
        assert!(dispatch(&args(&[
            "profile-suite",
            "--all",
            "--convergent",
            "--jobs",
            "2",
            "--baseline",
            "--telemetry",
            tel
        ]))
        .is_ok());
        assert!(dispatch(&args(&["profile-suite", "--shards", "2", "--telemetry", tel])).is_ok());
        assert!(dispatch(&args(&["profile-suite", "--jobs", "many"]))
            .unwrap_err()
            .contains("bad --jobs"));
        assert!(dispatch(&args(&["profile-suite", "--shards", "many"]))
            .unwrap_err()
            .contains("bad --shards"));
        assert!(dispatch(&args(&["profile-suite", "--shards", "0"]))
            .unwrap_err()
            .contains("need at least one shard"));
    }

    #[test]
    fn specialize_is_an_optimize_demo_alias() {
        // The old demo invocation keeps working, spelled either way.
        assert!(dispatch(&args(&["specialize"])).is_ok());
        assert!(dispatch(&args(&["specialize", "64"])).is_ok());
        assert!(dispatch(&args(&["optimize", "--demo"])).is_ok());
        assert!(dispatch(&args(&["optimize", "--demo", "64"])).is_ok());
        assert!(dispatch(&args(&["specialize", "sometimes"]))
            .unwrap_err()
            .contains("bad change period"));
        assert!(dispatch(&args(&["optimize", "--demo", "sometimes"]))
            .unwrap_err()
            .contains("bad change period"));
    }

    #[test]
    fn optimize_rejects_bad_flags() {
        assert!(dispatch(&args(&["optimize", "--jobs", "many"]))
            .unwrap_err()
            .contains("bad --jobs"));
        assert!(dispatch(&args(&["optimize", "--shards", "0"]))
            .unwrap_err()
            .contains("need at least one shard"));
        assert!(dispatch(&args(&["optimize", "--jobs", "2", "--workers", "2"]))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(dispatch(&args(&["optimize", "--min-invariance", "1.5"]))
            .unwrap_err()
            .contains("bad --min-invariance"));
        assert!(dispatch(&args(&["optimize", "--max-ways", "0"]))
            .unwrap_err()
            .contains("bad --max-ways"));
        assert!(dispatch(&args(&["optimize", "--convergent", "--adaptive"]))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(dispatch(&args(&["optimize", "--resume"]))
            .unwrap_err()
            .contains("--resume requires"));
    }

    #[test]
    fn stats_summarizes_telemetry() {
        let dir = std::env::temp_dir().join("vprof-cli-test-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("stats.jsonl");
        let tel_s = tel.to_str().unwrap();
        assert!(dispatch(&args(&["profile-suite", "--telemetry", tel_s])).is_ok());
        let text = std::fs::read_to_string(&tel).unwrap();
        assert!(text.lines().next().unwrap().contains("\"kind\":\"run\""));
        assert!(dispatch(&args(&["stats", tel_s])).is_ok());
        // Absent and empty telemetry are clean no-record runs, exit 0 —
        // the shape a serve daemon that admitted no session leaves.
        assert!(dispatch(&args(&["stats", "/nonexistent/telemetry.jsonl"])).is_ok());
        std::fs::write(&tel, "").unwrap();
        assert!(dispatch(&args(&["stats", tel_s])).is_ok());
        // A present-but-corrupt file is still an error.
        std::fs::write(&tel, "not json\n").unwrap();
        assert!(dispatch(&args(&["stats", tel_s])).is_err());
        // A directory is unreadable for a reason other than absence.
        assert!(dispatch(&args(&["stats", dir.to_str().unwrap()]))
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn verify_detects_corruption() {
        let dir = std::env::temp_dir().join("vprof-cli-test-verify");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("profile.tsv");
        let out_s = out.to_str().unwrap();
        assert!(dispatch(&args(&["profile", "vortex", "--save", out_s])).is_ok());
        assert!(dispatch(&args(&["verify", out_s])).is_ok());
        assert!(dispatch(&args(&["verify", out_s, "--lenient"])).is_ok());
        // Flip one digit in a data row (not the header): strict
        // verification fails, lenient recovers.
        let text = std::fs::read_to_string(&out).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        let corrupted = format!("{header}\n{}", body.replacen('1', "2", 1));
        assert_ne!(text, corrupted);
        std::fs::write(&out, corrupted).unwrap();
        let err = dispatch(&args(&["verify", out_s])).unwrap_err();
        assert!(err.contains("crc32 mismatch"), "{err}");
        assert!(dispatch(&args(&["verify", out_s, "--lenient"])).is_ok());
        assert!(dispatch(&args(&["verify", "/nonexistent.tsv"])).is_err());
    }

    #[test]
    fn checkpointed_suite_runs_and_resumes() {
        let dir = std::env::temp_dir().join("vprof-cli-test-checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("t.jsonl");
        let ckpt = dir.join("c.jsonl");
        let (tel_s, ckpt_s) = (tel.to_str().unwrap(), ckpt.to_str().unwrap());
        assert!(dispatch(&args(&["profile-suite", "--telemetry", tel_s, "--checkpoint", ckpt_s]))
            .is_ok());
        assert!(ckpt.exists());
        // Resuming a complete checkpoint re-runs nothing and still works.
        assert!(dispatch(&args(&[
            "profile-suite",
            "--telemetry",
            tel_s,
            "--checkpoint",
            ckpt_s,
            "--resume"
        ]))
        .is_ok());
        assert!(dispatch(&args(&["profile-suite", "--resume"]))
            .unwrap_err()
            .contains("--resume requires"));
        assert!(dispatch(&args(&["profile-suite", "--retries", "many"]))
            .unwrap_err()
            .contains("bad --retries"));
    }

    #[test]
    fn governed_suite_and_flag_errors() {
        let dir = std::env::temp_dir().join("vprof-cli-test-governor");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("g.jsonl");
        let tel_s = tel.to_str().unwrap();
        // A generous budget and deadline leave the suite clean, emit the
        // governor section, and land governor objects in telemetry.
        assert!(dispatch(&args(&[
            "profile-suite",
            "--telemetry",
            tel_s,
            "--mem-budget-mb",
            "64",
            "--deadline-ms",
            "60000"
        ]))
        .is_ok());
        let text = std::fs::read_to_string(&tel).unwrap();
        assert!(text.contains("\"governor\""), "{text}");
        assert!(dispatch(&args(&["stats", tel_s])).is_ok());
        assert!(dispatch(&args(&["profile-suite", "--deadline-ms", "soon"]))
            .unwrap_err()
            .contains("bad --deadline-ms"));
        assert!(dispatch(&args(&["profile-suite", "--mem-budget-mb", "lots"]))
            .unwrap_err()
            .contains("bad --mem-budget-mb"));
    }

    #[test]
    fn workers_flag_validation() {
        // Threads and worker processes are different parallelism axes;
        // picking both is a configuration error, not a silent override.
        assert!(dispatch(&args(&["profile-suite", "--workers", "2", "--jobs", "2"]))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(dispatch(&args(&["profile-suite", "--workers", "some"]))
            .unwrap_err()
            .contains("bad --workers"));
    }

    #[test]
    fn record_and_replay_accept_governor_flags() {
        let dir = std::env::temp_dir().join("vprof-cli-test-governed-replay");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("li.vpc");
        let out_s = out.to_str().unwrap();
        assert!(dispatch(&args(&["record", "li", "-o", out_s, "--deadline-ms", "60000"])).is_ok());
        // A generous budget replays to the same profile as an ungoverned
        // replay, serially and sharded.
        let plain = dir.join("plain.tsv");
        let governed = dir.join("governed.tsv");
        let sharded = dir.join("sharded.tsv");
        assert!(dispatch(&args(&["replay", out_s, "--save", plain.to_str().unwrap()])).is_ok());
        assert!(dispatch(&args(&[
            "replay",
            out_s,
            "--mem-budget-mb",
            "64",
            "--deadline-ms",
            "60000",
            "--save",
            governed.to_str().unwrap()
        ]))
        .is_ok());
        assert!(dispatch(&args(&[
            "replay",
            out_s,
            "--mem-budget-mb",
            "64",
            "--shards",
            "4",
            "--save",
            sharded.to_str().unwrap()
        ]))
        .is_ok());
        assert_eq!(std::fs::read(&plain).unwrap(), std::fs::read(&governed).unwrap());
        assert_eq!(std::fs::read(&plain).unwrap(), std::fs::read(&sharded).unwrap());
    }

    #[test]
    fn adaptive_suite_and_flag_errors() {
        let dir = std::env::temp_dir().join("vprof-cli-test-adaptive");
        std::fs::create_dir_all(&dir).unwrap();
        let tel = dir.join("a.jsonl");
        let tel_s = tel.to_str().unwrap();
        assert!(dispatch(&args(&[
            "profile-suite",
            "--adaptive",
            "--phase-window",
            "256",
            "--max-rearms",
            "4",
            "--telemetry",
            tel_s
        ]))
        .is_ok());
        let text = std::fs::read_to_string(&tel).unwrap();
        assert!(text.contains("\"phase\""), "{text}");
        assert!(text.contains("\"mode\":\"adaptive-loads\""), "{text}");
        assert!(dispatch(&args(&["stats", tel_s])).is_ok());
        // Non-adaptive telemetry carries no phase objects.
        assert!(dispatch(&args(&["profile-suite", "--telemetry", tel_s])).is_ok());
        let text = std::fs::read_to_string(&tel).unwrap();
        assert!(!text.contains("\"phase\""), "{text}");
        // Flag validation.
        assert!(dispatch(&args(&["profile-suite", "--adaptive", "--convergent"]))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(dispatch(&args(&["profile-suite", "--phase-window", "64"]))
            .unwrap_err()
            .contains("require --adaptive"));
        assert!(dispatch(&args(&["profile-suite", "--adaptive", "--phase-window", "0"]))
            .unwrap_err()
            .contains("window must be positive"));
        assert!(dispatch(&args(&["profile-suite", "--adaptive", "--max-rearms", "lots"]))
            .unwrap_err()
            .contains("bad --max-rearms"));
    }

    #[test]
    fn adaptive_replay_matches_across_shards() {
        let dir = std::env::temp_dir().join("vprof-cli-test-adaptive-replay");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("li.vpc");
        let out_s = out.to_str().unwrap();
        assert!(dispatch(&args(&["record", "li", "-o", out_s])).is_ok());
        let serial = dir.join("serial.tsv");
        let sharded = dir.join("sharded.tsv");
        assert!(dispatch(&args(&[
            "replay",
            out_s,
            "--adaptive",
            "--save",
            serial.to_str().unwrap()
        ]))
        .is_ok());
        assert!(dispatch(&args(&[
            "replay",
            out_s,
            "--adaptive",
            "--phase-window",
            "256",
            "--shards",
            "4",
            "--save",
            sharded.to_str().unwrap()
        ]))
        .is_ok());
        // Serial and sharded adaptive replays write identical profiles
        // (the window override cannot break entity-shard determinism).
        assert!(dispatch(&args(&[
            "replay",
            out_s,
            "--adaptive",
            "--phase-window",
            "256",
            "--save",
            serial.to_str().unwrap()
        ]))
        .is_ok());
        assert_eq!(std::fs::read(&serial).unwrap(), std::fs::read(&sharded).unwrap());
        assert!(dispatch(&args(&["replay", out_s, "--adaptive", "--mem-budget-mb", "64"]))
            .unwrap_err()
            .contains("not supported with --adaptive"));
        assert!(dispatch(&args(&["replay", out_s, "--max-rearms", "4"]))
            .unwrap_err()
            .contains("require --adaptive"));
    }

    #[test]
    fn mem_budget_is_rejected_outside_full_mode() {
        // Only the full profiler is governed: a budget with a sampling
        // mode used to be silently ignored by profile-suite and optimize.
        for cmd in [&["profile-suite"][..], &["optimize"], &["serve", "--socket", "unused.sock"]] {
            for (mode, name) in [("--convergent", "convergent"), ("--adaptive", "adaptive")] {
                let mut argv = args(cmd);
                argv.extend(args(&[mode, "--mem-budget-mb", "8"]));
                let err = dispatch(&argv).unwrap_err();
                assert!(err.contains(&format!("not supported with --{name}")), "{argv:?}: {err}");
            }
        }
        // The format check still comes first.
        assert!(dispatch(&args(&["optimize", "--convergent", "--mem-budget-mb", "lots"]))
            .unwrap_err()
            .contains("bad --mem-budget-mb"));
    }

    #[test]
    fn convergent_replay_matches_across_shards() {
        let dir = std::env::temp_dir().join("vprof-cli-test-convergent-replay");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("li.vpc");
        let out_s = out.to_str().unwrap();
        assert!(dispatch(&args(&["record", "li", "-o", out_s])).is_ok());
        let [full, serial, sharded] = ["full", "serial", "sharded"].map(|n| dir.join(n));
        assert!(dispatch(&args(&["replay", out_s, "--save", full.to_str().unwrap()])).is_ok());
        let serial_s = serial.to_str().unwrap();
        assert!(dispatch(&args(&["replay", out_s, "--convergent", "--save", serial_s])).is_ok());
        let sharded_s = sharded.to_str().unwrap();
        assert!(dispatch(&args(&[
            "replay",
            out_s,
            "--convergent",
            "--shards",
            "3",
            "--save",
            sharded_s
        ]))
        .is_ok());
        assert_eq!(std::fs::read(&serial).unwrap(), std::fs::read(&sharded).unwrap());
        assert_ne!(std::fs::read(&serial).unwrap(), std::fs::read(&full).unwrap());
        assert!(dispatch(&args(&["replay", out_s, "--convergent", "--mem-budget-mb", "64"]))
            .unwrap_err()
            .contains("not supported with --convergent"));
    }

    #[test]
    fn compare_predict_specialize() {
        assert!(dispatch(&args(&["compare", "vortex"])).is_ok());
        assert!(dispatch(&args(&["predict", "vortex"])).is_ok());
        assert!(dispatch(&args(&["specialize", "100"])).is_ok());
    }

    #[test]
    fn error_paths() {
        assert!(dispatch(&args(&["run"])).unwrap_err().contains("missing target"));
        assert!(dispatch(&args(&["run", "nonesuch"])).unwrap_err().contains("neither"));
        assert!(dispatch(&args(&["run", "/nonexistent/x.s"])).unwrap_err().contains("cannot read"));
        assert!(dispatch(&args(&["profile", "vortex", "--top", "NaN"]))
            .unwrap_err()
            .contains("bad --top"));
        assert!(dispatch(&args(&["compare", "nonesuch"])).is_err());
        assert!(dispatch(&args(&["specialize", "bogus"]))
            .unwrap_err()
            .contains("bad change period"));
        assert!(dispatch(&args(&["assemble", "notasm.txt"])).unwrap_err().contains("expects a .s"));
    }

    #[test]
    fn histogram_and_profile_save() {
        assert!(dispatch(&args(&["histogram", "vortex"])).is_ok());
        assert!(dispatch(&args(&["histogram", "vortex", "--all", "--train"])).is_ok());
        let dir = std::env::temp_dir().join("vprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("profile.tsv");
        assert!(dispatch(&args(&["profile", "vortex", "--save", out.to_str().unwrap()])).is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        let parsed = vp_core::parse_profile(&text).unwrap();
        assert!(!parsed.is_empty());
    }

    #[test]
    fn trace_record_and_replay() {
        let dir = std::env::temp_dir().join("vprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("li.vpt");
        assert!(dispatch(&args(&["trace", "li", "-o", out.to_str().unwrap()])).is_ok());
        assert!(dispatch(&args(&["profile", out.to_str().unwrap()])).is_ok());
        std::fs::write(&out, b"junk").unwrap();
        assert!(dispatch(&args(&["profile", out.to_str().unwrap()])).is_err());
    }

    #[test]
    fn record_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("vprof-cli-test-record");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("li.vpc");
        let out_s = out.to_str().unwrap();
        assert!(dispatch(&args(&["record", "li", "-o", out_s])).is_ok());
        assert!(dispatch(&args(&["replay", out_s])).is_ok());
        // A sharded replay writes the same profile as a serial one.
        let serial = dir.join("serial.tsv");
        let sharded = dir.join("sharded.tsv");
        assert!(dispatch(&args(&["replay", out_s, "--save", serial.to_str().unwrap()])).is_ok());
        assert!(dispatch(&args(&[
            "replay",
            out_s,
            "--shards",
            "4",
            "--save",
            sharded.to_str().unwrap()
        ]))
        .is_ok());
        assert_eq!(std::fs::read(&serial).unwrap(), std::fs::read(&sharded).unwrap());
        assert!(dispatch(&args(&["replay", out_s, "--shards", "many"]))
            .unwrap_err()
            .contains("bad --shards"));
        assert!(dispatch(&args(&["replay", out_s, "--shards", "0"]))
            .unwrap_err()
            .contains("need at least one shard"));
        // Corruption anywhere in the file is rejected, never mis-decoded.
        let mut bytes = std::fs::read(&out).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&out, &bytes).unwrap();
        assert!(dispatch(&args(&["replay", out_s])).is_err());
        std::fs::write(&out, b"junk").unwrap();
        assert!(dispatch(&args(&["replay", out_s])).is_err());
    }

    #[test]
    fn replay_empty_trace_matches_empty_workload() {
        let dir = std::env::temp_dir().join("vprof-cli-test-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("empty.vpc");
        let out_s = out.to_str().unwrap();
        // A trace with a header and trailer but zero events replays to a
        // zero-row profile without panicking, serially and sharded.
        std::fs::write(&out, vp_instrument::TraceEncoder::new().finish()).unwrap();
        let saved = dir.join("empty.tsv");
        assert!(dispatch(&args(&["replay", out_s, "--save", saved.to_str().unwrap()])).is_ok());
        assert!(dispatch(&args(&["replay", out_s, "--shards", "3"])).is_ok());
        let text = std::fs::read_to_string(&saved).unwrap();
        assert!(vp_core::parse_profile(&text).unwrap().is_empty());
        // The bare magic with no trailer is truncated, not empty.
        std::fs::write(&out, b"VPC1").unwrap();
        assert!(dispatch(&args(&["replay", out_s])).is_err());
    }

    #[test]
    fn assemble_object_round_trip() {
        let dir = std::env::temp_dir().join("vprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("prog.s");
        let obj = dir.join("prog.vpo");
        std::fs::write(&src, ".text\nmain: li a0, 9\n sys exit\n").unwrap();
        assert!(dispatch(&args(&["assemble", src.to_str().unwrap(), "-o", obj.to_str().unwrap()]))
            .is_ok());
        assert!(dispatch(&args(&["run", obj.to_str().unwrap()])).is_ok());
        assert!(dispatch(&args(&["disasm", obj.to_str().unwrap()])).is_ok());
        // Corrupt object is rejected cleanly.
        std::fs::write(&obj, b"garbage").unwrap();
        assert!(dispatch(&args(&["run", obj.to_str().unwrap()])).is_err());
    }
}
