//! End-to-end contract of `vprof serve`: a profile streamed through the
//! daemon is byte-identical to a local `vprof replay`, a `kill -9`
//! mid-checkpoint plus restart `--resume` loses nothing the client
//! cannot retransmit — profile TSV *and* telemetry land byte-identical
//! to an undisturbed run — and one session's injected failure never
//! perturbs another.
//!
//! These tests drive the real `vprof` binary because the properties
//! under test are process-level: `std::process::abort` in the daemon,
//! reconnecting clients, exit codes, and the daemon's stdout ledger.

mod common;

use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

use common::vprof_command;

struct Run {
    stdout: String,
    stderr: String,
    ok: bool,
}

/// Runs `vprof` to completion in `dir` with a scrubbed fault-injection
/// environment plus `envs`.
fn run_in(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Run {
    let mut cmd = vprof_command();
    cmd.args(args).current_dir(dir);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("spawn vprof");
    Run {
        stdout: String::from_utf8(out.stdout).expect("utf8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf8 stderr"),
        ok: out.status.success(),
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vp-serve-it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns a serve daemon in `dir` and waits for its socket to appear.
fn spawn_serve(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Child {
    let mut cmd = vprof_command();
    cmd.arg("serve").args(args).current_dir(dir).stdout(Stdio::piped()).stderr(Stdio::piped());
    for (key, value) in envs {
        cmd.env(key, value);
    }
    // A crashed daemon leaves its socket file behind; `bind` replaces
    // it, but waiting on `exists` would pass before the new daemon is
    // up. Unlink first so the file reappearing means "bound".
    let sock = dir.join("serve.sock");
    let _ = std::fs::remove_file(&sock);
    let child = cmd.spawn().expect("spawn vprof serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {}", sock.display());
        std::thread::sleep(Duration::from_millis(10));
    }
    child
}

/// Sends `SHUTDOWN` and waits for the daemon to drain; returns its
/// stdout and whether it exited 0.
fn shutdown_and_reap(dir: &Path, mut daemon: Child) -> (String, bool) {
    let down = run_in(dir, &["client", "--connect", "serve.sock", "--shutdown"], &[]);
    assert!(down.ok, "shutdown send failed: {}", down.stderr);
    reap(&mut daemon)
}

/// Waits (bounded) for the daemon to exit and collects its stdout.
fn reap(daemon: &mut Child) -> (String, bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon did not exit");
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    use std::io::Read as _;
    if let Some(mut out) = daemon.stdout.take() {
        out.read_to_string(&mut stdout).expect("daemon stdout");
    }
    (stdout, status.success())
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

/// Records `li` with small chunks so one session spans many checkpoint
/// boundaries (6000 events / 500 = 12 chunks, checkpoints at 8 and END).
fn record_trace(dir: &Path) {
    let rec = run_in(dir, &["record", "li", "-o", "li.vpc", "--chunk-events", "500"], &[]);
    assert!(rec.ok, "record failed: {}", rec.stderr);
    assert!(rec.stdout.contains("12 chunks"), "unexpected layout: {}", rec.stdout);
}

#[test]
fn a_session_killed_before_the_client_writes_reports_the_typed_reason() {
    use std::io::Write;
    use std::os::unix::net::UnixListener;
    use vp_instrument::net::{self, SessionMsg};
    use vp_instrument::{frame, FrameReader};

    // A stand-in daemon admits the session, kills it at once and closes
    // the socket, as `serve` does after a session panic. The client's
    // next chunk write then fails; the reason it must report is the ERR
    // already waiting in its receive queue, not the broken pipe.
    let dir = fresh_dir("killed-early");
    record_trace(&dir);
    let listener = UnixListener::bind(dir.join("fake.sock")).expect("bind");
    let daemon = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new(stream.try_clone().expect("clone"));
        reader.expect_magic().expect("client magic");
        assert!(matches!(net::read_msg(&mut reader), Ok(SessionMsg::Hello { .. })));
        let mut reply = frame::FRAME_MAGIC.to_vec();
        net::write_msg(&mut reply, &SessionMsg::HelloOk { acked: 0 }).expect("encode");
        let kill = SessionMsg::Err { reason: "session panicked: injected".to_string() };
        net::write_msg(&mut reply, &kill).expect("encode");
        stream.write_all(&reply).expect("reply");
    });
    let client = run_in(&dir, &["client", "li.vpc", "--connect", "fake.sock"], &[]);
    daemon.join().expect("stand-in daemon");
    assert!(!client.ok, "a killed session exited 0");
    assert!(
        client.stderr.contains("session killed: session panicked: injected"),
        "expected a typed kill, got: {}",
        client.stderr
    );
}

#[test]
fn streamed_profile_matches_replay_byte_for_byte() {
    let dir = fresh_dir("roundtrip");
    record_trace(&dir);
    let replay = run_in(&dir, &["replay", "li.vpc", "--save", "replay.tsv"], &[]);
    assert!(replay.ok, "replay failed: {}", replay.stderr);

    let daemon = spawn_serve(&dir, &["--socket", "serve.sock", "--state-dir", "state"], &[]);
    let client = run_in(
        &dir,
        &[
            "client",
            "li.vpc",
            "--connect",
            "serve.sock",
            "--tenant",
            "acme",
            "--save",
            "client.tsv",
            "--query",
        ],
        &[],
    );
    assert!(client.ok, "client failed: {}", client.stderr);
    assert!(client.stdout.contains("12 chunks"), "client stdout: {}", client.stdout);
    let (summary, ok) = shutdown_and_reap(&dir, daemon);
    assert!(ok, "daemon exit nonzero: {summary}");
    assert!(
        summary.contains("serve: 1 completed, 0 killed, 0 rejected, 12 chunks acked"),
        "daemon summary: {summary}"
    );

    assert_eq!(read(&dir, "client.tsv"), read(&dir, "replay.tsv"), "stream vs replay TSV differ");
}

/// The crash oracle: kill the daemon mid-checkpoint (after the chunk log
/// is synced, before the meta append — the worst durable-but-unacked
/// window), restart `--resume`, rerun the client. Profile and telemetry
/// must be byte-identical to a never-crashed run.
fn kill_resume_oracle(tag: &str, tenants: &[&str]) {
    let base = fresh_dir(&format!("base-{tag}"));
    let hurt = fresh_dir(&format!("hurt-{tag}"));
    for dir in [&base, &hurt] {
        record_trace(dir);
    }
    let serve_args = ["--socket", "serve.sock", "--state-dir", "state", "--telemetry", "t.jsonl"];
    let run_clients = |dir: &Path, expect_ok: bool| {
        let runs: Vec<Run> = std::thread::scope(|scope| {
            let handles: Vec<_> = tenants
                .iter()
                .map(|tenant| {
                    scope.spawn(move || {
                        run_in(
                            dir,
                            &[
                                "client",
                                "li.vpc",
                                "--connect",
                                "serve.sock",
                                "--tenant",
                                tenant,
                                "--save",
                                &format!("{tenant}.tsv"),
                            ],
                            &[],
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for run in &runs {
            if expect_ok {
                assert!(run.ok, "client failed: {} {}", run.stdout, run.stderr);
            } else {
                assert!(!run.ok, "client survived the daemon crash: {}", run.stdout);
            }
        }
        runs
    };

    // Undisturbed baseline.
    let daemon = spawn_serve(&base, &serve_args, &[]);
    run_clients(&base, true);
    let (base_summary, ok) = shutdown_and_reap(&base, daemon);
    assert!(ok, "baseline daemon exit nonzero: {base_summary}");

    // Disturbed: the first checkpoint anywhere aborts the daemon, so no
    // session can complete — every client dies with it.
    let mut daemon = spawn_serve(&hurt, &serve_args, &[("VP_FAULTS", "kill:session/checkpoint@1")]);
    run_clients(&hurt, false);
    let (_, crashed_ok) = reap(&mut daemon);
    assert!(!crashed_ok, "daemon should have aborted on the injected kill");

    // Restart, resume, retransmit from the durable cursor.
    let mut resume_args = serve_args.to_vec();
    resume_args.push("--resume");
    let daemon = spawn_serve(&hurt, &resume_args, &[]);
    let reruns = run_clients(&hurt, true);
    if tenants.len() == 1 {
        // One client deterministically checkpoints at chunk 8 before the
        // kill; with concurrent clients the crash point varies.
        assert!(
            reruns[0].stdout.contains("resumed at 8"),
            "client did not resume from the checkpoint: {}",
            reruns[0].stdout
        );
    }
    let (hurt_summary, ok) = shutdown_and_reap(&hurt, daemon);
    assert!(ok, "resumed daemon exit nonzero: {hurt_summary}");

    assert_eq!(base_summary, hurt_summary, "daemon ledgers diverged");
    assert_eq!(read(&base, "t.jsonl"), read(&hurt, "t.jsonl"), "telemetry diverged");
    for tenant in tenants {
        assert_eq!(
            read(&base, &format!("{tenant}.tsv")),
            read(&hurt, &format!("{tenant}.tsv")),
            "profile for {tenant} diverged"
        );
    }
}

#[test]
fn kill_and_resume_is_byte_identical_one_client() {
    kill_resume_oracle("one", &["solo"]);
}

#[test]
fn kill_and_resume_is_byte_identical_eight_clients() {
    kill_resume_oracle("eight", &["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"]);
}

#[test]
fn injected_session_failure_never_perturbs_other_tenants() {
    let dir = fresh_dir("isolation");
    record_trace(&dir);
    let replay = run_in(&dir, &["replay", "li.vpc", "--save", "replay.tsv"], &[]);
    assert!(replay.ok, "replay failed: {}", replay.stderr);

    // The fault plan panics the third frame of tenant `evil`'s session
    // and touches nothing else.
    let daemon = spawn_serve(
        &dir,
        &["--socket", "serve.sock", "--state-dir", "state"],
        &[("VP_FAULTS", "panic:session/evil/frame@3")],
    );
    let good = |save: &str| {
        run_in(
            &dir,
            &["client", "li.vpc", "--connect", "serve.sock", "--tenant", "good", "--save", save],
            &[],
        )
    };
    let before = good("good-before.tsv");
    assert!(before.ok, "good client (before) failed: {}", before.stderr);

    let evil =
        run_in(&dir, &["client", "li.vpc", "--connect", "serve.sock", "--tenant", "evil"], &[]);
    assert!(!evil.ok, "evil session should have been killed");
    assert!(
        evil.stderr.contains("session panicked"),
        "expected a typed kill, got: {}",
        evil.stderr
    );

    // The daemon survived the panic: the same tenant keeps working.
    let after = good("good-after.tsv");
    assert!(after.ok, "good client (after) failed: {}", after.stderr);

    let (summary, ok) = shutdown_and_reap(&dir, daemon);
    assert!(ok, "daemon exit nonzero: {summary}");
    assert!(
        summary.contains("serve: 2 completed, 1 killed, 0 rejected, 24 chunks acked"),
        "daemon summary: {summary}"
    );
    assert_eq!(read(&dir, "good-before.tsv"), read(&dir, "replay.tsv"));
    assert_eq!(read(&dir, "good-after.tsv"), read(&dir, "replay.tsv"));
}
