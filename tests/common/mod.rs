//! Helpers shared by the tests that drive the real `vprof` binary.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// Builds the `vprof` binary once and returns its path. Tests run from
/// `target/<profile>/deps/<test-bin>`, so the CLI lands two levels up.
fn vprof() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let me = std::env::current_exe().expect("test binary path");
        let profile_dir = me.parent().and_then(Path::parent).expect("target profile dir");
        let mut build = Command::new(option_env!("CARGO").unwrap_or("cargo"));
        build.args(["build", "-p", "vp-cli", "--quiet"]);
        if profile_dir.file_name().is_some_and(|n| n == "release") {
            build.arg("--release");
        }
        let status = build.status().expect("cargo build -p vp-cli");
        assert!(status.success(), "building vprof failed");
        let bin = profile_dir.join("vprof");
        assert!(bin.exists(), "no vprof at {}", bin.display());
        bin
    })
}

/// A `vprof` command with the environment that changes its behaviour
/// scrubbed: no inherited fault plan, no inherited telemetry path.
pub fn vprof_command() -> Command {
    let mut cmd = Command::new(vprof());
    cmd.env_remove("VP_FAULTS").env_remove("VP_TELEMETRY");
    cmd
}
