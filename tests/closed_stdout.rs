//! `vprof` whose reader stops early (`vprof list | head -1`) exits 0
//! without a word on stderr, instead of panicking on the closed pipe.

mod common;

use std::process::Stdio;

#[test]
fn a_closed_stdout_is_a_quiet_success() {
    let commands: [&[&str]; 4] = [
        &["list"],
        &["experiment", "E4"],
        &["profile", "li", "--convergent", "--train", "--all"],
        &["disasm", "li"],
    ];
    for argv in commands {
        let mut child = common::vprof_command()
            .args(argv)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn vprof");
        // Close the read end before the child's first write: that write
        // then fails with EPIPE.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for vprof");
        assert!(out.status.success(), "{argv:?}: {:?}", out.status);
        assert!(out.stderr.is_empty(), "{argv:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}
