//! A closed stdout ends a command quietly: `pardec clust mpx … | head -3`
//! must exit 0 without a panic once the reader has stopped. The read end of
//! the pipe is closed before `pardec` starts, so its first write fails
//! every time.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_zero_with_nothing_on_stderr() {
    let mut graph = std::env::temp_dir();
    graph.push(format!("pardec-closed-stdout-{}.txt", std::process::id()));
    std::fs::write(&graph, "0\t1\n1\t2\n2\t3\n3\t0\n2\t4\n").expect("write the edge list");
    let graph = graph.to_string_lossy().into_owned();
    for command in [
        vec!["clust", "mpx", "--graph", &graph],
        vec!["dist", "approx", "--graph", &graph, "--tau", "2"],
        vec!["stats", "--graph", &graph],
        vec!["help"],
    ] {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pardec"))
            .args(&command)
            .stdout(writer)
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn pardec")
            .wait_with_output()
            .expect("wait for pardec");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("panicked"),
            "{command:?} panicked: {stderr}"
        );
        assert!(stderr.is_empty(), "{command:?} wrote to stderr: {stderr}");
        assert!(out.status.success(), "{command:?} exited {:?}", out.status);
    }
    let _ = std::fs::remove_file(&graph);
}
