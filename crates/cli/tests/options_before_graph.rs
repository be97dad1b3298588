//! Every command checks its options before it reads `--graph`: given a
//! file that does not exist and an option that does not parse, `pardec`
//! must fail on the option, naming it, and never get as far as opening the
//! file. On a large edge list the other order spends the whole parse before
//! reporting a typo.

use std::process::Command;

#[test]
fn bad_options_fail_before_the_graph_is_opened() {
    let graph = "/nonexistent/pardec-edge-list.txt";
    for (command, option) in [
        (vec!["kcenter", "--k", "abc"], "--k"),
        (vec!["kcenter", "--k", "3", "--seed", "x"], "--seed"),
        (vec!["mr", "cluster", "--tau", "x"], "--tau"),
        (vec!["mr", "cluster", "--partitions", "0"], "--partitions"),
        (vec!["mr", "bfs", "--source", "x"], "--source"),
        (vec!["mr", "bfs", "--partitions", "x"], "--partitions"),
        (vec!["mr", "hadi", "--trials", "x"], "--trials"),
        (vec!["mr", "hadi", "--trials", "0"], "--trials"),
        (vec!["clust", "weighted", "--tau", "x"], "--tau"),
        (vec!["clust", "weighted", "--delta", "0"], "--delta"),
        (vec!["dist", "weighted", "--tau", "x"], "--tau"),
        (vec!["dist", "weighted", "--seed", "x"], "--seed"),
        (vec!["clust", "cluster", "--tau", "abc"], "--tau"),
        (vec!["dist", "approx", "--tau", "abc"], "--tau"),
        (vec!["oracle", "--tau", "abc", "--queries", "0:1"], "--tau"),
        (
            vec!["snapshot", "save", "--tau", "abc", "--out", "x"],
            "--tau",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pardec"))
            .args(&command)
            .args(["--graph", graph])
            .output()
            .expect("run pardec");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{command:?} succeeded");
        assert!(
            stderr.contains(option),
            "{command:?} did not name {option}: {stderr}"
        );
        assert!(
            !stderr.contains("cannot open"),
            "{command:?} read --graph before checking {option}: {stderr}"
        );
    }
}
