//! Regression tests for the `repro` binary's argument/parse layer.
//!
//! Drives the compiled binary (`CARGO_BIN_EXE_repro`) end to end:
//! property parse errors and unknown atoms must produce a clean
//! one-line `error: …` diagnostic on stderr and exit code 2
//! ("unknown") — not the full usage dump, and not a panic — while
//! well-formed invocations keep their documented exit codes. The
//! `--symmetry` flag must accept `full`/`off` and produce the same
//! verdicts either way on an id-symmetric candidate. Out-of-range
//! numeric flags and process indices must be refused with one `error:`
//! line and exit 2 before the library's own assertions can panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("SYMMETRY")
        .output()
        .expect("repro binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn parse_error_exits_2_with_clean_message() {
    // Unbalanced parenthesis: a parse error in the property DSL.
    let out = repro(&[
        "check",
        "always(safe",
        "--class",
        "atomic",
        "--n",
        "2",
        "--f",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "parse errors are 'unknown'");
    let err = stderr_of(&out);
    assert!(
        err.starts_with("error: "),
        "clean one-line diagnostic, got: {err:?}"
    );
    assert!(
        !err.contains("usage:"),
        "parse errors must not dump usage: {err:?}"
    );
}

#[test]
fn unknown_atom_exits_2_with_clean_message() {
    let out = repro(&[
        "check",
        "always(no_such_atom)",
        "--class",
        "atomic",
        "--n",
        "2",
        "--f",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "unknown atoms are 'unknown'");
    let err = stderr_of(&out);
    assert!(err.starts_with("error: "), "got: {err:?}");
    assert!(!err.contains("usage:"), "got: {err:?}");
}

#[test]
fn bad_flag_value_still_gets_usage() {
    // Genuine argument misuse (not a property-DSL problem) keeps the
    // usage dump so the user sees the command grammar.
    let out = repro(&["check", "always(safe)", "--symmetry", "sideways"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("--symmetry"), "got: {err:?}");
    assert!(err.contains("usage:"), "got: {err:?}");
}

#[test]
fn holding_properties_exit_0_under_both_symmetry_modes() {
    for mode in ["off", "full"] {
        let out = repro(&[
            "check",
            "always(safe); ef(decided(0)) & ef(decided(1))",
            "--class",
            "atomic",
            "--n",
            "2",
            "--f",
            "0",
            "--symmetry",
            mode,
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "mode {mode}: {}",
            stderr_of(&out)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("HOLDS"), "mode {mode}: {stdout}");
        assert!(!stdout.contains("FAILS"), "mode {mode}: {stdout}");
    }
}

#[test]
fn failing_property_exits_1() {
    // A mixed (bivalent) initialization is not univalent at the root.
    let out = repro(&[
        "check",
        "now(univalent)",
        "--class",
        "atomic",
        "--n",
        "2",
        "--f",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
}

#[test]
fn check_verdicts_agree_across_frontier_disciplines() {
    // The work-stealing frontier must be invisible at the CLI surface:
    // same exit code and same verdict lines (the full stdout includes
    // state counts and witness paths, which are pinned too — complete
    // explorations renumber to the identical graph).
    let run = |frontier: &str| {
        repro(&[
            "check",
            "always(safe); ef(decided(0)) & ef(decided(1))",
            "--class",
            "atomic",
            "--n",
            "2",
            "--f",
            "0",
            "--threads",
            "4",
            "--frontier",
            frontier,
        ])
    };
    let (layered, ws) = (run("layered"), run("ws"));
    assert_eq!(layered.status.code(), Some(0), "{}", stderr_of(&layered));
    assert_eq!(ws.status.code(), Some(0), "{}", stderr_of(&ws));
    assert_eq!(
        String::from_utf8_lossy(&layered.stdout),
        String::from_utf8_lossy(&ws.stdout),
        "frontier discipline leaked into the CLI output"
    );
}

#[test]
fn bad_frontier_value_gets_usage() {
    let out = repro(&["check", "always(safe)", "--frontier", "sideways"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("--frontier"), "got: {err:?}");
    assert!(err.contains("usage:"), "got: {err:?}");
}

#[test]
fn values_is_no_longer_a_symmetry_mode() {
    let out = repro(&["witness", "--symmetry", "values"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("--symmetry wants full|off"), "got: {err:?}");
    assert!(err.contains("usage:"), "got: {err:?}");
}

#[test]
fn stale_symmetry_env_value_is_named_once_on_stderr() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["witness", "--class", "atomic", "--n", "2", "--f", "0"])
        .env("SYMMETRY", "values")
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert_eq!(
        err.lines().filter(|l| l.contains("full|off")).count(),
        1,
        "one warning line naming full|off, got: {err:?}"
    );
}

/// One `error:` line on stderr, exit 2, no panic.
fn assert_refused(args: &[&str], needle: &str) {
    let out = repro(args);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err:?}");
    assert_eq!(err.lines().count(), 1, "{args:?}: {err:?}");
    assert!(err.starts_with("error: "), "{args:?}: {err:?}");
    assert!(err.contains(needle), "{args:?}: {err:?}");
}

#[test]
fn witness_refuses_more_processes_than_the_packed_layout_holds() {
    assert_refused(
        &["witness", "--n", "40", "--f", "1"],
        "--n must be in 1..=32",
    );
}

#[test]
fn witness_refuses_zero_processes() {
    assert_refused(&["witness", "--n", "0"], "--n must be in 1..=32");
}

#[test]
fn witness_refuses_a_refutation_without_a_survivor() {
    assert_refused(&["witness", "--n", "3", "--f", "5"], "f + 1 < n");
}

#[test]
fn certify_fd_boost_refuses_fewer_than_two_processes() {
    assert_refused(
        &["certify", "--construction", "fd-boost", "--n", "0"],
        "--n must be in 2..=32",
    );
}

#[test]
fn certify_set_boost_refuses_parameters_the_construction_rejects() {
    assert_refused(
        &[
            "certify",
            "--construction",
            "set-boost",
            "--n",
            "1",
            "--k",
            "0",
        ],
        "set-boost with n=1, k=0",
    );
}

#[test]
fn check_refuses_an_out_of_range_proc_decided_index() {
    // Used to panic with an index out of bounds (exit 101).
    assert_refused(
        &[
            "check",
            "ef(proc_decided(7))",
            "--class",
            "atomic",
            "--n",
            "3",
            "--f",
            "1",
        ],
        "proc_decided(7): process index must be in 0..3",
    );
}

#[test]
fn check_refuses_an_out_of_range_failed_index() {
    // Used to print FAILS: no state marks a non-existent process failed.
    assert_refused(
        &[
            "check",
            "ef(failed(40))",
            "--class",
            "atomic",
            "--n",
            "3",
            "--f",
            "1",
        ],
        "failed(40): process index must be in 0..3",
    );
}
