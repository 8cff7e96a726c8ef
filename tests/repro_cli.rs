//! Regression tests for the `repro` binary's argument/parse layer.
//!
//! Drives the compiled binary (`CARGO_BIN_EXE_repro`) end to end:
//! property parse errors and unknown atoms must produce a clean
//! one-line `error: …` diagnostic on stderr and exit code 2
//! ("unknown") — not the full usage dump, and not a panic — while
//! well-formed invocations keep their documented exit codes. The
//! `--symmetry` flag must accept `full`/`off` and produce the same
//! verdicts either way on an id-symmetric candidate, and it alone picks
//! the mode: a `SYMMETRY` environment variable changes nothing. On a
//! quotient map `check` refuses the process-indexed atoms. Out-of-range
//! numeric flags and process indices must be refused with one `error:`
//! line and exit 2 before the library's own assertions can panic, and
//! so must a flag the subcommand (or `certify`'s chosen construction)
//! does not read, a repeated flag, a flag without its value, and a
//! stray or missing operand. No property text panics or aborts the
//! parser: multi-byte whitespace is whitespace, a repeated
//! `eventually` target is one backward lane, and nesting past the cap
//! or more distinct `eventually` targets than lanes is refused the same
//! way. No refusal prints anything to stdout.

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

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
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
fn values_is_no_longer_a_symmetry_mode() {
    let out = repro(&["witness", "--symmetry", "values"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("--symmetry wants full|off"), "got: {err:?}");
    assert!(err.contains("usage:"), "got: {err:?}");
}

#[test]
fn census_ignores_the_symmetry_environment_variable() {
    // An exported SYMMETRY=full used to switch census to the 83-state
    // quotient; only --symmetry picks the mode now.
    let args = ["census", "--n", "3", "--f", "1"];
    let unset = repro(&args);
    let set = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("SYMMETRY", "full")
        .output()
        .expect("repro binary runs");
    assert_eq!(unset.status.code(), Some(0), "{}", stderr_of(&unset));
    assert!(
        stdout_of(&unset).contains("188 states"),
        "{}",
        stdout_of(&unset)
    );
    assert_eq!(set.status.code(), unset.status.code());
    assert_eq!(stdout_of(&set), stdout_of(&unset));
    assert_eq!(stderr_of(&set), stderr_of(&unset));
}

/// One `error:` line on stderr, nothing on stdout, exit 2, no panic.
fn assert_refused(args: &[&str], needle: &str) {
    let out = repro(args);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err:?}");
    assert_eq!(err.lines().count(), 1, "{args:?}: {err:?}");
    assert!(err.starts_with("error: "), "{args:?}: {err:?}");
    assert!(err.contains(needle), "{args:?}: {err:?}");
    assert!(out.stdout.is_empty(), "{args:?}: {:?}", out.stdout);
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
fn witness_tas_refuses_any_process_count_but_two() {
    // Used to print the candidate line, then die with the usage dump.
    assert_refused(
        &["witness", "--class", "tas", "--n", "3", "--f", "1"],
        "--n must be 2 for --class tas, got 3",
    );
}

#[test]
fn unknown_witness_class_keeps_usage_and_prints_nothing() {
    // Used to print the candidate line before refusing the class.
    let out = repro(&["witness", "--class", "nope", "--n", "3", "--f", "1"]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{err:?}");
    assert!(err.starts_with("error: unknown class \"nope\""), "{err:?}");
    assert!(err.contains("usage:"), "{err:?}");
    assert!(out.stdout.is_empty(), "{:?}", out.stdout);
}

#[test]
fn check_refuses_more_ones_than_processes() {
    // Used to print the usage dump.
    assert_refused(
        &["check", "always(safe)", "--ones", "5", "--n", "2"],
        "--ones must be at most --n (2), got 5",
    );
}

#[test]
fn certify_refuses_flags_its_construction_does_not_read() {
    // Both used to certify: tas whatever --n said, fd-boost ignoring --k.
    assert_refused(
        &["certify", "--construction", "tas", "--n", "5", "--k", "7"],
        "--n does not apply to --construction tas (it takes no other flag)",
    );
    assert_refused(
        &[
            "certify",
            "--construction",
            "fd-boost",
            "--n",
            "3",
            "--k",
            "2",
        ],
        "--k does not apply to --construction fd-boost (it takes --n)",
    );
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

#[test]
fn check_refuses_process_indexed_atoms_on_a_quotient() {
    // `ef(proc_decided(2))` used to HOLD on the quotient with a witness
    // in which P2 never moves: a representative does not record which
    // process is which.
    for atom in ["ef(proc_decided(2))", "ef(failed(0))"] {
        assert_refused(
            &[
                "check",
                atom,
                "--class",
                "atomic",
                "--n",
                "3",
                "--f",
                "1",
                "--symmetry",
                "full",
            ],
            "symmetry quotient",
        );
    }
    // The concrete map answers for P2 itself.
    let out = repro(&[
        "check",
        "ef(proc_decided(2))",
        "--class",
        "atomic",
        "--n",
        "3",
        "--f",
        "1",
        "--symmetry",
        "off",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(text.contains("task(P2)"), "{text}");
    // Where the quotient does not apply, `full` explores concretely and
    // the atoms stay available.
    let out = repro(&[
        "check",
        "ef(proc_decided(2)); ef(failed(0))",
        "--class",
        "oblivious",
        "--n",
        "3",
        "--f",
        "1",
        "--symmetry",
        "full",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(stderr_of(&out).is_empty(), "{}", stderr_of(&out));
}

#[test]
fn hook_without_a_bivalent_initialization_reports_like_census() {
    // Used to print the outcome as a usage error (usage dump, exit 2).
    let hook = repro(&["hook", "--n", "1", "--f", "0"]);
    let census = repro(&["census", "--n", "1", "--f", "0"]);
    for out in [&hook, &census] {
        assert_eq!(out.status.code(), Some(1), "{}", stderr_of(out));
        assert!(out.stderr.is_empty(), "{}", stderr_of(out));
    }
    let text = String::from_utf8_lossy(&hook.stdout);
    assert!(
        text.starts_with("no bivalent initialization: AdjacentContradiction"),
        "{text}"
    );
    assert_eq!(hook.stdout, census.stdout);
}

#[test]
fn unwritable_dot_file_is_one_error_line() {
    // Used to print the usage dump after the error line.
    let out = repro(&[
        "hook",
        "--n",
        "2",
        "--f",
        "0",
        "--dot",
        "/nonexistent/x.dot",
    ]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(
        err.starts_with("error: cannot write /nonexistent/x.dot: "),
        "{err}"
    );
    // The hook was found and printed before the write failed.
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("hook: e="),
        "{:?}",
        out.stdout
    );
}

#[test]
fn misspelt_flag_is_refused() {
    // Used to explore without the quotient and exit 0.
    assert_refused(
        &[
            "witness",
            "--class",
            "atomic",
            "--n",
            "3",
            "--f",
            "1",
            "--symetry",
            "full",
        ],
        "unknown flag --symetry for witness",
    );
}

#[test]
fn retired_threads_and_frontier_flags_are_refused() {
    assert_refused(
        &["witness", "--n", "3", "--f", "1", "--threads", "2"],
        "unknown flag --threads",
    );
    assert_refused(
        &["check", "always(safe)", "--frontier", "ws"],
        "unknown flag --frontier",
    );
}

#[test]
fn flag_of_another_subcommand_is_refused() {
    // `--dot` belongs to `hook`; `witness` used to ignore it.
    assert_refused(
        &["witness", "--n", "3", "--f", "1", "--dot", "hook.dot"],
        "unknown flag --dot for witness",
    );
}

#[test]
fn trailing_flag_without_a_value_is_refused() {
    // Used to report "missing subcommand" with the usage dump.
    assert_refused(&["hook", "--n"], "--n wants a value");
}

#[test]
fn repeated_flag_is_refused() {
    // Used to take the first value and ignore the second.
    assert_refused(
        &["witness", "--n", "3", "--f", "1", "--n", "4"],
        "--n given more than once",
    );
}

#[test]
fn second_check_expression_is_refused() {
    // Used to evaluate only the first expression, print one HOLDS line
    // and exit 0, although the dropped property fails.
    assert_refused(
        &[
            "check",
            "always(safe)",
            "ef(failed(0))",
            "--n",
            "2",
            "--f",
            "0",
        ],
        "unexpected operand \"ef(failed(0))\" for check (it takes only EXPR)",
    );
}

#[test]
fn stray_operand_is_refused() {
    // Used to run as if the word were not there.
    assert_refused(
        &["witness", "stray", "--n", "3", "--f", "1"],
        "unexpected operand \"stray\" for witness (it takes no operand)",
    );
}

#[test]
fn missing_check_expression_is_refused() {
    // Used to print the usage dump.
    assert_refused(&["check", "--n", "2"], "check wants its EXPR operand");
}

#[test]
fn multi_byte_whitespace_separates_tokens() {
    // Used to panic (exit 101): the parser stepped over whitespace one
    // byte at a time and sliced inside the character.
    for expr in ["always(safe)\u{a0}", "\u{3000}always(safe)"] {
        let out = repro(&["check", expr, "--class", "atomic", "--n", "2", "--f", "0"]);
        assert_eq!(out.status.code(), Some(0), "{expr:?}: {}", stderr_of(&out));
        assert!(stdout_of(&out).contains("HOLDS   always(safe)"), "{expr:?}");
    }
}

#[test]
fn nesting_past_the_cap_is_refused() {
    // Used to overflow the stack and abort (exit 134).
    for expr in [
        format!("{}always(safe)", "!".repeat(100_000)),
        format!("{}always(safe)", "(".repeat(20_000)),
    ] {
        assert_refused(
            &["check", &expr, "--class", "atomic", "--n", "2", "--f", "0"],
            "operators nest deeper than 256 levels",
        );
    }
}

#[test]
fn a_repeated_eventually_target_is_one_lane() {
    // Used to panic (exit 101): each of the 65 occurrences took its
    // own backward lane, one more than a sweep has.
    let expr = "af(decided); ".repeat(65);
    let out = repro(&["check", &expr, "--class", "atomic", "--n", "2", "--f", "0"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert_eq!(stdout.matches("HOLDS   eventually(decided)").count(), 65);
    assert!(stdout.contains("passes: 1 forward, 1 backward (fused)"));
}

#[test]
fn more_distinct_eventually_targets_than_lanes_are_refused() {
    // Used to panic (exit 101) in the evaluator.
    let expr = (0..=64)
        .map(|v| format!("af(decided({v}))"))
        .collect::<Vec<_>>()
        .join("; ");
    assert_refused(
        &["check", &expr, "--class", "atomic", "--n", "2", "--f", "0"],
        "a batch supports at most 64 distinct eventually/leads-to targets",
    );
}
