//! `repro` — command-line driver for the reproduction.
//!
//! ```text
//! repro witness --class atomic|registers|oblivious|general|tas [--n N] [--f F]
//!               [--symmetry full|off]
//! repro certify --construction set-boost|fd-boost|tas [--n N] [--k K]
//! repro hook    [--n N] [--f F] [--dot FILE] [--symmetry full|off]
//! repro census  [--n N] [--f F] [--symmetry full|off]
//! repro check EXPR --class atomic|registers|oblivious|general [--n N] [--f F]
//!                  [--ones K] [--symmetry full|off]
//! repro audit   [--class atomic|registers|oblivious|general|mixed|tas|universal|flooding|
//!                        snapshot|fd-boost|set-boost|derived-fd|all|
//!                        broken-sym|broken-tasks|broken-impure]
//!               [--n N] [--f F] [--budget STATES]
//! ```
//!
//! `check` evaluates a `;`-separated list of temporal properties over
//! the explored failure-free graph `G(C)` of the chosen doomed
//! candidate, using the fused batch evaluator (one forward and at most
//! one backward CSR pass for the whole list). Atoms: `bivalent`,
//! `univalent`, `zero_valent`, `one_valent`, `undecided`, `decided`,
//! `decided(v)`, `proc_decided(i)`, `safe`, `no_failures`, `failed(i)`,
//! `quiescent`; operators: `now`, `always`/`ag`/`invariant`,
//! `exists_path`/`ef`, `eventually`/`af`, `fair_eventually`/`af_fair`,
//! `leads_to`, and `!`, `&`, `|` with C-like precedence. Exit code: 0
//! if every property holds, 1 if any fails, 2 if any is unknown.
//!
//! `audit` runs the component-local static contract analyzer
//! (`analysis::audit`, DESIGN §2.6) over a substrate — or, with
//! `--class all` (the default), over every in-tree substrate — and
//! prints one machine-readable report per substrate: a header line
//! with the independence census, one `rule=… status=…` line per rule,
//! and one `VIOLATION rule=… component=… counterexample="…"` line per
//! recorded counterexample. No state-space exploration happens; the
//! analyzer only enumerates budget-capped *component-local* closures
//! (`--budget` caps states per component). The `broken-*` classes are
//! the deliberately faulty fixtures from `protocols::broken`, kept
//! in-tree so the analyzer's teeth stay testable. Exit code: 0 every
//! audited substrate clean, 1 any violation, 2 violation-free but
//! some rule unauditable.
//!
//! Each subcommand takes only the operands and flags listed above:
//! `check` exactly one EXPR, every other subcommand no operand, and
//! each flag at most once and with a value. `certify` narrows that per
//! construction: set-boost reads `--n` and `--k`, fd-boost only `--n`,
//! tas neither. Anything else (a stray or missing operand, a misspelt
//! or foreign flag, a flag the chosen construction does not read, a
//! repeat, a trailing flag without its value) exits 2 with one
//! `error:` line naming the operand or flag, before anything is built
//! or printed.
//!
//! Numeric flags are checked against what the library accepts before
//! anything is built: `--n` lies in `1..=32` (the packed state layout's
//! limit), raised to 2 where a construction needs two processes, and is
//! exactly 2 for `witness --class tas`; `witness` needs `f + 1 < n`,
//! because its refutation fails `f + 1` processes and needs a survivor;
//! `check` needs `--ones` at most `--n`; `certify --construction
//! set-boost` needs `1 ≤ k < n` with `k | n`. A bad value exits 2 with
//! one `error:` line, as does a `check` atom `proc_decided(i)` or
//! `failed(i)` whose process index lies outside `0..n`. An unknown
//! `--class` or `--construction` exits 2 with the usage dump, before
//! anything reaches stdout.
//!
//! `--symmetry full` explores the process-permutation quotient of
//! `G(C)` (orbit canonicalization) — same theorem verdicts and census
//! classifications with far fewer interned states on id-symmetric
//! candidates; falls back to the full graph on candidates that are
//! not. Defaults to off; no environment variable changes that. Under
//! an active quotient, `census` additionally prints the orbit-size
//! histogram — how many concrete states each interned representative
//! stands for. `check` then refuses the process-indexed atoms
//! `proc_decided(i)` and `failed(i)` with one `error:` line and exit
//! 2: an orbit representative does not record which process is which.
//!
//! `hook` and `census` report a candidate without a bivalent
//! initialization on stdout and exit 1.
//!
//! Examples:
//!
//! ```sh
//! cargo run --bin repro -- witness --class oblivious --n 3 --f 1
//! cargo run --bin repro -- hook --n 2 --f 0 --dot /tmp/hook.dot
//! cargo run --bin repro -- certify --construction fd-boost --n 3
//! cargo run --bin repro -- check 'always(safe); ef(decided(0)) & ef(decided(1))' \
//!     --class atomic --n 2 --f 0
//! ```

use analysis::audit::{audit_automaton, audit_system, AuditConfig, AuditReport};
use analysis::graph::{census, to_dot};
use analysis::hook::{find_hook, HookOutcome};
use analysis::init::{find_bivalent_init_sym, InitOutcome};
use analysis::prop::{evaluate_batch, parse_props, system_vocab, SystemGraph, Verdict, Witness};
use analysis::resilience::{all_assignments, all_binary_assignments, certify, CertifyConfig};
use analysis::valence::ValenceMap;
use analysis::witness::{find_witness, Bounds, WitnessError};
use ioa::canon::SymmetryMode;
use protocols::set_boost::SetBoostParams;
use resilience_boosting::prelude::*;
use std::process::ExitCode;
use system::consensus::InputAssignment;
use system::packed::MAX_PROCESSES;
use system::process::ProcessAutomaton;
use system::sched::initialize;

/// A subcommand's entry point.
type Command = fn(&Args) -> ExitCode;

/// One subcommand: its name, the operands it takes (by their usage
/// names), the flags it reads (and so accepts), and its entry point.
struct Subcommand {
    name: &'static str,
    operands: &'static [&'static str],
    flags: &'static [&'static str],
    run: Command,
}

/// Every subcommand. Only `check` takes an operand, its EXPR.
const COMMANDS: [Subcommand; 6] = [
    Subcommand {
        name: "witness",
        operands: &[],
        flags: &["class", "n", "f", "symmetry"],
        run: witness_cmd,
    },
    Subcommand {
        name: "certify",
        operands: &[],
        flags: &["construction", "n", "k"],
        run: certify_cmd,
    },
    Subcommand {
        name: "hook",
        operands: &[],
        flags: &["n", "f", "dot", "symmetry"],
        run: hook_cmd,
    },
    Subcommand {
        name: "census",
        operands: &[],
        flags: &["n", "f", "symmetry"],
        run: census_cmd,
    },
    Subcommand {
        name: "check",
        operands: &["EXPR"],
        flags: &["class", "n", "f", "ones", "symmetry"],
        run: check_cmd,
    },
    Subcommand {
        name: "audit",
        operands: &[],
        flags: &["class", "n", "f", "budget"],
        run: audit_cmd,
    },
];

/// Minimal argument parser: positional operands and `--key value` flag
/// pairs in any order, after the subcommand.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Splits `rest` into operands and flags, refusing an operand
    /// beyond those `cmd` takes, a missing operand, a flag `cmd` does
    /// not read, a repeated flag, or a flag with no value: one `error:`
    /// line, exit 2.
    fn parse(cmd: &Subcommand, mut rest: impl Iterator<Item = String>) -> Args {
        let mut positional = Vec::new();
        let mut flags: Vec<(String, String)> = Vec::new();
        while let Some(arg) = rest.next() {
            let Some(key) = arg.strip_prefix("--") else {
                if positional.len() == cmd.operands.len() {
                    let takes = match cmd.operands {
                        [] => "no operand".to_string(),
                        ops => format!("only {}", ops.join(" ")),
                    };
                    fail(&format!(
                        "unexpected operand {arg:?} for {} (it takes {takes})",
                        cmd.name
                    ));
                }
                positional.push(arg);
                continue;
            };
            if !cmd.flags.contains(&key) {
                let takes: Vec<String> = cmd.flags.iter().map(|k| format!("--{k}")).collect();
                fail(&format!(
                    "unknown flag --{key} for {} (it takes {})",
                    cmd.name,
                    takes.join(", ")
                ));
            }
            if flags.iter().any(|(k, _)| k == key) {
                fail(&format!("--{key} given more than once"));
            }
            let Some(value) = rest.next() else {
                fail(&format!("--{key} wants a value"));
            };
            flags.push((key.to_string(), value));
        }
        if let Some(missing) = cmd.operands.get(positional.len()) {
            fail(&format!("{} wants its {missing} operand", cmd.name));
        }
        Args { positional, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn usize_or(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--{key} wants a number")))
            })
            .unwrap_or(default)
    }

    /// `--n`, checked against the smallest process count `min` the
    /// chosen construction accepts and the packed layout's
    /// [`MAX_PROCESSES`].
    fn n(&self, default: usize, min: usize) -> usize {
        let n = self.usize_or("n", default);
        if !(min..=MAX_PROCESSES).contains(&n) {
            fail(&format!("--n must be in {min}..={MAX_PROCESSES}, got {n}"));
        }
        n
    }

    /// Refuses every flag but `--construction` and `reads`, the flags
    /// `construction` reads: one `error:` line, exit 2.
    fn refuse_unread(&self, construction: &str, reads: &[&str]) {
        let unread = self
            .flags
            .iter()
            .find(|(k, _)| k != "construction" && !reads.contains(&k.as_str()));
        if let Some((key, _)) = unread {
            let takes = match reads {
                [] => "no other flag".to_string(),
                keys => keys
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            };
            fail(&format!(
                "--{key} does not apply to --construction {construction} (it takes {takes})"
            ));
        }
    }

    /// The symmetry mode (`--symmetry full|off`, default off).
    fn symmetry(&self) -> SymmetryMode {
        match self.get("symmetry") {
            None | Some("off") => SymmetryMode::Off,
            Some("full") => SymmetryMode::Full,
            Some(other) => die(&format!("--symmetry wants full|off, got {other:?}")),
        }
    }
}

/// A clean diagnostic exit for *user-input* errors where the usage
/// dump would drown the message (bad property expressions, unknown
/// atoms): one line on stderr, exit code 2 ("unknown"), no usage.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage:\n  \
         repro witness --class atomic|registers|oblivious|general|tas [--n N] [--f F] [--symmetry full|off]\n  \
         repro certify --construction set-boost|fd-boost|tas [--n N] [--k K]\n  \
         repro hook [--n N] [--f F] [--dot FILE] [--symmetry full|off]\n  \
         repro census [--n N] [--f F] [--symmetry full|off]\n  \
         repro check EXPR --class atomic|registers|oblivious|general [--n N] [--f F] [--ones K] [--symmetry full|off]\n  \
         repro audit [--class atomic|registers|oblivious|general|mixed|tas|universal|flooding|snapshot|fd-boost|set-boost|derived-fd|all|broken-sym|broken-tasks|broken-impure] [--n N] [--f F] [--budget STATES]\n\
         \n\
         --n is in 1..=32; witness needs f + 1 < n; set-boost needs 1 <= k < n with k | n\n\
         check takes exactly one EXPR operand (quote it); the other subcommands take none\n\
         \n\
         audit statically checks substrate contracts (task partition, determinism,\n  \
         symmetry honesty, effect purity) component-locally — no exploration.\n  \
         exit codes: 0 clean, 1 violation, 2 unauditable\n\
         \n\
         check evaluates ';'-separated properties over the explored graph, e.g.\n  \
         repro check 'always(safe); ef(decided(0)) & ef(decided(1))' --class atomic --n 2 --f 0\n\
         atoms: bivalent univalent zero_valent one_valent undecided decided decided(v)\n        \
         proc_decided(i) safe no_failures failed(i) quiescent\n       \
         (proc_decided(i) and failed(i) are refused on a --symmetry full quotient)\n\
         operators: now always|ag|invariant exists_path|ef eventually|af\n           \
         fair_eventually|af_fair leads_to  and ! & | with C-like precedence\n\
         exit codes: 0 all hold, 1 some property fails, 2 some verdict unknown"
    );
    std::process::exit(2)
}

fn witness_cmd(args: &Args) -> ExitCode {
    let n = args.n(2, 1);
    let f = args.usize_or("f", 0);
    if f + 1 >= n {
        fail(&format!(
            "witness needs f + 1 < n (the refutation fails f + 1 processes and \
             needs a survivor), got n={n}, f={f}"
        ));
    }
    let class = args.get("class").unwrap_or("atomic");
    let bounds = Bounds::default().with_symmetry(args.symmetry());
    // The class is checked before the candidate line reaches stdout.
    let find: fn(usize, usize, Bounds) -> Result<String, WitnessError> = match class {
        "atomic" => |n, f, bounds| {
            let sys = protocols::doomed::doomed_atomic(n, f);
            find_witness(&sys, f, bounds).map(|w| w.headline())
        },
        "registers" => |n, f, bounds| {
            let sys = protocols::doomed::doomed_atomic_with_registers(n, f);
            find_witness(&sys, f, bounds).map(|w| w.headline())
        },
        "oblivious" => |n, f, bounds| {
            let sys = protocols::doomed::doomed_oblivious(n, f);
            find_witness(&sys, f, bounds).map(|w| w.headline())
        },
        "general" => |n, f, bounds| {
            let sys = protocols::doomed::doomed_general(n, f);
            find_witness(&sys, f, bounds).map(|w| w.headline())
        },
        "tas" if n != 2 => fail(&format!("--n must be 2 for --class tas, got {n}")),
        "tas" => |_, f, bounds| {
            let sys = protocols::tas_consensus::build(f);
            find_witness(&sys, f, bounds).map(|w| w.headline())
        },
        other => die(&format!("unknown class {other:?}")),
    };
    println!(
        "candidate: class={class}, n={n}, f={f} — claiming ({})-resilient consensus",
        f + 1
    );
    match find(n, f, bounds) {
        Ok(h) => {
            println!("witness: {h}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn certify_cmd(args: &Args) -> ExitCode {
    let construction = args.get("construction").unwrap_or("set-boost");
    let report = match construction {
        "set-boost" => {
            args.refuse_unread(construction, &["n", "k"]);
            let n = args.n(4, 1);
            let k = args.usize_or("k", 2);
            let params = SetBoostParams { n, k, k_prime: 1 };
            if let Err(e) = params.check() {
                fail(&format!("set-boost with n={n}, k={k} (k'=1): {e}"));
            }
            let sys = protocols::set_boost::build(params);
            let domain: Vec<Val> = (0..n as i64).map(Val::Int).collect();
            let mut inputs = all_assignments(n, &domain);
            if inputs.len() > 512 {
                inputs.truncate(512);
                println!("(input sweep truncated to 512 assignments)");
            }
            let mut cfg = CertifyConfig::new(k, n - 1, inputs);
            cfg.max_steps = 100_000;
            println!("certifying {k}-set consensus at resilience {} …", n - 1);
            certify(&sys, &cfg)
        }
        "fd-boost" => {
            args.refuse_unread(construction, &["n"]);
            let n = args.n(3, 2);
            let sys = protocols::fd_boost::build(n);
            let mut cfg = CertifyConfig::new(1, n - 1, all_binary_assignments(n));
            cfg.max_steps = 800_000;
            println!("certifying consensus at resilience {} …", n - 1);
            certify(&sys, &cfg)
        }
        "tas" => {
            args.refuse_unread(construction, &[]);
            let sys = protocols::tas_consensus::build(1);
            let mut cfg = CertifyConfig::new(1, 1, all_binary_assignments(2));
            cfg.max_steps = 100_000;
            println!("certifying 2-process consensus from wait-free test&set …");
            certify(&sys, &cfg)
        }
        other => die(&format!("unknown construction {other:?}")),
    };
    println!(
        "{} runs, {} violations → {}",
        report.runs,
        report.violations.len(),
        if report.certified() {
            "CERTIFIED"
        } else {
            "FAILED"
        }
    );
    if let Some(v) = report.violations.first() {
        println!("first violation: {v:?}");
    }
    if report.certified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Lemma 4's walk over `sys` for `hook` and `census`: the bivalent
/// initialization and its map. Without one, the walk's outcome goes to
/// stdout and the command exits 1; a walk that outgrows its state
/// budget exits 2 with one `error:` line.
fn bivalent_init<P: ProcessAutomaton>(
    sys: &system::build::CompleteSystem<P>,
    symmetry: SymmetryMode,
) -> Result<(InputAssignment, ValenceMap<P>), ExitCode> {
    match find_bivalent_init_sym(sys, 2_000_000, symmetry) {
        Ok(InitOutcome::Bivalent { assignment, map }) => Ok((assignment, map)),
        Ok(other) => {
            println!("no bivalent initialization: {other:?}");
            Err(ExitCode::FAILURE)
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn hook_cmd(args: &Args) -> ExitCode {
    let n = args.n(2, 1);
    let f = args.usize_or("f", 0);
    let sys = protocols::doomed::doomed_atomic(n, f);
    let (assignment, map) = match bivalent_init(&sys, args.symmetry()) {
        Ok(found) => found,
        Err(code) => return code,
    };
    println!(
        "bivalent initialization: {assignment} ({} states)",
        map.state_count()
    );
    match find_hook(&sys, &map, 20_000) {
        HookOutcome::Hook(hook) => {
            println!(
                "hook: e={} e'={} v={:?} (α after {} tasks)",
                hook.e,
                hook.e_prime,
                hook.v,
                hook.alpha_tasks.len()
            );
            if let Some(path) = args.get("dot") {
                let dot = to_dot(&map, &hook.alpha, 3, Some(&hook));
                if let Err(e) = std::fs::write(path, dot) {
                    fail(&format!("cannot write {path}: {e}"));
                }
                println!("wrote G(C) neighbourhood to {path} (render with: dot -Tsvg {path})");
            }
            ExitCode::SUCCESS
        }
        other => {
            println!("no hook: {other:?}");
            ExitCode::FAILURE
        }
    }
}

fn census_cmd(args: &Args) -> ExitCode {
    let n = args.n(3, 1);
    let f = args.usize_or("f", 1);
    let sys = protocols::doomed::doomed_atomic(n, f);
    let (assignment, map) = match bivalent_init(&sys, args.symmetry()) {
        Ok(found) => found,
        Err(code) => return code,
    };
    println!("valence landscape of G(C) from {assignment}:");
    println!("  {}", census(&map));
    if let Some(group) = map.sym() {
        let mut hist: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        let mut mass: u64 = 0;
        for id in map.ids() {
            let k = system::packed::orbit_size(group, map.resolve(id));
            mass += k;
            *hist.entry(k).or_insert(0) += 1;
        }
        println!(
            "orbit sizes under S_{}: {} representative(s) covering {mass} \
             orbit state(s) ({:.2}× compression)",
            group.n,
            map.state_count(),
            mass as f64 / map.state_count() as f64,
        );
        for (k, c) in &hist {
            println!("  |orbit| = {k:>4}: {c} representative(s)");
        }
    }
    ExitCode::SUCCESS
}

/// Evaluates the parsed property batch over one candidate's `G(C)` and
/// prints verdicts plus replayable witnesses.
fn check_on<P: ProcessAutomaton>(
    sys: &system::build::CompleteSystem<P>,
    ones: usize,
    symmetry: SymmetryMode,
    expr: &str,
) -> ExitCode {
    let n = sys.process_count();
    let assignment = InputAssignment::monotone(n, ones);
    let root = initialize(sys, &assignment);
    let map = ValenceMap::build_with_symmetry(sys, root, 2_000_000, 1, symmetry)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let graph = SystemGraph::new(sys, &map);
    let system_atoms = system_vocab::<P>(assignment.clone());
    // A process index outside 0..n names no process: refuse it rather
    // than let the atom answer false everywhere. On a quotient map an
    // orbit representative does not record which process is which, so
    // a process-indexed atom would be answered for some other process.
    let vocab = |name: &str, args: &[i64]| {
        if let ("proc_decided" | "failed", [i]) = (name, args) {
            if usize::try_from(*i).map_or(true, |i| i >= n) {
                fail(&format!(
                    "{name}({i}): process index must be in 0..{n} for --n {n}"
                ));
            }
            if map.symmetric() {
                fail(&format!(
                    "{name}({i}) names a process, which the symmetry quotient \
                     does not track; use --symmetry off"
                ));
            }
        }
        system_atoms(name, args)
    };
    // Bad expressions and unknown atoms are user input, not pipeline
    // failures: report the parse error alone and exit 2 (unknown).
    let props = parse_props(expr, &vocab).unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "G(C) from {assignment}: {} states, {} properties",
        map.state_count(),
        props.len()
    );
    let report = evaluate_batch(&graph, &props);
    println!(
        "passes: {} forward, {} backward (fused)",
        report.passes.forward, report.passes.backward
    );
    let mut worst = Verdict::Holds;
    for (p, ev) in props.iter().zip(&report.results) {
        let tag = match ev.verdict {
            Verdict::Holds => "HOLDS  ",
            Verdict::Fails => "FAILS  ",
            Verdict::Unknown => "UNKNOWN",
        };
        println!("{tag} {p}");
        if let Some(reason) = &ev.reason {
            println!("        ({reason})");
        }
        match &ev.witness {
            Some(Witness::Path(path)) => {
                // Under a symmetry quotient the raw path is not an
                // execution; lift_path conjugates each edge task back
                // to a concrete, replayable sequence (identity on full
                // maps).
                let (_, tasks) = graph.lift_path(path);
                println!(
                    "        path: {} states from the root, tasks: {}",
                    path.len(),
                    tasks
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(" · ")
                );
            }
            Some(Witness::Lasso { path, cycle_start }) => {
                println!(
                    "        lasso: {} states, cycle re-enters at step {}",
                    path.len(),
                    cycle_start
                );
            }
            None => {}
        }
        worst = worst.and(ev.verdict);
    }
    match worst {
        Verdict::Holds => ExitCode::SUCCESS,
        Verdict::Fails => ExitCode::FAILURE,
        Verdict::Unknown => ExitCode::from(2),
    }
}

/// Every in-tree substrate the default `audit --class all` sweep
/// covers, with its smallest interesting parameterization.
const AUDIT_ALL: [&str; 12] = [
    "atomic",
    "registers",
    "oblivious",
    "general",
    "mixed",
    "tas",
    "universal",
    "flooding",
    "snapshot",
    "fd-boost",
    "set-boost",
    "derived-fd",
];

/// Builds and audits one substrate class. `n`/`f` override the class's
/// default parameterization when given (classes with structural
/// constraints — `tas` is 2-process, `set-boost` wants `n = 4` — keep
/// their own defaults).
fn audit_one(class: &str, n: Option<usize>, f: Option<usize>, cfg: &AuditConfig) -> AuditReport {
    use std::sync::Arc;
    let n_or = |d: usize| n.unwrap_or(d);
    let f_or = |d: usize| f.unwrap_or(d);
    match class {
        "atomic" => audit_system(
            &protocols::doomed::doomed_atomic(n_or(2), f_or(0)),
            "doomed-atomic",
            cfg,
        ),
        "registers" => audit_system(
            &protocols::doomed::doomed_atomic_with_registers(n_or(2), f_or(0)),
            "doomed-registers",
            cfg,
        ),
        "oblivious" => audit_system(
            &protocols::doomed::doomed_oblivious(n_or(2), f_or(0)),
            "doomed-tob",
            cfg,
        ),
        "general" => audit_system(
            &protocols::doomed::doomed_general(n_or(2), f_or(0)),
            "doomed-fd",
            cfg,
        ),
        "mixed" => audit_system(
            &protocols::doomed::doomed_mixed(n_or(2), f_or(0)),
            "doomed-mixed",
            cfg,
        ),
        "tas" => audit_system(
            &protocols::tas_consensus::build(f_or(1)),
            "test-and-set",
            cfg,
        ),
        "universal" => audit_system(
            &protocols::universal::build(Arc::new(spec::seq::TestAndSet), n_or(2)),
            "universal",
            cfg,
        ),
        "flooding" => audit_system(
            &protocols::message_passing::build_flood_all(n_or(2), f_or(1)),
            "flooding",
            cfg,
        ),
        "snapshot" => audit_system(&protocols::snapshot::build(n_or(2), 2), "snapshot", cfg),
        "fd-boost" => audit_system(&protocols::fd_boost::build(n_or(2)), "fd-boost", cfg),
        "set-boost" => audit_system(
            &protocols::set_boost::build(SetBoostParams {
                n: n_or(4),
                k: 2,
                k_prime: 1,
            }),
            "set-boost",
            cfg,
        ),
        "derived-fd" => audit_system(&protocols::derived_fd::build(n_or(2)), "derived-fd", cfg),
        "broken-sym" => audit_system(
            &protocols::broken::lying_symmetry(n_or(2), f_or(0)),
            "broken-sym",
            cfg,
        ),
        "broken-impure" => audit_system(
            &protocols::broken::impure_direct(n_or(2), f_or(0)),
            "broken-impure",
            cfg,
        ),
        "broken-tasks" => {
            audit_automaton(&protocols::broken::overlapping_tasks(), "broken-tasks", cfg)
        }
        other => die(&format!("unknown audit class {other:?}")),
    }
}

fn audit_cmd(args: &Args) -> ExitCode {
    let class = args.get("class").unwrap_or("all");
    // The pairwise and flooding constructions need two processes.
    let min_n = match class {
        "general" | "flooding" | "fd-boost" | "derived-fd" | "all" => 2,
        _ => 1,
    };
    let n = args.get("n").map(|_| args.n(0, min_n));
    let f = args.get("f").map(|_| args.usize_or("f", 0));
    let cfg = AuditConfig {
        max_component_states: args.usize_or("budget", AuditConfig::default().max_component_states),
        ..AuditConfig::default()
    };
    let reports: Vec<AuditReport> = if class == "all" {
        AUDIT_ALL.iter().map(|c| audit_one(c, n, f, &cfg)).collect()
    } else {
        vec![audit_one(class, n, f, &cfg)]
    };
    let mut worst = 0;
    for report in &reports {
        print!("{report}");
        worst = worst.max(report.exit_code());
    }
    let (substrates, violations) = (
        reports.len(),
        reports
            .iter()
            .map(|r| r.violations().count())
            .sum::<usize>(),
    );
    println!("audited {substrates} substrate(s): {violations} violation(s) → exit {worst}");
    match worst {
        0 => ExitCode::SUCCESS,
        1 => ExitCode::FAILURE,
        _ => ExitCode::from(2),
    }
}

fn check_cmd(args: &Args) -> ExitCode {
    // `Args::parse` refused any other operand count.
    let expr = &args.positional[0];
    let class = args.get("class").unwrap_or("atomic");
    let n = args.n(2, if class == "general" { 2 } else { 1 });
    let f = args.usize_or("f", 0);
    let ones = args.usize_or("ones", 1);
    if ones > n {
        fail(&format!("--ones must be at most --n ({n}), got {ones}"));
    }
    let symmetry = args.symmetry();
    match class {
        "atomic" => check_on(
            &protocols::doomed::doomed_atomic(n, f),
            ones,
            symmetry,
            expr,
        ),
        "registers" => check_on(
            &protocols::doomed::doomed_atomic_with_registers(n, f),
            ones,
            symmetry,
            expr,
        ),
        "oblivious" => check_on(
            &protocols::doomed::doomed_oblivious(n, f),
            ones,
            symmetry,
            expr,
        ),
        "general" => check_on(
            &protocols::doomed::doomed_general(n, f),
            ones,
            symmetry,
            expr,
        ),
        other => die(&format!("unknown class {other:?}")),
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        die("missing subcommand");
    };
    let Some(sub) = COMMANDS.iter().find(|sub| sub.name == cmd) else {
        die(&format!("unknown command {cmd:?}"));
    };
    (sub.run)(&Args::parse(sub, argv))
}
