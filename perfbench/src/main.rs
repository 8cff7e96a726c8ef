//! The repository benchmark: time-to-verdict of the paper's proof
//! pipelines as a user runs them.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload as a closed loop with a single caller:
//! the next op starts when the previous verdict is back. Exploration
//! runs on one thread with an explicit symmetry mode, and the
//! environment knobs the library reads behind the caller's back are
//! cleared first. Every op's verdict is checked against the workload's
//! pinned expectation.
//!
//! With `--trace 0` the ops are timed whole and the run reports the
//! end-to-end metrics. With `--trace 1` the run first times untraced
//! ops for half of `--seconds`, then re-drives ops stage by stage with
//! one span per public library call for the other half, and reports the
//! per-layer metrics. The spans are written to `perfbench/out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The process exits non-zero when any op fails or reaches a wrong
//! verdict.

mod calib;
mod check;
mod probe;
mod trace;
mod witness;

use analysis::witness::Bounds;
use ioa::canon::{SymmetryMode, SYMMETRY_ENV};
use ioa::explore::{ExploreOptions, FrontierMode, FRONTIER_ENV, THREADS_ENV};
use probe::{Counters, Orbits};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;
use witness::{Expect, WitnessBench};

/// Exploration worker threads, passed explicitly to every call.
const THREADS: usize = 1;
/// State budget of every exploration.
const MAX_STATES: usize = 2_000_000;
/// Set-ups run in batches, one batch before each untimed op: at least
/// one set-up, more while the batch lasts under `SETUP_BATCH`, at most
/// `SETUP_BATCH_REPS`. Spreading them over the run samples the same
/// host conditions as the ops; `setup_s` is the median of them all.
const SETUP_BATCH: Duration = Duration::from_millis(2);
const SETUP_BATCH_REPS: usize = 1_000;

const WORKLOADS: [&str; 4] = [
    "thm2-atomic-quotient",
    "thm9-tob",
    "thm10-fd",
    "check-batch",
];

/// Calibrated times of one set-up: all of it, and the audit gate in it.
struct SetupTimes {
    total_s: f64,
    gate_s: f64,
}

/// What a traced op hands back besides its spans.
pub struct Traced {
    pub counters: Counters,
    /// Ops with equal keys ran on equal inputs.
    pub key: usize,
    /// The orbit census, taken on the first traced op only.
    pub orbits: Option<Orbits>,
}

/// One workload.
pub trait Bench {
    /// Ops per input round; runs measure whole rounds.
    fn round_len(&self) -> usize {
        1
    }
    /// Builds the candidate (and whatever else an op needs); returns
    /// the seconds its first audit gate took.
    fn setup(&mut self) -> f64;
    /// The requested and effective symmetry modes.
    fn symmetry(&self) -> String;
    /// Op `k`, untraced. `Err` is a failed op or a wrong verdict.
    fn op(&mut self, k: usize) -> Result<(), String>;
    /// Op `k`, re-driven stage by stage into `tr`.
    fn traced_op(&mut self, k: usize, tr: &mut Trace, first: bool) -> Result<Traced, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        kv.insert(key.to_string(), value);
    }
    let mut take = |key: &str| kv.remove(key).ok_or_else(|| format!("--{key} is required"));
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    if let Some(extra) = kv.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Clears the environment variables that change what the library
/// explores: `SYMMETRY` (read by `Bounds::default`),
/// `IOA_EXPLORE_FRONTIER` (read by `FrontierMode::Auto` inside every
/// valence build) and `IOA_EXPLORE_THREADS` (read when threads = 0).
/// Returns what was cleared.
fn pin_env() -> Vec<String> {
    let mut cleared = Vec::new();
    for var in [SYMMETRY_ENV, FRONTIER_ENV, THREADS_ENV] {
        if let Some(v) = std::env::var_os(var) {
            cleared.push(format!("{var}={}", v.to_string_lossy()));
            std::env::remove_var(var);
        }
    }
    cleared
}

fn witness_bounds(symmetry: SymmetryMode) -> Bounds {
    Bounds {
        max_states: MAX_STATES,
        max_hook_iterations: 20_000,
        max_run_steps: 500_000,
        threads: THREADS,
        symmetry,
    }
}

fn bench_for(workload: &str, seed: u64) -> Box<dyn Bench> {
    match workload {
        "thm2-atomic-quotient" => Box::new(WitnessBench::new(
            || protocols::doomed::doomed_atomic(7, 5),
            5,
            witness_bounds(SymmetryMode::Full),
            Expect {
                shape: "HookRefutation",
                refutation: Some("TerminationViolation"),
                failed: 6,
                differing: None,
            },
        )),
        "thm9-tob" => Box::new(WitnessBench::new(
            || protocols::doomed::doomed_oblivious(3, 1),
            1,
            witness_bounds(SymmetryMode::Full),
            Expect {
                shape: "HookRefutation",
                refutation: None,
                failed: 2,
                differing: None,
            },
        )),
        "thm10-fd" => Box::new(WitnessBench::new(
            || protocols::doomed::doomed_general(4, 2),
            2,
            witness_bounds(SymmetryMode::Full),
            Expect {
                shape: "AdjacentRefutation",
                refutation: None,
                failed: 3,
                differing: Some(0),
            },
        )),
        "check-batch" => Box::new(check::CheckBench::new(seed)),
        other => unreachable!("workload {other:?} was validated"),
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A run's outcome so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, k: usize, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(t) => Some(t),
            Err(e) => {
                self.failed += 1;
                eprintln!("op {k}: {e}");
                None
            }
        }
    }
}

/// Runs one batch of set-ups into `setups`, their times scaled by the
/// calibration factor `f`.
fn setup_batch(bench: &mut dyn Bench, setups: &mut Vec<SetupTimes>, f: f64) {
    let start = Instant::now();
    for _ in 0..SETUP_BATCH_REPS {
        let t = Instant::now();
        let gate_s = bench.setup();
        // The total includes dropping the previous set-up's candidate.
        setups.push(SetupTimes {
            total_s: t.elapsed().as_secs_f64() * f,
            gate_s: gate_s * f,
        });
        if start.elapsed() >= SETUP_BATCH {
            break;
        }
    }
}

/// Per-op times: the wall time and the calibration factor, the mean
/// of the factors measured just before and just after the op (a host
/// phase may change during a long op).
struct OpTimes {
    wall: Vec<f64>,
    factor: Vec<f64>,
}

impl OpTimes {
    fn calibrated(&self) -> Vec<f64> {
        self.wall
            .iter()
            .zip(&self.factor)
            .map(|(w, f)| w * f)
            .collect()
    }
}

/// Runs untraced ops in whole rounds until `budget` has elapsed, each
/// after a batch of set-ups and between two calibrations.
fn timed_ops(
    bench: &mut dyn Bench,
    budget: Duration,
    tally: &mut Tally,
    setups: &mut Vec<SetupTimes>,
) -> OpTimes {
    let mut times = OpTimes {
        wall: Vec::new(),
        factor: Vec::new(),
    };
    let start = Instant::now();
    let mut k = 0;
    let mut before = calib::factor();
    while times.wall.is_empty() || start.elapsed() < budget {
        for _ in 0..bench.round_len() {
            setup_batch(bench, setups, before);
            let t = Instant::now();
            let r = bench.op(k);
            times.wall.push(t.elapsed().as_secs_f64());
            let after = calib::factor();
            times.factor.push((before + after) / 2.0);
            before = after;
            tally.record(k, r);
            k += 1;
        }
    }
    times
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cleared = pin_env();
    match run(&args, &cleared) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its result; `Ok(false)` when some op
/// failed or reached a wrong verdict.
fn run(args: &Args, cleared: &[String]) -> Result<bool, String> {
    let mut bench = bench_for(&args.workload, args.seed);
    let mut setups: Vec<SetupTimes> = Vec::new();
    setup_batch(bench.as_mut(), &mut setups, calib::factor());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload {} seed {}: threads={} (effective {}) frontier={:?} symmetry {} nproc={nproc} \
         env cleared: [{}]",
        args.workload,
        args.seed,
        THREADS,
        ExploreOptions::with_budget(1)
            .with_threads(THREADS)
            .effective_threads(),
        FrontierMode::Auto.effective(),
        bench.symmetry(),
        cleared.join(", ")
    );

    let mut tally = Tally::default();
    // Warm-up, one round: caches fill, and the reference verdict is
    // recorded.
    for k in 0..bench.round_len() {
        let warm = bench.op(k);
        tally.record(k, warm);
    }
    // Peak memory of a fresh process through one op per input, as a
    // user running them once sees it. Later rounds only add allocator
    // noise: on check-batch one rare order of graph sizes lifts the
    // peak by 9%.
    let rss = peak_rss_mb()?;

    let seconds = Duration::from_secs(args.seconds);
    let metrics: Metrics = if args.trace {
        let untraced = timed_ops(bench.as_mut(), seconds / 2, &mut tally, &mut setups);
        let p50 = median(&untraced.calibrated());
        traced_run(bench.as_mut(), args, seconds / 2, &setups, p50, &mut tally)?
    } else {
        let times = timed_ops(bench.as_mut(), seconds, &mut tally, &mut setups);
        let setup_total: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
        report_end_to_end(&times, &setup_total, rss, &tally);
        vec![
            ("verdict_p50_s", median(&times.calibrated()), "s"),
            ("setup_s", median(&setup_total), "s"),
            ("peak_rss_mb", rss, "MiB"),
        ]
    };
    let correct = tally.failed == 0;
    println!("{}", result_json(correct, &tally, &metrics)?);
    Ok(correct)
}

/// The human-readable end-to-end lines: every metric with its unit and
/// sample count.
fn report_end_to_end(times: &OpTimes, setup_total: &[f64], rss: f64, tally: &Tally) {
    let calibrated = times.calibrated();
    let n = calibrated.len();
    let mut sorted = calibrated.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "verdict_p50_s = {:.6} s over {n} ops (calibrated; wall {:.6} s, host factor {:.3})",
        median(&calibrated),
        median(&times.wall),
        median(&times.factor)
    );
    if n >= 100 {
        let idx = (n * 9).div_ceil(10) - 1;
        println!("verdict_p90_s = {:.6} s over {n} ops", sorted[idx]);
    } else {
        println!("verdict_p90_s: not reported, {n} ops < 100");
    }
    if n >= 20 {
        // The highest percentile with ten samples beyond it.
        let idx = n - 11;
        println!(
            "verdict_p{}_s = {:.6} s over {n} ops (10 beyond)",
            (idx + 1) * 100 / n,
            sorted[idx]
        );
    }
    println!(
        "setup_s = {:.9} s median over {} set-ups",
        median(setup_total),
        setup_total.len()
    );
    println!("peak_rss_mb = {rss:.3} MiB, VmHWM after the warm-up round");
    println!(
        "error_rate = {}/{} ops (warm-up included)",
        tally.failed, tally.attempted
    );
}

/// The traced half of a `--trace 1` run.
fn traced_run(
    bench: &mut dyn Bench,
    args: &Args,
    budget: Duration,
    setups: &[SetupTimes],
    untraced_p50: f64,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let mut tr = Trace::new();
    let mut ops: Vec<(u32, Traced)> = Vec::new();
    // Calibration factor of each op, by op id: the mean of the factors
    // measured before and after it.
    let mut factors: Vec<f64> = Vec::new();
    let mut before = calib::factor();
    let start = Instant::now();
    let mut k = 0usize;
    while ops.is_empty() || start.elapsed() < budget {
        for _ in 0..bench.round_len() {
            let op = u32::try_from(k).expect("fewer than 2^32 ops");
            tr.set_op(op);
            let r = bench.traced_op(k, &mut tr, k == 0);
            let after = calib::factor();
            factors.push((before + after) / 2.0);
            before = after;
            if let Some(t) = tally.record(k, r) {
                ops.push((op, t));
            }
            k += 1;
        }
    }
    if ops.is_empty() {
        return Err("no traced op succeeded".into());
    }

    // Deterministic counters must repeat exactly across ops on equal
    // inputs.
    let mut by_key: BTreeMap<usize, &Counters> = BTreeMap::new();
    for (op, t) in &ops {
        let first = by_key.entry(t.key).or_insert(&t.counters);
        if **first != t.counters {
            tally.failed += 1;
            eprintln!(
                "op {op}: counters differ from an earlier op on the same input: {:?} vs {first:?}",
                t.counters
            );
        }
    }

    let med = |f: &dyn Fn(u32, &Counters) -> f64| -> f64 {
        median(
            &ops.iter()
                .map(|(op, t)| f(*op, &t.counters))
                .collect::<Vec<_>>(),
        )
    };
    // Span seconds of one op, calibrated like the untraced op times.
    let cal = |op: u32, name: &str| tr.op_secs(op, name) * factors[op as usize];
    let secs = |name: &'static str| med(&|op, _| cal(op, name));
    let c0 = &ops[0].1.counters;
    let orbits = ops[0].1.orbits.unwrap_or_default();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let staged = med(&|op, _| tr.staged_secs(op) * factors[op as usize]);

    let metrics: Metrics = vec![
        (
            "audit.gate_s",
            median(&setups.iter().map(|s| s.gate_s).collect::<Vec<_>>()),
            "s",
        ),
        ("valence.safety_build_s", secs("valence.safety_build"), "s"),
        ("explore.sweep_s", secs("explore.sweep"), "s"),
        ("valence.drop_s", secs("valence.drop"), "s"),
        (
            "valence.post_s",
            med(&|op, _| {
                cal(op, "valence.safety_build") + cal(op, "check.build") - cal(op, "explore.sweep")
            }),
            "s",
        ),
        ("explore.states", c0.explore_states as f64, "count"),
        ("explore.edges", c0.explore_edges as f64, "count"),
        (
            "explore.states_per_s",
            med(&|op, c| c.explore_states as f64 / cal(op, "explore.sweep")),
            "1/s",
        ),
        (
            "explore.peak_frontier",
            c0.explore_peak_frontier as f64,
            "count",
        ),
        ("valence.peak_states", c0.peak_states as f64, "count"),
        ("valence.arena_bytes", c0.arena_bytes as f64, "bytes"),
        ("effect_cache.lookups", c0.cache_lookups as f64, "count"),
        (
            "effect_cache.hit_rate",
            ratio(c0.cache_hits, c0.cache_lookups),
            "ratio",
        ),
        (
            "effect_cache.lemma4_hit_rate",
            ratio(c0.lemma4_hits, c0.lemma4_lookups),
            "ratio",
        ),
        (
            "packed.canon_ns",
            med(&|op, c| cal(op, "packed.canon") * 1e9 / c.canon_calls as f64),
            "ns",
        ),
        ("packed.orbit_compression", orbits.compression(), "ratio"),
        ("init.lemma4_s", secs("init.lemma4"), "s"),
        ("init.lemma4_drop_s", secs("init.lemma4_drop"), "s"),
        ("init.lemma4_states", c0.lemma4_states as f64, "count"),
        ("hook.search_s", secs("hook.search"), "s"),
        ("similarity.analyze_s", secs("similarity.analyze"), "s"),
        ("similarity.refute_s", secs("similarity.refute"), "s"),
        ("similarity.refute_steps", c0.refute_steps as f64, "count"),
        ("prop.safety_scan_s", secs("prop.safety_scan"), "s"),
        ("check.build_s", secs("check.build"), "s"),
        ("prop.parse_s", secs("prop.parse"), "s"),
        ("prop.batch_s", secs("prop.batch"), "s"),
        ("prop.forward_passes", c0.forward_passes as f64, "count"),
        ("prop.backward_passes", c0.backward_passes as f64, "count"),
        (
            "prop.decisions_per_s",
            med(&|op, c| c.decisions as f64 / cal(op, "prop.batch")),
            "1/s",
        ),
        ("trace.staged_s", staged, "s"),
        ("trace.unattributed_s", untraced_p50 - staged, "s"),
    ];

    // Stage shares of the staged time (the op span's children).
    let mut shares = String::new();
    for stage in [
        "valence.safety_build",
        "prop.safety_scan",
        "valence.drop",
        "init.lemma4",
        "hook.search",
        "similarity.analyze",
        "similarity.refute",
        "check.build",
        "prop.parse",
        "prop.batch",
    ] {
        let s = secs(stage);
        if s >= 0.005 * staged {
            write!(shares, " {stage} {:.1}%", 100.0 * s / staged).expect("String write");
        }
    }
    let lemma4_drop = secs("init.lemma4_drop");
    if lemma4_drop >= 0.005 * staged {
        write!(
            shares,
            " (init.lemma4_drop {:.1}% within init.lemma4)",
            100.0 * lemma4_drop / staged
        )
        .expect("String write");
    }
    println!(
        "trace: {} traced ops, staged {staged:.6} s vs untraced p50 {untraced_p50:.6} s;{shares}",
        ops.len()
    );

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{}.jsonl", args.workload, args.seed);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tr.to_json_lines()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("trace: spans written to {path}");
    Ok(metrics)
}

fn result_json(correct: bool, tally: &Tally, metrics: &Metrics) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("String write");
    }
    out.push_str("}}");
    Ok(out)
}
