//! Evaluator edge cases over the system substrate: properties over
//! failed-process masks, process indices outside the system, and a
//! deterministic fuzz of the textual property parser. The empty,
//! truncated and single-state graph cases run on the hand-built
//! substrate of `analysis::prop`'s unit tests.

use analysis::prop::{
    atoms, evaluate_batch, parse_props, system_vocab, Prop, SystemGraph, Verdict,
};
use analysis::valence::ValenceMap;
use ioa::rng::SplitMix64;
use protocols::doomed::doomed_atomic;
use spec::ProcId;
use system::consensus::InputAssignment;
use system::process::direct::DirectConsensus;
use system::sched::initialize;

#[test]
fn failed_process_masks() {
    // Explore from a root where process 0 has already failed: the
    // failure mask is part of the state and persists along every path.
    let sys = doomed_atomic(2, 0);
    let assignment = InputAssignment::monotone(2, 1);
    let healthy = initialize(&sys, &assignment);
    let crashed = sys.fail(&healthy, ProcId(0));
    let map = ValenceMap::build(&sys, crashed, 500_000).expect("small system");
    let graph = SystemGraph::new(&sys, &map);

    let report = evaluate_batch(
        &graph,
        &[
            Prop::always(atoms::failed(0)),
            Prop::not(Prop::exists_path(atoms::no_failures())),
            Prop::exists_path(atoms::failed(1)),
            Prop::always(atoms::safe(assignment)),
        ],
    );
    assert_eq!(
        report.results[0].verdict,
        Verdict::Holds,
        "fail_0 is permanent: every reachable state keeps the mask"
    );
    assert_eq!(
        report.results[1].verdict,
        Verdict::Holds,
        "no reachable state drops back to a failure-free mask"
    );
    assert_eq!(
        report.results[2].verdict,
        Verdict::Fails,
        "no fail_1 input occurs during exploration"
    );
    assert_eq!(
        report.results[3].verdict,
        Verdict::Holds,
        "safety is not violated merely by the crash"
    );

    // Differential: the atom agrees with the raw mask on every state.
    let failed0 = atoms::failed::<_>(0);
    let no_fail = atoms::no_failures::<_>();
    for id in map.ids() {
        assert_eq!(
            failed0.holds_at(&graph, id),
            map.resolve(id).failed.contains(&ProcId(0))
        );
        assert_eq!(
            no_fail.holds_at(&graph, id),
            map.resolve(id).failed.is_empty()
        );
    }
}

#[test]
fn process_indices_outside_the_system_name_no_process() {
    // `proc_decided(i)` and `failed(i)` for i ≥ n answer false on every
    // state instead of panicking or reading a service slot or the
    // failed mask as a process — including i ≥ 32, past the mask width.
    let sys = doomed_atomic(3, 1);
    let assignment = InputAssignment::monotone(3, 1);
    let crashed = sys.fail(&initialize(&sys, &assignment), ProcId(0));
    let map = ValenceMap::build(&sys, crashed, 500_000).expect("small system");
    let graph = SystemGraph::new(&sys, &map);
    for i in [3, 4, 7, 31, 32, 40, usize::MAX] {
        let report = evaluate_batch(
            &graph,
            &[
                Prop::exists_path(atoms::proc_decided(i)),
                Prop::exists_path(atoms::failed(i)),
            ],
        );
        assert_eq!(
            report.results[0].verdict,
            Verdict::Fails,
            "proc_decided({i})"
        );
        assert_eq!(report.results[1].verdict, Verdict::Fails, "failed({i})");
    }
    // In range, both atoms still see the state.
    let report = evaluate_batch(
        &graph,
        &[
            Prop::exists_path(atoms::proc_decided(2)),
            Prop::always(atoms::failed(0)),
        ],
    );
    assert_eq!(report.results[0].verdict, Verdict::Holds);
    assert_eq!(report.results[1].verdict, Verdict::Holds);
}

/// Atom texts `system_vocab` resolves.
const ATOMS: &[&str] = &[
    "bivalent",
    "univalent",
    "zero_valent",
    "one_valent",
    "undecided",
    "decided",
    "decided(0)",
    "decided(1)",
    "decided(-7)",
    "safe",
    "no_failures",
    "quiescent",
    "proc_decided(2)",
    "proc_decided(40)",
    "failed(0)",
    "failed(99)",
];

/// Atom texts it refuses: unknown names, negative or overflowing
/// arguments, wrong arities.
const BAD_ATOMS: &[&str] = &[
    "nope",
    "proc_decided(-1)",
    "failed(-3)",
    "decided(99999999999999999999)",
    "safe(1)",
    "decided(1, 2)",
    "proc_decided",
];

const OPS: &[&str] = &[
    "now",
    "always",
    "ag",
    "invariant",
    "exists_path",
    "ef",
    "eventually",
    "af",
    "fair_eventually",
    "af_fair",
];

/// ASCII and multi-byte whitespace.
const SPACE: &[&str] = &[
    "", " ", "\t", "\n", "\u{a0}", "\u{85}", "\u{2003}", "\u{3000}",
];

const STRAY: &[&str] = &[
    "(", ")", ",", ";", "!", "&", "|", "leads_to", "#", "é", "λ", "-", "42", "\0", "😀", "_x",
];

fn pick<'a>(rng: &mut SplitMix64, xs: &[&'a str]) -> &'a str {
    xs[rng.gen_range(xs.len())]
}

fn atom(rng: &mut SplitMix64) -> &'static str {
    if rng.gen_range(20) == 0 {
        pick(rng, BAD_ATOMS)
    } else {
        pick(rng, ATOMS)
    }
}

/// A random property of the grammar, with at most `depth` levels of
/// `!`, `(`, `&` and `|`.
fn prop(rng: &mut SplitMix64, depth: usize) -> String {
    let arms = if depth == 0 { 3 } else { 7 };
    match rng.gen_range(arms) {
        0 => atom(rng).to_string(),
        1 => format!("{}({}{})", pick(rng, OPS), pick(rng, SPACE), atom(rng)),
        2 => format!("leads_to({},{}{})", atom(rng), pick(rng, SPACE), atom(rng)),
        3 => format!("!{}{}", pick(rng, SPACE), prop(rng, depth - 1)),
        4 => format!("({}{})", prop(rng, depth - 1), pick(rng, SPACE)),
        5 => format!("{} & {}", prop(rng, depth - 1), prop(rng, depth - 1)),
        _ => format!(
            "{}{}|{}",
            prop(rng, depth - 1),
            pick(rng, SPACE),
            prop(rng, depth - 1)
        ),
    }
}

/// One to four properties joined by `;`, one of them sometimes wrapped
/// in `!`s or parentheses nested around the parser's 256-level cap or
/// far past it.
fn batch(rng: &mut SplitMix64) -> String {
    let mut props: Vec<String> = (0..=rng.gen_range(4)).map(|_| prop(rng, 4)).collect();
    if rng.gen_range(8) == 0 {
        let k = [250, 255, 256, 257, 300, 5_000][rng.gen_range(6)];
        let p = props.pop().expect("at least one property");
        props.push(if rng.gen_bool() {
            format!("{}{p}", "!".repeat(k))
        } else {
            format!("{}{p}{}", "(".repeat(k), ")".repeat(k))
        });
    }
    let sep = format!("{};{}", pick(rng, SPACE), pick(rng, SPACE));
    props.join(&sep)
}

/// `src` with one to three characters deleted, or tokens inserted, at
/// random character positions.
fn mutate(rng: &mut SplitMix64, src: String) -> String {
    let mut chars: Vec<char> = src.chars().collect();
    for _ in 0..=rng.gen_range(3) {
        let at = rng.gen_range(chars.len() + 1);
        if at < chars.len() && rng.gen_bool() {
            chars.remove(at);
        } else {
            let token = if rng.gen_bool() {
                pick(rng, STRAY)
            } else {
                pick(rng, SPACE)
            };
            chars.splice(at..at, token.chars());
        }
    }
    chars.into_iter().collect()
}

/// A run of random tokens of every kind.
fn soup(rng: &mut SplitMix64) -> String {
    (0..=rng.gen_range(12))
        .map(|_| match rng.gen_range(4) {
            0 => atom(rng),
            1 => pick(rng, OPS),
            2 => pick(rng, SPACE),
            _ => pick(rng, STRAY),
        })
        .collect()
}

#[test]
fn parse_props_never_panics_and_its_display_parses_back() {
    let vocab = system_vocab::<DirectConsensus>(InputAssignment::monotone(3, 1));
    let parse = |src: &str| parse_props::<SystemGraph<'_, DirectConsensus>>(src, &vocab);
    let show = |props: &[Prop<'_, _>]| {
        props
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    };
    let mut rng = SplitMix64::seed_from_u64(0x05ee_d0f9_a25e);
    let (mut parsed, mut too_deep) = (0, 0);
    for case in 0..3_000 {
        let src = match case % 3 {
            0 => batch(&mut rng),
            1 => {
                let src = batch(&mut rng);
                mutate(&mut rng, src)
            }
            _ => soup(&mut rng),
        };
        match parse(&src) {
            Ok(props) => {
                parsed += 1;
                let printed = show(&props);
                let again = parse(&printed).unwrap_or_else(|e| panic!("{printed:?}: {e}"));
                assert_eq!(show(&again), printed, "from {src:?}");
            }
            Err(e) => too_deep += usize::from(e.msg.contains("deeper than 256")),
        }
    }
    assert!(parsed >= 500, "only {parsed} of 3000 inputs parsed");
    assert!(too_deep > 0, "no input nested past the cap");
}
