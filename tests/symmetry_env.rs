//! The symmetry mode is an argument, never the environment.
//!
//! This binary holds a single test because it sets `SYMMETRY=full` in
//! its own process: no other test may run beside it. Every default
//! (`ValenceMap::build`, `PackedSystem::new`, `Bounds::default`,
//! `find_bivalent_init`) explores the concrete graph whatever the
//! variable says, so the only way to a quotient is an explicit
//! `SymmetryMode::Full`, which passes the symmetry-honesty gate first.
//! The subject is the lying fixture: a quotient of it would merge
//! states with different futures.

use analysis::valence::ValenceMap;
use protocols::broken::lying_symmetry;
use system::consensus::InputAssignment;
use system::sched::initialize;

#[test]
fn default_builds_ignore_a_symmetry_environment_variable() {
    std::env::set_var("SYMMETRY", "full");
    let sys = lying_symmetry(3, 1);
    let maps: Vec<(usize, bool)> = (0..=3)
        .map(|ones| {
            let root = initialize(&sys, &InputAssignment::monotone(3, ones));
            let map = ValenceMap::build(&sys, root, 1_000_000).expect("within budget");
            (map.state_count(), map.symmetric())
        })
        .collect();
    // Concrete maps. `P0` overrides its input with 0, so the first two
    // roots are unanimous in effect (125 states) and the last two mixed
    // (188). The unaudited quotients would hold 35 and 83.
    assert_eq!(
        maps,
        [(125, false), (125, false), (188, false), (188, false)]
    );
}
