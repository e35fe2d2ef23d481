//! Compilation of a [`PresentationSpec`] into an executable OCPN.

use std::collections::HashMap;

use lod_petri::{Marking, NetBuilder, PlaceId, TimedExecutor, TimedNet, TransitionId};

use crate::schedule::{PlayoutSchedule, ScheduleEntry};
use crate::spec::{PresentationSpec, TemporalRelation};

/// A compiled Object Composition Petri Net.
///
/// Media intervals become timed transitions; temporal relations become
/// fork/join/delay structure. Executing the net deterministically yields
/// the playout schedule.
///
/// # Example
///
/// ```
/// use lod_ocpn::{Ocpn, PresentationSpec, TemporalRelation};
///
/// let spec = PresentationSpec::interval("video", 60)
///     .compose(TemporalRelation::Equals, PresentationSpec::interval("audio", 60));
/// let ocpn = Ocpn::compile(&spec);
/// let schedule = ocpn.schedule();
/// assert_eq!(schedule.start_of("video"), Some(0));
/// assert_eq!(schedule.start_of("audio"), Some(0));
/// assert_eq!(schedule.makespan(), 60);
/// ```
#[derive(Debug)]
pub struct Ocpn {
    timed: TimedNet,
    media: HashMap<String, (TransitionId, u64)>,
    entry: PlaceId,
    exit: PlaceId,
}

impl Ocpn {
    /// Compiles `spec` into a timed Petri net.
    pub fn compile(spec: &PresentationSpec) -> Self {
        let mut b = NetBuilder::new();
        let mut durations: Vec<(TransitionId, u64)> = Vec::new();
        let mut media = HashMap::new();
        let entry = b.place("entry");
        let (first_in, exit) =
            compile_rec(spec, &mut b, &mut durations, &mut media, &HashMap::new());
        // Connect the global entry to the spec's entry with a 0-tick start.
        let start = b.transition("start");
        b.arc_in(entry, start, 1).expect("fresh ids");
        b.arc_out(start, first_in, 1).expect("fresh ids");
        let mut timed = TimedNet::new(b.build());
        for (t, d) in durations {
            timed.set_duration(t, d);
        }
        Self {
            timed,
            media,
            entry,
            exit,
        }
    }

    /// The underlying timed net (for analysis, e.g. invariants).
    pub fn timed_net(&self) -> &TimedNet {
        &self.timed
    }

    /// Executes the net and extracts the playout schedule.
    ///
    /// # Panics
    ///
    /// Panics if the compiled net livelocks, which would be a bug in the
    /// compiler: compiled nets are acyclic.
    pub fn schedule(&self) -> PlayoutSchedule {
        let mut m = Marking::new(self.timed.net().place_count());
        m.set(self.entry, 1);
        let (schedule, end) = run(&self.timed, m, &self.media);
        debug_assert_eq!(end.tokens(self.exit), 1);
        schedule
    }
}

/// Executes `timed` from `marking` until nothing can fire and lists when
/// each of the `named` transitions started, with the final marking.
///
/// # Panics
///
/// Panics if the net livelocks, which would be a bug in the compiler:
/// compiled nets are acyclic.
pub(crate) fn run(
    timed: &TimedNet,
    marking: Marking,
    named: &HashMap<String, (TransitionId, u64)>,
) -> (PlayoutSchedule, Marking) {
    let mut exec = TimedExecutor::new(timed, marking);
    exec.run_to_quiescence(1_000_000)
        .expect("compiled nets are acyclic");
    let by_transition: HashMap<TransitionId, (&String, u64)> =
        named.iter().map(|(n, &(t, d))| (t, (n, d))).collect();
    let entries = exec
        .log()
        .iter()
        .filter(|ev| ev.kind == lod_petri::timed::TimedEventKind::Started)
        .filter_map(|ev| {
            let (name, dur) = by_transition.get(&ev.transition)?;
            Some(ScheduleEntry {
                name: (*name).clone(),
                start: ev.time,
                end: ev.time + dur,
            })
        })
        .collect();
    (PlayoutSchedule::new(entries), exec.marking().clone())
}

/// Recursively compiles a spec node, returning its (entry, exit) places.
/// A playout transition also consumes its object's data-ready token when
/// `ready` names one (XOCPN; the plain OCPN passes an empty map).
pub(crate) fn compile_rec(
    spec: &PresentationSpec,
    b: &mut NetBuilder,
    durations: &mut Vec<(TransitionId, u64)>,
    media: &mut HashMap<String, (TransitionId, u64)>,
    ready: &HashMap<String, PlaceId>,
) -> (PlaceId, PlaceId) {
    match spec {
        PresentationSpec::Interval { name, duration } => {
            let p_in = b.place(format!("{name}.in"));
            let p_out = b.place(format!("{name}.out"));
            let t = b.transition(format!("play.{name}"));
            b.arc_in(p_in, t, 1).expect("fresh ids");
            if let Some(r) = ready.get(name) {
                b.arc_in(*r, t, 1).expect("fresh ids");
            }
            b.arc_out(t, p_out, 1).expect("fresh ids");
            durations.push((t, *duration));
            media.insert(name.clone(), (t, *duration));
            (p_in, p_out)
        }
        PresentationSpec::Compose {
            relation,
            first,
            second,
        } => {
            let (a_in, a_out) = compile_rec(first, b, durations, media, ready);
            let (b_in, b_out) = compile_rec(second, b, durations, media, ready);
            match relation {
                TemporalRelation::Before(delay) => {
                    // A.out --delay--> B.in, sequential.
                    let t = b.transition(format!("gap({delay})"));
                    b.arc_in(a_out, t, 1).expect("fresh ids");
                    b.arc_out(t, b_in, 1).expect("fresh ids");
                    durations.push((t, *delay));
                    (a_in, b_out)
                }
                TemporalRelation::Meets => {
                    let t = b.transition("meet");
                    b.arc_in(a_out, t, 1).expect("fresh ids");
                    b.arc_out(t, b_in, 1).expect("fresh ids");
                    (a_in, b_out)
                }
                rel => {
                    // Parallel shapes: fork, optional lead delay on B, join.
                    let lead = match rel {
                        TemporalRelation::Overlaps(d) | TemporalRelation::During(d) => *d,
                        TemporalRelation::Starts | TemporalRelation::Equals => 0,
                        TemporalRelation::Finishes => {
                            first.duration().saturating_sub(second.duration())
                        }
                        _ => unreachable!("sequential relations handled above"),
                    };
                    let entry = b.place("par.in");
                    let exit = b.place("par.out");
                    let fork = b.transition("fork");
                    let join = b.transition("join");
                    b.arc_in(entry, fork, 1).expect("fresh ids");
                    b.arc_out(fork, a_in, 1).expect("fresh ids");
                    if lead > 0 {
                        let wait = b.place("lead.wait");
                        let t = b.transition(format!("lead({lead})"));
                        b.arc_out(fork, wait, 1).expect("fresh ids");
                        b.arc_in(wait, t, 1).expect("fresh ids");
                        b.arc_out(t, b_in, 1).expect("fresh ids");
                        durations.push((t, lead));
                    } else {
                        b.arc_out(fork, b_in, 1).expect("fresh ids");
                    }
                    b.arc_in(a_out, join, 1).expect("fresh ids");
                    b.arc_in(b_out, join, 1).expect("fresh ids");
                    b.arc_out(join, exit, 1).expect("fresh ids");
                    (entry, exit)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lod_petri::analysis::{ExploreLimits, ReachabilityGraph};

    fn sched(spec: &PresentationSpec) -> PlayoutSchedule {
        Ocpn::compile(spec).schedule()
    }

    #[test]
    fn equals_starts_together() {
        let spec = PresentationSpec::interval("v", 60).compose(
            TemporalRelation::Equals,
            PresentationSpec::interval("a", 60),
        );
        let s = sched(&spec);
        assert_eq!(s.start_of("v"), Some(0));
        assert_eq!(s.start_of("a"), Some(0));
        assert_eq!(s.makespan(), 60);
    }

    #[test]
    fn before_inserts_gap() {
        let spec = PresentationSpec::interval("a", 30).compose(
            TemporalRelation::Before(15),
            PresentationSpec::interval("b", 10),
        );
        let s = sched(&spec);
        assert_eq!(s.start_of("b"), Some(45));
        assert_eq!(s.makespan(), 55);
    }

    #[test]
    fn meets_is_back_to_back() {
        let spec = PresentationSpec::interval("a", 30).then(PresentationSpec::interval("b", 10));
        let s = sched(&spec);
        assert_eq!(s.end_of("a"), Some(30));
        assert_eq!(s.start_of("b"), Some(30));
    }

    #[test]
    fn overlaps_shifts_second() {
        let spec = PresentationSpec::interval("a", 50).compose(
            TemporalRelation::Overlaps(30),
            PresentationSpec::interval("b", 40),
        );
        let s = sched(&spec);
        assert_eq!(s.start_of("a"), Some(0));
        assert_eq!(s.start_of("b"), Some(30));
        assert_eq!(s.makespan(), 70);
    }

    #[test]
    fn during_contains_second() {
        let spec = PresentationSpec::interval("a", 100).compose(
            TemporalRelation::During(20),
            PresentationSpec::interval("b", 30),
        );
        let s = sched(&spec);
        assert_eq!(s.start_of("b"), Some(20));
        assert_eq!(s.end_of("b"), Some(50));
        assert_eq!(s.makespan(), 100);
    }

    #[test]
    fn finishes_aligns_ends() {
        let spec = PresentationSpec::interval("a", 100).compose(
            TemporalRelation::Finishes,
            PresentationSpec::interval("b", 30),
        );
        let s = sched(&spec);
        assert_eq!(s.start_of("b"), Some(70));
        assert_eq!(s.end_of("b"), Some(100));
        assert_eq!(s.end_of("a"), Some(100));
    }

    #[test]
    fn nested_composition_schedules() {
        // (v equals a) before(10) (slide1 meets slide2)
        let spec = PresentationSpec::interval("v", 60)
            .compose(
                TemporalRelation::Equals,
                PresentationSpec::interval("a", 60),
            )
            .compose(
                TemporalRelation::Before(10),
                PresentationSpec::interval("s1", 20).then(PresentationSpec::interval("s2", 20)),
            );
        let s = sched(&spec);
        assert_eq!(s.start_of("s1"), Some(70));
        assert_eq!(s.start_of("s2"), Some(90));
        assert_eq!(s.makespan(), 110);
        assert_eq!(s.makespan(), spec.duration());
    }

    #[test]
    fn schedule_matches_spec_duration_for_all_relations() {
        let relations = [
            TemporalRelation::Before(7),
            TemporalRelation::Meets,
            TemporalRelation::Overlaps(13),
            TemporalRelation::During(5),
            TemporalRelation::Starts,
            TemporalRelation::Finishes,
            TemporalRelation::Equals,
        ];
        for rel in relations {
            let spec = PresentationSpec::interval("a", 40)
                .compose(rel, PresentationSpec::interval("b", 25));
            let s = sched(&spec);
            assert_eq!(s.makespan(), spec.duration(), "relation {rel}");
        }
    }

    #[test]
    fn compiled_net_is_safe() {
        let spec = PresentationSpec::interval("v", 60)
            .compose(
                TemporalRelation::Equals,
                PresentationSpec::interval("a", 60),
            )
            .compose(
                TemporalRelation::Overlaps(30),
                PresentationSpec::interval("b", 80),
            );
        let ocpn = Ocpn::compile(&spec);
        let net = ocpn.timed_net().net();
        let mut m = Marking::new(net.place_count());
        m.set(ocpn.entry, 1);
        let g = ReachabilityGraph::explore(net, &m, ExploreLimits::default()).unwrap();
        assert!(g.is_safe(), "OCPN structure must be 1-bounded");
        // Exactly one deadlock: the final marking with the exit token.
        assert_eq!(g.deadlocks().len(), 1);
    }
}
