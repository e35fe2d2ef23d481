//! Net structure: places, transitions, weighted arcs, and the builder.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::PetriError;
use crate::marking::Marking;

/// Identifier of a place within a [`PetriNet`].
///
/// Ids are dense indices handed out by [`NetBuilder::place`]; they are only
/// meaningful for the net that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PlaceId(pub(crate) usize);

/// Identifier of a transition within a [`PetriNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TransitionId(pub(crate) usize);

impl PlaceId {
    /// Dense index of this place (0-based, in creation order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl TransitionId {
    /// Dense index of this transition (0-based, in creation order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Place {
    pub(crate) name: String,
    pub(crate) capacity: Option<u32>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Transition {
    pub(crate) name: String,
    /// `(place, weight)` pairs consumed when this transition fires.
    pub(crate) inputs: Vec<(PlaceId, u32)>,
    /// `(place, weight)` pairs produced when this transition fires.
    pub(crate) outputs: Vec<(PlaceId, u32)>,
}

/// An immutable place/transition net with weighted arcs.
///
/// Build one with [`NetBuilder`]. The structure is fixed after
/// [`NetBuilder::build`]; dynamic state lives in a [`Marking`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PetriNet {
    pub(crate) places: Vec<Place>,
    pub(crate) transitions: Vec<Transition>,
}

/// Incremental builder for a [`PetriNet`].
///
/// # Example
///
/// ```
/// use lod_petri::NetBuilder;
/// let mut b = NetBuilder::new();
/// let p = b.place("ready");
/// let t = b.transition("go");
/// b.arc_in(p, t, 1).unwrap();
/// let net = b.build();
/// assert_eq!(net.place_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetBuilder {
    places: Vec<Place>,
    transitions: Vec<Transition>,
}

impl NetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a place with unbounded capacity and returns its id.
    pub fn place(&mut self, name: impl Into<String>) -> PlaceId {
        self.places.push(Place {
            name: name.into(),
            capacity: None,
        });
        PlaceId(self.places.len() - 1)
    }

    /// Adds a place that may hold at most `capacity` tokens.
    ///
    /// Firing a transition whose output would exceed the capacity fails with
    /// [`PetriError::CapacityExceeded`].
    pub fn place_with_capacity(&mut self, name: impl Into<String>, capacity: u32) -> PlaceId {
        self.places.push(Place {
            name: name.into(),
            capacity: Some(capacity),
        });
        PlaceId(self.places.len() - 1)
    }

    /// Adds a transition with no arcs and returns its id.
    pub fn transition(&mut self, name: impl Into<String>) -> TransitionId {
        self.transitions.push(Transition {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        });
        TransitionId(self.transitions.len() - 1)
    }

    /// Adds an input arc `place --weight--> transition`.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::ZeroWeightArc`] for `weight == 0` and
    /// `UnknownPlace`/`UnknownTransition` for foreign ids.
    pub fn arc_in(
        &mut self,
        place: PlaceId,
        transition: TransitionId,
        weight: u32,
    ) -> Result<&mut Self, PetriError> {
        self.check(place, transition, weight)?;
        let inputs = &mut self.transitions[transition.0].inputs;
        // Merge parallel arcs into a single weighted arc.
        if let Some(entry) = inputs.iter_mut().find(|(p, _)| *p == place) {
            entry.1 += weight;
        } else {
            inputs.push((place, weight));
        }
        Ok(self)
    }

    /// Adds an output arc `transition --weight--> place`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetBuilder::arc_in`].
    pub fn arc_out(
        &mut self,
        transition: TransitionId,
        place: PlaceId,
        weight: u32,
    ) -> Result<&mut Self, PetriError> {
        self.check(place, transition, weight)?;
        let outputs = &mut self.transitions[transition.0].outputs;
        if let Some(entry) = outputs.iter_mut().find(|(p, _)| *p == place) {
            entry.1 += weight;
        } else {
            outputs.push((place, weight));
        }
        Ok(self)
    }

    fn check(
        &self,
        place: PlaceId,
        transition: TransitionId,
        weight: u32,
    ) -> Result<(), PetriError> {
        if weight == 0 {
            return Err(PetriError::ZeroWeightArc);
        }
        if place.0 >= self.places.len() {
            return Err(PetriError::UnknownPlace(place));
        }
        if transition.0 >= self.transitions.len() {
            return Err(PetriError::UnknownTransition(transition));
        }
        Ok(())
    }

    /// Finalizes the structure into an immutable [`PetriNet`].
    pub fn build(self) -> PetriNet {
        PetriNet {
            places: self.places,
            transitions: self.transitions,
        }
    }
}

impl PetriNet {
    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Name of a place.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to this net.
    pub fn place_name(&self, place: PlaceId) -> &str {
        &self.places[place.0].name
    }

    /// Name of a transition.
    ///
    /// # Panics
    ///
    /// Panics if `transition` does not belong to this net.
    pub fn transition_name(&self, transition: TransitionId) -> &str {
        &self.transitions[transition.0].name
    }

    /// Iterator over all place ids in index order.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        (0..self.places.len()).map(PlaceId)
    }

    /// Iterator over all transition ids in index order.
    pub fn transitions(&self) -> impl Iterator<Item = TransitionId> + '_ {
        (0..self.transitions.len()).map(TransitionId)
    }

    /// Input arcs `(place, weight)` of a transition.
    pub fn inputs(&self, transition: TransitionId) -> &[(PlaceId, u32)] {
        &self.transitions[transition.0].inputs
    }

    /// Output arcs `(place, weight)` of a transition.
    pub fn outputs(&self, transition: TransitionId) -> &[(PlaceId, u32)] {
        &self.transitions[transition.0].outputs
    }

    /// Transitions that consume from `place`.
    pub fn post_set(&self, place: PlaceId) -> Vec<TransitionId> {
        self.transitions()
            .filter(|t| self.inputs(*t).iter().any(|(p, _)| *p == place))
            .collect()
    }

    /// Transitions that produce into `place`.
    pub fn pre_set(&self, place: PlaceId) -> Vec<TransitionId> {
        self.transitions()
            .filter(|t| self.outputs(*t).iter().any(|(p, _)| *p == place))
            .collect()
    }

    /// Whether `transition` may fire in `marking`.
    ///
    /// A transition is enabled when every input place carries at least the
    /// arc weight, and firing it would not exceed any output capacity.
    pub fn is_enabled(&self, marking: &Marking, transition: TransitionId) -> bool {
        let t = &self.transitions[transition.0];
        let inputs_ok = t
            .inputs
            .iter()
            .all(|(p, w)| marking.tokens(*p) >= u64::from(*w));
        if !inputs_ok {
            return false;
        }
        t.outputs.iter().all(|(p, w)| {
            match self.places[p.0].capacity {
                None => true,
                Some(cap) => {
                    // Net effect on p: +w minus whatever this same firing consumes.
                    let consumed: u64 = t
                        .inputs
                        .iter()
                        .filter(|(ip, _)| ip == p)
                        .map(|(_, iw)| u64::from(*iw))
                        .sum();
                    marking.tokens(*p) + u64::from(*w) - consumed <= u64::from(cap)
                }
            }
        })
    }

    /// All transitions enabled in `marking`, in index order.
    pub fn enabled(&self, marking: &Marking) -> Vec<TransitionId> {
        self.transitions()
            .filter(|t| self.is_enabled(marking, *t))
            .collect()
    }

    /// Fires `transition`, mutating `marking` in place.
    ///
    /// # Errors
    ///
    /// [`PetriError::NotEnabled`] if the transition cannot fire, and
    /// [`PetriError::MarkingSizeMismatch`] if the marking does not match the
    /// net.
    pub fn fire(&self, marking: &mut Marking, transition: TransitionId) -> Result<(), PetriError> {
        if marking.len() != self.places.len() {
            return Err(PetriError::MarkingSizeMismatch {
                expected: self.places.len(),
                actual: marking.len(),
            });
        }
        if transition.0 >= self.transitions.len() {
            return Err(PetriError::UnknownTransition(transition));
        }
        if !self.is_enabled(marking, transition) {
            return Err(PetriError::NotEnabled(transition));
        }
        let t = &self.transitions[transition.0];
        for (p, w) in &t.inputs {
            marking.remove(*p, u64::from(*w));
        }
        for (p, w) in &t.outputs {
            marking.add(*p, u64::from(*w));
        }
        Ok(())
    }

    /// Fires `transition` on a copy of `marking` and returns the successor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PetriNet::fire`].
    pub fn successor(
        &self,
        marking: &Marking,
        transition: TransitionId,
    ) -> Result<Marking, PetriError> {
        let mut next = marking.clone();
        self.fire(&mut next, transition)?;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_net() -> (PetriNet, PlaceId, PlaceId, TransitionId) {
        let mut b = NetBuilder::new();
        let a = b.place("a");
        let c = b.place("c");
        let t = b.transition("t");
        b.arc_in(a, t, 2).unwrap();
        b.arc_out(t, c, 1).unwrap();
        (b.build(), a, c, t)
    }

    #[test]
    fn weighted_arc_requires_enough_tokens() {
        let (net, a, _, t) = simple_net();
        let mut m = Marking::new(net.place_count());
        m.set(a, 1);
        assert!(!net.is_enabled(&m, t));
        m.set(a, 2);
        assert!(net.is_enabled(&m, t));
    }

    #[test]
    fn firing_moves_tokens() {
        let (net, a, c, t) = simple_net();
        let mut m = Marking::new(net.place_count());
        m.set(a, 5);
        net.fire(&mut m, t).unwrap();
        assert_eq!(m.tokens(a), 3);
        assert_eq!(m.tokens(c), 1);
    }

    #[test]
    fn firing_disabled_fails() {
        let (net, _, _, t) = simple_net();
        let mut m = Marking::new(net.place_count());
        assert_eq!(net.fire(&mut m, t), Err(PetriError::NotEnabled(t)));
    }

    #[test]
    fn capacity_blocks_enabling() {
        let mut b = NetBuilder::new();
        let src = b.place("src");
        let dst = b.place_with_capacity("dst", 1);
        let t = b.transition("t");
        b.arc_in(src, t, 1).unwrap();
        b.arc_out(t, dst, 1).unwrap();
        let net = b.build();
        let mut m = Marking::new(net.place_count());
        m.set(src, 2);
        net.fire(&mut m, t).unwrap();
        // dst now at capacity: t must be disabled although src has tokens.
        assert!(!net.is_enabled(&m, t));
    }

    #[test]
    fn self_loop_respects_capacity_net_effect() {
        // p --1--> t --1--> p with capacity 1: net effect zero, always enabled.
        let mut b = NetBuilder::new();
        let p = b.place_with_capacity("p", 1);
        let t = b.transition("t");
        b.arc_in(p, t, 1).unwrap();
        b.arc_out(t, p, 1).unwrap();
        let net = b.build();
        let mut m = Marking::new(1);
        m.set(p, 1);
        assert!(net.is_enabled(&m, t));
        net.fire(&mut m, t).unwrap();
        assert_eq!(m.tokens(p), 1);
    }

    #[test]
    fn parallel_arcs_merge() {
        let mut b = NetBuilder::new();
        let p = b.place("p");
        let t = b.transition("t");
        b.arc_in(p, t, 1).unwrap();
        b.arc_in(p, t, 1).unwrap();
        let net = b.build();
        assert_eq!(net.inputs(t), &[(p, 2)]);
    }

    #[test]
    fn zero_weight_rejected() {
        let mut b = NetBuilder::new();
        let p = b.place("p");
        let t = b.transition("t");
        assert_eq!(b.arc_in(p, t, 0).unwrap_err(), PetriError::ZeroWeightArc);
    }

    #[test]
    fn foreign_ids_rejected() {
        let mut b1 = NetBuilder::new();
        let _ = b1.place("p");
        let mut b2 = NetBuilder::new();
        let p2 = b2.place("x");
        let p_far = PlaceId(7);
        let t = b1.transition("t");
        assert!(matches!(
            b1.arc_in(p_far, t, 1),
            Err(PetriError::UnknownPlace(_))
        ));
        // An id from another builder that happens to be in range is accepted:
        // ids are dense indices, the caller owns that discipline.
        assert!(b1.arc_in(p2, t, 1).is_ok());
    }

    #[test]
    fn pre_and_post_sets() {
        let (net, a, c, t) = simple_net();
        assert_eq!(net.post_set(a), vec![t]);
        assert_eq!(net.pre_set(c), vec![t]);
        assert!(net.post_set(c).is_empty());
    }

    #[test]
    fn names_round_trip() {
        let (net, a, _, t) = simple_net();
        assert_eq!(net.place_name(a), "a");
        assert_eq!(net.transition_name(t), "t");
    }

    #[test]
    fn successor_leaves_original_untouched() {
        let (net, a, c, t) = simple_net();
        let mut m = Marking::new(net.place_count());
        m.set(a, 2);
        let next = net.successor(&m, t).unwrap();
        assert_eq!(m.tokens(a), 2);
        assert_eq!(next.tokens(c), 1);
    }

    #[test]
    fn display_ids() {
        assert_eq!(PlaceId(3).to_string(), "p3");
        assert_eq!(TransitionId(0).to_string(), "t0");
    }
}
