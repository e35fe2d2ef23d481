//! Token markings.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::net::{PetriNet, PlaceId};

/// A token assignment over the places of a net.
///
/// Markings are plain data: they know their own length but not which net
/// they belong to. All mutating operations saturate at zero rather than
/// underflow; enabledness checks live on [`PetriNet`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Marking {
    tokens: Vec<u64>,
}

impl Marking {
    /// An empty marking over `places` places.
    pub fn new(places: usize) -> Self {
        Self {
            tokens: vec![0; places],
        }
    }

    /// Builds a marking from explicit token counts.
    pub fn from_counts(counts: impl Into<Vec<u64>>) -> Self {
        Self {
            tokens: counts.into(),
        }
    }

    /// Number of places this marking covers.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the marking covers zero places.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Tokens currently in `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range for this marking.
    pub fn tokens(&self, place: PlaceId) -> u64 {
        self.tokens[place.index()]
    }

    /// Sets the token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range for this marking.
    pub fn set(&mut self, place: PlaceId, count: u64) {
        self.tokens[place.index()] = count;
    }

    /// Adds `count` tokens to `place`.
    pub fn add(&mut self, place: PlaceId, count: u64) {
        self.tokens[place.index()] += count;
    }

    /// Removes up to `count` tokens from `place`, saturating at zero.
    pub fn remove(&mut self, place: PlaceId, count: u64) {
        let t = &mut self.tokens[place.index()];
        *t = t.saturating_sub(count);
    }

    /// Total number of tokens across all places.
    pub fn total(&self) -> u64 {
        self.tokens.iter().sum()
    }

    /// Raw slice of token counts, indexed by place index.
    pub fn as_slice(&self) -> &[u64] {
        &self.tokens
    }

    /// `true` when every place holds at most one token (a *safe* marking).
    pub fn is_safe(&self) -> bool {
        self.tokens.iter().all(|&t| t <= 1)
    }

    /// Renders the marking against a net's place names, e.g. `{ready:2, done:1}`.
    pub fn display<'a>(&'a self, net: &'a PetriNet) -> MarkingDisplay<'a> {
        MarkingDisplay { marking: self, net }
    }
}

impl FromIterator<u64> for Marking {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self {
            tokens: iter.into_iter().collect(),
        }
    }
}

/// Helper returned by [`Marking::display`].
#[derive(Debug)]
pub struct MarkingDisplay<'a> {
    marking: &'a Marking,
    net: &'a PetriNet,
}

impl fmt::Display for MarkingDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for p in self.net.places() {
            let t = self.marking.tokens(p);
            if t > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}:{}", self.net.place_name(p), t)?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    #[test]
    fn remove_saturates() {
        let mut b = NetBuilder::new();
        let p = b.place("p");
        let _net = b.build();
        let mut m = Marking::new(1);
        m.add(p, 2);
        m.remove(p, 5);
        assert_eq!(m.tokens(p), 0);
    }

    #[test]
    fn safe_marking() {
        assert!(Marking::from_counts(vec![1, 0, 1]).is_safe());
        assert!(!Marking::from_counts(vec![2, 0]).is_safe());
    }

    #[test]
    fn display_skips_empty_places() {
        let mut b = NetBuilder::new();
        let ready = b.place("ready");
        let _idle = b.place("idle");
        let done = b.place("done");
        let net = b.build();
        let mut m = Marking::new(3);
        m.set(ready, 2);
        m.set(done, 1);
        assert_eq!(m.display(&net).to_string(), "{ready:2, done:1}");
    }

    #[test]
    fn from_iterator_collects() {
        let m: Marking = [1u64, 2, 3].into_iter().collect();
        assert_eq!(m.total(), 6);
        assert_eq!(m.len(), 3);
    }
}
