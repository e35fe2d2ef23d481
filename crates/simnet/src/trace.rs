//! Per-link traffic counters.

use serde::{Deserialize, Serialize};

/// Counters accumulated by one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets handed to the link.
    pub packets_sent: u64,
    /// Packets that reached the receiver.
    pub packets_delivered: u64,
    /// Packets dropped by the loss model.
    pub packets_dropped: u64,
    /// Total bytes handed to the link (including later-dropped packets).
    pub bytes_sent: u64,
}

impl LinkStats {
    /// Delivered / sent, or 1.0 for an unused link.
    pub fn delivery_ratio(&self) -> f64 {
        if self.packets_sent == 0 {
            1.0
        } else {
            self.packets_delivered as f64 / self.packets_sent as f64
        }
    }

    /// Dropped / sent, or 0.0 for an unused link.
    pub fn loss_ratio(&self) -> f64 {
        if self.packets_sent == 0 {
            0.0
        } else {
            self.packets_dropped as f64 / self.packets_sent as f64
        }
    }

    /// Integer twin of [`LinkStats::delivery_ratio`]: delivered per
    /// thousand sent (1000 for an unused link). Use this in seeded
    /// experiment reports — float formatting is not byte-stable across
    /// platforms, per-mille division is.
    pub fn delivery_permille(&self) -> u64 {
        (self.packets_delivered * 1000)
            .checked_div(self.packets_sent)
            .unwrap_or(1000)
    }

    /// Integer twin of [`LinkStats::loss_ratio`]: dropped per thousand
    /// sent (0 for an unused link).
    pub fn loss_permille(&self) -> u64 {
        (self.packets_dropped * 1000)
            .checked_div(self.packets_sent)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = LinkStats {
            packets_sent: 10,
            packets_delivered: 9,
            packets_dropped: 1,
            bytes_sent: 1000,
        };
        assert!((s.delivery_ratio() - 0.9).abs() < 1e-9);
        assert!((s.loss_ratio() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn unused_link_ratios() {
        let s = LinkStats::default();
        assert_eq!(s.delivery_ratio(), 1.0);
        assert_eq!(s.loss_ratio(), 0.0);
    }

    #[test]
    fn ratio_permille_twins_match_and_stay_integer() {
        let s = LinkStats {
            packets_sent: 10,
            packets_delivered: 9,
            packets_dropped: 1,
            bytes_sent: 1000,
        };
        assert_eq!(s.delivery_permille(), 900);
        assert_eq!(s.loss_permille(), 100);
        let unused = LinkStats::default();
        assert_eq!(unused.delivery_permille(), 1000);
        assert_eq!(unused.loss_permille(), 0);
    }
}
