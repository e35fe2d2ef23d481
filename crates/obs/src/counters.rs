//! Counter structs declared once, as [`counters!`] tables: a row is a
//! field, how two nodes' values fold together and its exposition name.

/// Declares a counter struct from one table of rows
/// `doc · field: Type [max] [=> kind "exposition_name"]` and generates:
///
/// * the struct itself, with the table's attributes (derives pass
///   through) and each row's doc comment;
/// * `merge(&mut self, &Self)`, folding another node's counters in:
///   every row adds, except a `max` row (a high-water mark), which keeps
///   the larger value;
/// * `AddAssign`, the same fold as `+=`;
/// * `publish(&self, &Recorder)`, writing every named row to the
///   recorder's registry: a `counter` row adds its value (zero
///   included), a `sparse_counter` row adds it only when non-zero, so it
///   appears once it has counted something, and a `gauge` row sets it;
/// * `EXPORTED`, every row's exposition name in row order.
///
/// A row without a name is kept and merged but not exported.
#[macro_export]
macro_rules! counters {
    (@merge $mine:expr, $theirs:expr) => {
        $mine += $theirs
    };
    (@merge $mine:expr, $theirs:expr, max) => {
        $mine = $mine.max($theirs)
    };
    (@publish $obs:ident, counter, $name:literal, $v:expr) => {
        $obs.counter_add($name, ($v as u64))
    };
    (@publish $obs:ident, sparse_counter, $name:literal, $v:expr) => {
        if ($v as u64) > 0 {
            $obs.counter_add($name, ($v as u64))
        }
    };
    (@publish $obs:ident, gauge, $name:literal, $v:expr) => {
        $obs.gauge_set($name, ($v as u64))
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ident $($fold:ident)? $(=> $kind:ident $export:literal)?,
            )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $name {
            /// Exposition name of every exported row, in row order.
            pub const EXPORTED: &'static [&'static str] = &[$($($export,)?)*];

            /// Folds another node's counters into these: every row adds,
            /// a high-water mark keeps the larger value.
            pub fn merge(&mut self, other: &Self) {
                $( $crate::counters!(@merge self.$field, other.$field $(, $fold)?); )*
            }

            /// Writes every exported row to `obs`'s registry.
            pub fn publish(&self, obs: &$crate::Recorder) {
                $($( $crate::counters!(@publish obs, $kind, $export, self.$field); )?)*
            }
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.merge(&rhs);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::Recorder;

    counters! {
        /// A table with every kind of row.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Sample {
            /// Summed and always written.
            pub sent: u64 => counter "sample_sent_total",
            /// Summed and written once non-zero.
            pub lost: u64 => sparse_counter "sample_lost",
            /// A high-water mark.
            pub peak: usize max => gauge "sample_peak",
            /// Summed, not exported.
            pub bytes: u64,
        }
    }

    #[test]
    fn merge_sums_rows_and_maxes_high_water_marks() {
        let mut a = Sample {
            sent: 1,
            lost: 2,
            peak: 7,
            bytes: 10,
        };
        let b = Sample {
            sent: 3,
            lost: 0,
            peak: 4,
            bytes: 5,
        };
        a.merge(&b);
        let want = Sample {
            sent: 4,
            lost: 2,
            peak: 7,
            bytes: 15,
        };
        assert_eq!(a, want);
        let mut c = b;
        c += want;
        assert_eq!(c.peak, 7);
        assert_eq!(c.sent, 7);
    }

    #[test]
    fn publish_writes_named_rows_only() {
        assert_eq!(
            Sample::EXPORTED,
            ["sample_sent_total", "sample_lost", "sample_peak"]
        );
        let obs = Recorder::new();
        Sample {
            peak: 3,
            bytes: 9,
            ..Sample::default()
        }
        .publish(&obs);
        // A zero counter is written, a zero sparse counter is not.
        assert_eq!(
            obs.prometheus(),
            "# TYPE sample_sent_total counter\nsample_sent_total 0\n\
             # TYPE sample_peak gauge\nsample_peak 3\n"
        );
        Sample {
            lost: 2,
            ..Sample::default()
        }
        .publish(&obs);
        let reg = obs.registry();
        assert_eq!(reg.counter("sample_lost"), 2);
        assert_eq!(reg.gauge("sample_peak"), 0, "a gauge takes the last value");
        Sample::default().publish(&Recorder::disabled());
    }
}
