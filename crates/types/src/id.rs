//! Strongly-typed identifiers.
//!
//! The paper's control plane indexes everything by IDs: streams are keyed by a
//! unique stream ID in the SIB, nodes by a node ID in the PIB, and viewers by
//! a client ID (Algorithm 1). Newtype wrappers keep those key spaces from
//! being mixed up at compile time.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Construct from a raw integer.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw integer value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

define_id!(
    /// Identifies one CDN node (a cluster of machines in the paper).
    NodeId,
    "nd"
);
define_id!(
    /// Identifies one live stream (one broadcast; the paper's simulcast
    /// versions, each its own stream ID, are not reproduced).
    StreamId,
    "st"
);
define_id!(
    /// Identifies one end client (a viewer or a broadcaster device).
    ClientId,
    "cl"
);
define_id!(
    /// Identifies one directed overlay link between two nodes.
    LinkId,
    "lk"
);
define_id!(
    /// Identifies one computed overlay path in the PIB.
    PathId,
    "pa"
);

/// RTP synchronization source identifier (32 bits on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ssrc(pub u32);

impl fmt::Display for Ssrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ssrc:{:08x}", self.0)
    }
}

/// A 16-bit RTP sequence number with RFC 3550 wrap-around semantics.
///
/// Ordering comparisons use serial-number arithmetic: `a.newer_than(b)` is
/// true when `a` is at most half the sequence space ahead of `b`, which is
/// how the slow path's loss detector decides whether a hole exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeqNo(pub u16);

impl SeqNo {
    /// The first sequence number.
    pub const ZERO: SeqNo = SeqNo(0);

    /// The sequence number immediately after `self`, wrapping at 2^16.
    #[must_use]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0.wrapping_add(1))
    }

    /// The sequence number `n` steps after `self`, wrapping.
    ///
    /// Deliberately not `impl Add`: this is serial-number arithmetic, and
    /// an operator would read as plain integer addition.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, n: u16) -> SeqNo {
        SeqNo(self.0.wrapping_add(n))
    }

    /// Signed distance from `other` to `self` in serial-number arithmetic.
    ///
    /// Positive when `self` is newer than `other`. The result is exact for
    /// distances up to half the sequence space (32767).
    #[must_use]
    pub fn distance(self, other: SeqNo) -> i32 {
        let diff = self.0.wrapping_sub(other.0);
        if diff < 0x8000 {
            i32::from(diff)
        } else {
            i32::from(diff) - 0x1_0000
        }
    }

    /// True when `self` is strictly newer than `other` (serial arithmetic).
    #[must_use]
    pub fn newer_than(self, other: SeqNo) -> bool {
        self.distance(other) > 0
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u16> for SeqNo {
    fn from(raw: u16) -> Self {
        SeqNo(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_with_display() {
        let n = NodeId::new(7);
        let s = StreamId::new(7);
        assert_eq!(n.to_string(), "nd7");
        assert_eq!(s.to_string(), "st7");
        assert_eq!(n.raw(), s.raw());
    }

    #[test]
    fn seqno_next_wraps() {
        assert_eq!(SeqNo(u16::MAX).next(), SeqNo(0));
        assert_eq!(SeqNo(41).next(), SeqNo(42));
    }

    #[test]
    fn seqno_distance_without_wrap() {
        assert_eq!(SeqNo(10).distance(SeqNo(4)), 6);
        assert_eq!(SeqNo(4).distance(SeqNo(10)), -6);
        assert_eq!(SeqNo(4).distance(SeqNo(4)), 0);
    }

    #[test]
    fn seqno_distance_across_wrap() {
        assert_eq!(SeqNo(2).distance(SeqNo(u16::MAX)), 3);
        assert_eq!(SeqNo(u16::MAX).distance(SeqNo(2)), -3);
    }

    #[test]
    fn seqno_newer_than_across_wrap() {
        assert!(SeqNo(1).newer_than(SeqNo(u16::MAX)));
        assert!(!SeqNo(u16::MAX).newer_than(SeqNo(1)));
        assert!(!SeqNo(5).newer_than(SeqNo(5)));
    }

    #[test]
    fn seqno_add_wraps() {
        assert_eq!(SeqNo(u16::MAX).add(2), SeqNo(1));
    }
}
