//! The Stream Forwarding Information Base (paper §5.1, Fig. 7).
//!
//! Each node records, per stream, the set of subscriber peers — downstream
//! nodes and locally-attached viewer clients. The FIB is updated by
//! subscription/unsubscription requests; the fast path consults it on every
//! RTP packet.

use livenet_types::{ClientId, NodeId, StreamId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A downstream subscriber: another overlay node or a local client.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Subscriber {
    /// A downstream overlay node.
    Node(NodeId),
    /// A viewer client attached to this (consumer) node.
    Client(ClientId),
}

impl std::fmt::Display for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Subscriber::Node(n) => write!(f, "{n}"),
            Subscriber::Client(c) => write!(f, "{c}"),
        }
    }
}

/// The per-node Stream FIB.
#[derive(Debug, Clone, Default)]
pub struct StreamFib {
    entries: BTreeMap<StreamId, BTreeSet<Subscriber>>,
}

impl StreamFib {
    /// Empty FIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a subscriber; returns true when newly added (false when it was
    /// already present — duplicate subscription requests are idempotent).
    pub fn subscribe(&mut self, stream: StreamId, sub: Subscriber) -> bool {
        self.entries.entry(stream).or_default().insert(sub)
    }

    /// Remove a subscriber; returns true when it was present. Empty entries
    /// are removed entirely so `has_stream` reflects live interest.
    pub fn unsubscribe(&mut self, stream: StreamId, sub: Subscriber) -> bool {
        let Some(set) = self.entries.get_mut(&stream) else {
            return false;
        };
        let removed = set.remove(&sub);
        if set.is_empty() {
            self.entries.remove(&stream);
        }
        removed
    }

    /// Subscribers of a stream (deterministic order).
    pub fn subscribers(&self, stream: StreamId) -> impl Iterator<Item = Subscriber> + '_ {
        self.entries
            .get(&stream)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Number of subscribers for a stream.
    pub fn subscriber_count(&self, stream: StreamId) -> usize {
        self.entries.get(&stream).map_or(0, BTreeSet::len)
    }

    /// True when anything subscribes to the stream here.
    pub fn has_stream(&self, stream: StreamId) -> bool {
        self.entries.contains_key(&stream)
    }

    /// True when `sub` subscribes to any stream here.
    pub(crate) fn has_subscriber(&self, sub: Subscriber) -> bool {
        self.entries.values().any(|set| set.contains(&sub))
    }

    /// Total number of (stream, subscriber) pairs — the node's fan-out load.
    pub fn total_subscriptions(&self) -> usize {
        self.entries.values().map(BTreeSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u64) -> StreamId {
        StreamId::new(i)
    }
    fn n(i: u64) -> Subscriber {
        Subscriber::Node(NodeId::new(i))
    }
    fn c(i: u64) -> Subscriber {
        Subscriber::Client(ClientId::new(i))
    }

    #[test]
    fn subscribe_is_idempotent() {
        let mut fib = StreamFib::new();
        assert!(fib.subscribe(s(1), n(4)));
        assert!(!fib.subscribe(s(1), n(4)));
        assert_eq!(fib.subscriber_count(s(1)), 1);
    }

    #[test]
    fn paper_example_e3_serves_e4_and_e5() {
        // §5.1: E4 subscribes sx at E3 → <sx, {E4}>; E5 joins → <sx, {E4,E5}>.
        let mut fib = StreamFib::new();
        fib.subscribe(s(1), n(4));
        fib.subscribe(s(1), n(5));
        let subs: Vec<Subscriber> = fib.subscribers(s(1)).collect();
        assert_eq!(subs, vec![n(4), n(5)]);
    }

    #[test]
    fn unsubscribe_clears_empty_entries() {
        let mut fib = StreamFib::new();
        fib.subscribe(s(1), n(4));
        assert!(fib.has_stream(s(1)));
        assert!(fib.unsubscribe(s(1), n(4)));
        assert!(!fib.has_stream(s(1)));
        assert!(!fib.unsubscribe(s(1), n(4)));
    }

    #[test]
    fn nodes_and_clients_are_distinct_subscribers() {
        let mut fib = StreamFib::new();
        fib.subscribe(s(1), n(4));
        fib.subscribe(s(1), c(4)); // same raw id, different kind
        assert_eq!(fib.subscriber_count(s(1)), 2);
    }

    #[test]
    fn total_subscriptions_counts_pairs() {
        let mut fib = StreamFib::new();
        fib.subscribe(s(1), n(1));
        fib.subscribe(s(1), n(2));
        fib.subscribe(s(2), c(1));
        assert_eq!(fib.total_subscriptions(), 3);
    }
}
