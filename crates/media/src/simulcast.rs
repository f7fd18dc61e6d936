//! Simulcast bitrate ladders.
//!
//! LiveNet adopts simulcast rather than SVC (§5.2): the broadcaster encodes
//! several bitrate versions in parallel (e.g. 720P + 480P) and uploads all of
//! them to the producer node. Each rendition gets its own [`StreamId`]; the
//! consumer node picks the best rendition per viewer based on the viewer's
//! estimated bandwidth, keeping clients "thin" (§7.2).

use livenet_types::{Bandwidth, StreamId};
use serde::{Deserialize, Serialize};

/// One bitrate version of a broadcast.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rendition {
    /// Stream ID carried on the wire for this rendition.
    pub stream: StreamId,
    /// Human-readable label, e.g. "720p".
    pub name: String,
    /// Target video bitrate.
    pub bitrate: Bandwidth,
    /// Frame height in pixels (for bookkeeping only).
    pub height: u32,
}

/// The ordered set of renditions one broadcaster uploads.
///
/// Renditions are kept sorted by descending bitrate; selection walks down the
/// ladder until a rendition fits the viewer's available bandwidth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimulcastLadder {
    renditions: Vec<Rendition>,
}

impl SimulcastLadder {
    /// Build a ladder; renditions are sorted by descending bitrate.
    ///
    /// Panics if `renditions` is empty — a broadcast always has at least one
    /// version.
    pub fn new(mut renditions: Vec<Rendition>) -> Self {
        assert!(!renditions.is_empty(), "empty simulcast ladder");
        renditions.sort_by_key(|r| std::cmp::Reverse(r.bitrate));
        SimulcastLadder { renditions }
    }

    /// The paper's example ladder: 720p + 480p, given a base stream ID; the
    /// rendition stream IDs are `base` and `base + 1`.
    pub fn taobao_default(base: StreamId) -> Self {
        SimulcastLadder::new(vec![
            Rendition {
                stream: base,
                name: "720p".into(),
                bitrate: Bandwidth::from_kbps(2_500),
                height: 720,
            },
            Rendition {
                stream: StreamId::new(base.raw() + 1),
                name: "480p".into(),
                bitrate: Bandwidth::from_kbps(1_200),
                height: 480,
            },
        ])
    }

    /// All renditions, highest bitrate first.
    pub fn renditions(&self) -> &[Rendition] {
        &self.renditions
    }

    /// Number of renditions.
    pub fn len(&self) -> usize {
        self.renditions.len()
    }

    /// Always false (construction requires ≥ 1 rendition).
    pub fn is_empty(&self) -> bool {
        self.renditions.is_empty()
    }

    /// The rendition a consumer node selects for a viewer with estimated
    /// available bandwidth `avail`, applying `headroom` (e.g. 1.2 means the
    /// rendition must fit in `avail / 1.2`). Falls back to the lowest
    /// rendition when nothing fits — a viewer always gets *something*.
    pub fn select(&self, avail: Bandwidth, headroom: f64) -> &Rendition {
        let budget = (avail.as_bps() as f64 / headroom.max(1.0)) as u64;
        self.renditions
            .iter()
            .find(|r| r.bitrate.as_bps() <= budget)
            .unwrap_or_else(|| self.renditions.last().expect("non-empty ladder"))
    }

    /// The rendition one step below `current`, if any (used when the send
    /// queue keeps building and the consumer requests a lower bitrate, §5.2).
    pub fn step_down(&self, current: StreamId) -> Option<&Rendition> {
        let idx = self.renditions.iter().position(|r| r.stream == current)?;
        self.renditions.get(idx + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> SimulcastLadder {
        SimulcastLadder::taobao_default(StreamId::new(100))
    }

    #[test]
    fn sorted_descending() {
        let l = ladder();
        assert_eq!(l.renditions()[0].name, "720p");
        assert_eq!(l.renditions()[1].name, "480p");
    }

    #[test]
    fn select_picks_highest_fitting() {
        let l = ladder();
        let r = l.select(Bandwidth::from_mbps(10), 1.2);
        assert_eq!(r.name, "720p");
        let r = l.select(Bandwidth::from_kbps(2_000), 1.2);
        assert_eq!(r.name, "480p");
    }

    #[test]
    fn select_falls_back_to_lowest() {
        let l = ladder();
        let r = l.select(Bandwidth::from_kbps(100), 1.2);
        assert_eq!(r.name, "480p");
    }

    #[test]
    fn select_headroom_matters() {
        let l = ladder();
        // 2.6 Mbps fits 2.5 Mbps with no headroom but not with 1.2×.
        assert_eq!(l.select(Bandwidth::from_kbps(2_600), 1.0).name, "720p");
        assert_eq!(l.select(Bandwidth::from_kbps(2_600), 1.2).name, "480p");
    }

    #[test]
    fn step_down_walks_the_ladder() {
        let l = ladder();
        let hi = l.renditions()[0].stream;
        let lo = l.renditions()[1].stream;
        assert_eq!(l.step_down(hi).unwrap().stream, lo);
        assert!(l.step_down(lo).is_none());
    }

    #[test]
    fn renditions_have_distinct_stream_ids() {
        let l = ladder();
        assert_ne!(l.renditions()[0].stream, l.renditions()[1].stream);
    }

    #[test]
    #[should_panic(expected = "empty simulcast ladder")]
    fn empty_ladder_panics() {
        let _ = SimulcastLadder::new(vec![]);
    }
}
