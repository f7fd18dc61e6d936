//! Property: the batched (`sendmmsg`/`recvmmsg`) datapath is
//! observationally identical to the portable sequential fallback — the
//! same payload multiset comes out, whatever mix of sizes goes in.
//!
//! Binds 127.0.0.1:0 only; plain blocking loops, no runtime.

use bytes::Bytes;
use livenet_cases::prelude::*;
use livenet_transport::{BatchBackend, BatchSocket, RecvBatch, SendDatagram, MAX_BATCH};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn local() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback addr")
}

/// Send every payload through a fresh socket pair on `backend` and
/// collect the delivered payloads, sorted (UDP may reorder).
fn deliver(backend: BatchBackend, payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let tx = BatchSocket::bind(local(), backend).expect("bind tx");
    let rx = BatchSocket::bind(local(), backend).expect("bind rx");
    let msgs: Vec<SendDatagram> = payloads
        .iter()
        .map(|p| SendDatagram {
            to: rx.local_addr(),
            payload: Bytes::from(p.clone()),
        })
        .collect();
    let mut sent = 0;
    while sent < msgs.len() {
        let n = tx.try_send_batch(&msgs[sent..]).expect("send");
        assert!(n > 0, "loopback send stalled at {sent}/{}", msgs.len());
        sent += n;
    }
    let mut batch = RecvBatch::new(MAX_BATCH, 1024);
    let mut got: Vec<Vec<u8>> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(3);
    while got.len() < msgs.len() && Instant::now() < deadline {
        let n = rx.try_recv_batch(&mut batch).expect("recv");
        if n == 0 {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        for d in batch.iter() {
            assert!(!d.truncated, "payloads fit the 1024B cap by construction");
            got.push(d.data.to_vec());
        }
    }
    got.sort();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever datagram mix goes in, both backends deliver exactly the
    /// sent multiset — nothing lost, nothing reordered-within-a-payload,
    /// nothing duplicated.
    #[test]
    fn batched_and_sequential_deliver_identical_multisets(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..900), 1..48)
    ) {
        let auto = deliver(BatchBackend::auto(), &payloads);
        let sequential = deliver(BatchBackend::Sequential, &payloads);
        let mut want: Vec<Vec<u8>> = payloads.clone();
        want.sort();
        prop_assert_eq!(&auto, &want, "batched backend diverged from the sent multiset");
        prop_assert_eq!(&sequential, &want, "sequential backend diverged from the sent multiset");
    }
}
