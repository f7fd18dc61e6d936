//! Tokio driver for the LiveNet data plane.
//!
//! The overlay node in `livenet-node` is a sans-I/O state machine; the
//! discrete-event emulator drives it in simulations, and this crate drives
//! the *same* core over real UDP sockets with the tokio runtime — the
//! structure the networking guides prescribe (protocol core + I/O driver).
//!
//! [`UdpOverlayNode`] owns one socket and one
//! [`livenet_node::OverlayNode`]; incoming datagrams and due timers are fed
//! to the core, and the core's actions (sends, new timers) are executed.
//! Timers wait on the emulator's own calendar,
//! [`livenet_types::EventQueue`], and are never cancelled: the core drops a
//! fire that is no longer due. Wall-clock time is mapped onto
//! [`livenet_types::SimTime`] relative to a per-process epoch, so the
//! protocol core never notices it left the simulator. A node records into the
//! [`SharedTelemetry`] hub it is given; clones of one hub share it.
//!
//! The crate is the driver only. The loopback experiment that assembles a
//! Brain, a fleet of these nodes, a broadcaster and feedback-sending
//! viewers is `exp wire`'s harness, in `livenet-bench`.

// `deny` rather than `forbid`: the one sanctioned exception is the
// direct `sendmmsg`/`recvmmsg` bindings in `batch::mmsg`, which carry a
// module-scoped allow and their own safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod clock;
mod node;
mod telemetry;

pub use batch::{BatchBackend, BatchSocket, RecvBatch, SendDatagram, MAX_BATCH};
pub use clock::WallClock;
pub use node::{NodeCommand, NodeGone, NodeHandle, UdpOverlayNode, WireNodeConfig};
pub use telemetry::SharedTelemetry;
