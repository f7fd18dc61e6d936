//! Tokio driver for the LiveNet data plane.
//!
//! The overlay node in `livenet-node` is a sans-I/O state machine; the
//! discrete-event emulator drives it in simulations, and this crate drives
//! the *same* core over real UDP sockets with the tokio runtime — the
//! structure the networking guides prescribe (protocol core + I/O driver).
//!
//! [`UdpOverlayNode`] owns one socket and one [`OverlayNode`]; incoming
//! datagrams and due timers are fed to the core, and the core's actions
//! (sends, new timers) are executed. Wall-clock time is mapped onto
//! [`SimTime`] relative to a per-process epoch, so the protocol core never
//! notices it left the simulator.
//!
//! [`testbed`] assembles the whole thing — brain, nodes, a paced
//! broadcaster, and feedback-sending viewers — into a driveable loopback
//! overlay, with every layer recording into one [`SharedTelemetry`] hub.

// `deny` rather than `forbid`: the one sanctioned exception is the
// direct `sendmmsg`/`recvmmsg` bindings in `batch::mmsg`, which carry a
// module-scoped allow and their own safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod clock;
pub mod node;
pub mod telemetry;
pub mod testbed;

pub use batch::{BatchBackend, BatchSocket, RecvBatch, SendDatagram, MAX_BATCH};
pub use clock::WallClock;
pub use node::{NodeCommand, NodeGone, NodeHandle, UdpOverlayNode, WireNodeConfig};
pub use telemetry::SharedTelemetry;
pub use testbed::{TestbedConfig, ViewerReport, WireRunReport, WireViewer};
