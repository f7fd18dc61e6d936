//! Deterministic discrete-event network emulator.
//!
//! The paper evaluates LiveNet on Alibaba's production CDN; this crate is
//! the substitute substrate (see DESIGN.md §1): a seedable, deterministic
//! emulator in which hosts exchange datagrams over links that model
//! propagation delay, serialization at a finite bandwidth, a finite queue
//! (drop-tail) and random loss (Bernoulli or Gilbert–Elliott).
//!
//! Two layers are exposed:
//!
//! * [`EventQueue`] — a bare event calendar (time-ordered, FIFO-stable;
//!   re-exported from `livenet-types`, where the replicated Brain's
//!   cluster also finds it), reused by the fleet-level simulator in
//!   `livenet-sim`;
//! * [`NetSim`] — the network emulator proper, which owns a set of [`Host`]
//!   state machines and delivers datagrams and timers to them.
//!
//! Hosts are sans-I/O: they receive `(now, event)` and emit [`Action`]s; the
//! engine performs the actions. This is exactly the structure the tokio
//! transport reuses with real sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod link;
pub mod sim;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use link::{LinkConfig, LinkStats, LossModel};
pub use livenet_types::EventQueue;
pub use sim::{Action, Ctx, Datagram, Host, NetSim, TimerKey};
