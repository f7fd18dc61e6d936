//! Deterministic discrete-event network emulator.
//!
//! The paper evaluates LiveNet on Alibaba's production CDN; this crate is
//! the substitute substrate (see DESIGN.md §1): a seedable, deterministic
//! emulator in which hosts exchange datagrams over links that model
//! propagation delay, serialization at a finite bandwidth, a finite queue
//! (drop-tail) and random loss (Bernoulli or Gilbert–Elliott).
//!
//! [`NetSim`] owns a set of [`Host`] state machines and delivers datagrams
//! and timers to them. Its calendar is [`livenet_types::EventQueue`], the
//! repo's one event calendar: the fleet simulator, the replicated Brain's
//! cluster and the wire driver's timers run on it too.
//!
//! Hosts are sans-I/O: they receive `(now, event)` and request sends and
//! timers through their [`Ctx`]; the engine performs them. This is exactly the structure the tokio
//! transport reuses with real sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod link;
mod sim;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use link::{LinkConfig, LinkStats, LossModel};
pub use sim::{Ctx, Datagram, Host, NetSim};
