//! # grid-des — deterministic discrete-event simulation engine
//!
//! This crate is the simulation substrate of the Grid-Federation reproduction.
//! The original paper evaluated its super-scheduling system inside the Java
//! [GridSim] toolkit; `grid-des` provides the equivalent facilities in Rust:
//!
//! * a global simulation clock measured in *simulation seconds* ([`SimTime`]),
//! * a priority event queue with **deterministic** tie-breaking
//!   ([`queue::EventQueue`]),
//! * addressable [`Entity`] values (GFAs, clusters, user populations, …) that
//!   exchange timestamped messages through a [`Context`] handle, which also
//!   lends them the one state they share ([`Context::shared`]),
//! * seeded random number streams ([`SimRng`]) a model derives from its own
//!   master seed, so every run is exactly reproducible,
//! * lightweight engine statistics ([`stats::SimStats`]) and an optional
//!   handler profiler ([`EventProfiler`]).
//!
//! The engine is single-threaded by design: reproducing the paper's figures
//! requires bitwise-identical event ordering across runs.  Parallelism in this
//! workspace happens *across* simulation runs (parameter sweeps in
//! `grid-experiments` fan out one run per thread), which follows the usual
//! HPC guidance of parallelising at the outermost independent level.
//!
//! ## Quick example
//!
//! ```
//! use grid_des::{Simulation, Entity, Context, Event, EntityId, SimTime};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! enum Msg { Ping(u32), Pong(u32) }
//!
//! // A model with several kinds of actor registers them as one enum.
//! enum Node { Pinger { peer: EntityId, received: u32 }, Ponger }
//!
//! impl Entity<Msg> for Node {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
//!         if let Node::Pinger { peer, .. } = self {
//!             ctx.send(*peer, 1.0, Msg::Ping(0));
//!         }
//!     }
//!     fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Context<'_, Msg>) {
//!         match (self, ev.payload) {
//!             (Node::Pinger { peer, received }, Msg::Pong(n)) => {
//!                 *received = n;
//!                 if n < 3 { ctx.send(*peer, 1.0, Msg::Ping(n)); }
//!             }
//!             (Node::Ponger, Msg::Ping(n)) => ctx.send(ev.src, 0.5, Msg::Pong(n + 1)),
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(());
//! let ponger = sim.add_entity(Node::Ponger);
//! let pinger = sim.add_entity(Node::Pinger { peer: ponger, received: 0 });
//! sim.run();
//! assert!(sim.now() > SimTime::ZERO);
//! assert_eq!(sim.stats().events_delivered, 6);
//! assert!(matches!(sim.entities()[pinger.index()], Node::Pinger { received: 3, .. }));
//! ```
//!
//! [GridSim]: https://doi.org/10.1002/cpe.710

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod entity;
pub mod event;
pub mod net;
pub mod queue;
pub mod rng;
pub mod simulation;
pub mod stats;
pub mod time;
pub mod trace;

pub use entity::{Context, Entity, EntityId};
pub use event::{Event, EventKind};
pub use net::{DedupWindow, Jitter, LinkFaults, NetworkFaultConfig, TransmissionPlan};
pub use queue::{BinaryHeapEventQueue, EventQueue};
pub use rng::SimRng;
pub use simulation::Simulation;
pub use stats::SimStats;
pub use time::SimTime;
pub use trace::{EventProfiler, FlowRecord, SpanRecord, SpanTrack};
