//! # grid-directory — the shared federation directory
//!
//! The Grid-Federation paper *assumes* the existence of a decentralised,
//! P2P-style directory with efficient updates and range queries: every GFA
//! publishes a quote (its resource description `R_i` and access price `c_i`)
//! and can ask for the *r*-th cheapest or *r*-th fastest cluster, at a cost of
//! `O(log n)` messages per query.  The paper deliberately excludes these
//! directory messages from its message-complexity figures and only counts the
//! negotiation traffic.
//!
//! This crate supplies both the assumed abstraction and a concrete check of
//! it, as two backends:
//!
//! * [`ideal::IdealDirectory`] — the model the experiments use: a consistent
//!   quote store with exact `k`-th cheapest / fastest queries whose *modelled*
//!   cost is `⌈log₂ n⌉` messages, matching the paper's assumption.
//! * [`maan::MaanDirectory`] — the MAAN-style multi-attribute range index:
//!   quotes are **stored at the ring nodes owning their
//!   locality-preserving-hashed keys** ([`keys`]), rank queries walk the
//!   distributed range (boundary-crossing advances cost extra hops) and
//!   `subscribe` / `unsubscribe` / `update_price` are routed
//!   put/remove/move operations charged as publish-side traffic.  Its
//!   finger-hop tally is the measured counterpart of the `⌈log₂ n⌉` model.
//! * [`chord::ChordOverlay`] — the Chord-style ring MAAN routes over: node
//!   identifiers, finger tables and greedy closest-preceding-finger routing
//!   with real hop counts, patched in place on membership changes.
//! * [`backend::DirectoryBackend`] / [`backend::AnyDirectory`] — the
//!   configuration enum and monomorphic enum-dispatch wrapper that let the
//!   federation pick its backend at run time; traced queries
//!   ([`quote::TracedQuote`]) report the message cost the federation accounts
//!   as a separate `directory` traffic class.
//! * [`cursor::RankCursor`] / [`cursor::QuoteCache`] — the streaming rank
//!   cursor (one routed open, O(1) advances — the execution profile matching
//!   the `O(log n + k)` message model) and the per-GFA, epoch-keyed quote
//!   memo layered on top.  The query-per-rank method
//!   ([`quote::FederationDirectory::query_ranked`]) remains as the
//!   differential oracle the cursor path is tested against.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod chord;
pub mod cursor;
pub mod ideal;
pub mod keys;
pub mod maan;
pub mod quote;

pub use backend::{AnyDirectory, DirectoryBackend};
pub use chord::ChordOverlay;
pub use cursor::{CacheStats, QuoteCache, RankCursor};
pub use ideal::IdealDirectory;
pub use maan::MaanDirectory;
pub use quote::{FederationDirectory, Quote, RankOrder, TracedQuote};
