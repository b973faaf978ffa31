//! # aiql-model
//!
//! The domain-specific data model for system monitoring data, as described in
//! §2.1 of the AIQL paper (Gao et al., VLDB 2019 / USENIX ATC 2018).
//!
//! System monitoring observes kernel-level system calls and records the
//! interactions among **system entities** as **system events**. This crate
//! defines:
//!
//! * [`Entity`] — files, processes, and network connections, each carrying
//!   the critical security-related attributes collected by the data agents
//!   (executable name, file path, IPs/ports, …);
//! * [`Event`] — the ⟨subject, operation, object⟩ (SVO) triple with the
//!   strong *spatial* (agent/host id) and *temporal* (timestamp) properties
//!   the storage and engine layers exploit;
//! * [`Operation`] / [`EventType`] — the event taxonomy (file events, process
//!   events, network events, categorized by object kind);
//! * [`Value`] and [`StringPattern`] — attribute values and SQL-`LIKE` style
//!   patterns used in query constraints;
//! * [`Interner`] — a string dictionary shared by storage and engines so that
//!   attribute comparisons are integer comparisons.
//!
//! Everything downstream (storage, language, engines, simulator) depends only
//! on this crate for its data vocabulary.

pub mod cancel;
pub mod entity;
pub mod error;
pub mod event;
pub mod ids;
pub mod interner;
pub mod pattern;
pub mod time;
pub mod value;

pub use cancel::CancelToken;
pub use entity::{
    Entity, EntityAttrs, EntityKind, FileAttrs, NetConnAttrs, ProcessAttrs, Protocol,
};
pub use error::ModelError;
pub use event::{Event, EventAttr, EventType, Operation, ALL_OPERATIONS, OPERATION_COUNT};
pub use ids::{AgentId, EntityId, EventId};
pub use interner::{Interner, Symbol};
pub use pattern::{PatternShape, StringPattern};
pub use time::{Duration, TimeWindow, Timestamp};
pub use value::{IpV4, Value};
