//! Synchronization-primitive facade used by the locking mechanism.
//!
//! [`crate::mech`] imports every atomic and parking primitive through this
//! module instead of naming `std::sync::atomic` / `parking_lot` directly.
//! Production builds re-export the real types (zero cost — these are plain
//! `pub use`s), while the `model` crate instantiates the same protocol
//! shape over deterministic shim types with an ordering-aware visibility
//! model (see `crates/model`). Keeping the import surface to exactly the
//! names below is what keeps the model's shim API honest: if the protocol
//! starts needing a new primitive, it must appear here first, and the
//! model checker must grow a shim for it.
//!
//! The memory-ordering choices themselves are *not* part of this facade;
//! they live as named constants in [`crate::mech::ordering`], with one
//! machine-checked claim per constant in [`crate::mech::ORDERING_AUDIT`].

pub use parking_lot::{Condvar, Mutex, MutexGuard};
pub use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
