//! # lexpress — declarative schema translation and integration
//!
//! A reconstruction of the Bell Labs *lexpress* tool (MetaComm, ICDE 2000,
//! §4.2/§5.4): a small declarative language describing how update
//! descriptors against one schema translate into update operations against
//! another, with
//!
//! - string operations, table translations, alternate mappings (`||`),
//!   multi-valued attribute processing and glob pattern matching;
//! - a compiler emitting machine-independent bytecode (a [`Bundle`] of
//!   [`Program`]s) executed by a stack interpreter — descriptions can be
//!   compiled and loaded into a running [`Engine`];
//! - [`Closure`]: transitive closure of attribute mappings with
//!   first-mapping-wins conflict resolution and compile-/run-time cycle
//!   detection;
//! - partitioning constraints routing updates to the right object manager
//!   (modify → add/delete/modify/skip);
//! - the `Originator`/`LastUpdater` mechanism producing *conditional*
//!   operations when an update is reapplied at the device that
//!   originated it.
//!
//! See `crates/lexpress/README.md` for the language reference.

#![warn(unreachable_pub)]

mod ast;
mod bytecode;
mod closure;
mod compile;
mod descriptor;
pub mod disasm;
mod engine;
mod error;
mod lexer;
pub mod library;
mod parser;
pub mod value;
mod vm;

pub use bytecode::{Bundle, CompiledMapping, CompiledRule, CompiledTable, Program};
pub use closure::Closure;
pub use descriptor::{
    Frame, Image, OpKind, TargetOp, UpdateDescriptor, UpdateKind, ValueList, NO_VALUES,
};
pub use engine::Engine;
pub use error::{CompileError, RuntimeError};
pub use value::Value;
