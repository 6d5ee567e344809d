//! # rum-bitmap
//!
//! Bitmap indexing with word-aligned-hybrid compression — the paper's
//! space-optimized corner ("bitmaps with lossy encoding", FastBit/WAH) and
//! its §5 roadmap item: "Update-friendly bitmap indexes, where updates are
//! absorbed using additional, highly compressible, bitvectors which are
//! gradually merged."
//!
//! * [`WahVec`] — WAH compression (31-bit groups in 32-bit words) with
//!   streaming AND/OR and a set-bit iterator.
//! * [`UpdateFriendlyBitmap`] — a compressed base bitmap plus small
//!   uncompressed deltas, merged lazily: cheap updates bought with a
//!   little extra space and read-side merging, exactly the RUM trade the
//!   paper sketches.
//! * [`BitmapIndex`] — an access method: an append-only row store plus one
//!   update-friendly bitmap per key-range bin.

#![forbid(unsafe_code)]

pub mod index;
pub mod updatable;
pub mod wah;

pub use index::{BitmapConfig, BitmapIndex};
pub use updatable::UpdateFriendlyBitmap;
pub use wah::WahVec;
