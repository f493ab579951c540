//! # nb-services
//!
//! Two of the NaradaBrokering substrate services the paper's introduction
//! lists alongside the discovery scheme (§1): *"(de)compression of large
//! payloads, fragmentation and coalescing of large datasets"*. Both are
//! transport-agnostic payload transforms; `repro ablation-bulk` and the
//! `bulk_transfer` example carry their output as ordinary events. (NTP
//! timestamps are modelled per node by `nb_net::clock`.)
//!
//! * [`compress`] — a from-scratch LZSS codec for event payloads, with a
//!   self-describing envelope that stores incompressible data raw,
//! * [`fragment`] — splitting large payloads into MTU-sized chunks and
//!   reassembling them (out-of-order, duplicated and interleaved chunks
//!   handled; stale partials expire).

pub mod compress;
pub mod fragment;

pub use compress::{compress_payload, decompress_payload, CompressError};
pub use fragment::{fragment_payload, Fragment, Reassembler};
