//! Binary wire codec.
//!
//! A small, explicit, big-endian codec: fixed-width integers, `u32`
//! length-prefixed byte strings, and a [`Wire`] trait implemented by every
//! protocol type. No reflection, no schema evolution magic — decoding is
//! strict and every failure is a typed [`WireError`].

use bytes::{Bytes, BytesMut};
use nb_util::Uuid;

/// Maximum length accepted for a length-prefixed field (16 MiB). Guards
/// against hostile or corrupt length prefixes causing huge allocations.
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// Maximum total encoded size of one [`Message`](crate::Message). The
/// per-field cap alone is not enough: nested repeated fields (e.g. a
/// certificate chain of `MAX_FIELD_LEN`-sized entries) could multiply
/// [`MAX_FIELD_LEN`] many times over before any single field tripped its
/// limit. Decoding rejects any buffer larger than this up front.
pub const MAX_MESSAGE_LEN: usize = 64 * 1024 * 1024;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// An enum discriminant byte had no defined meaning.
    InvalidTag { context: &'static str, tag: u8 },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeded [`MAX_FIELD_LEN`].
    FieldTooLong(usize),
    /// A whole message exceeded [`MAX_MESSAGE_LEN`].
    MessageTooLong(usize),
    /// A decoded value violated a domain constraint (e.g. a bad topic).
    Invalid(&'static str),
    /// Trailing bytes remained after a complete top-level decode.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => f.write_str("unexpected end of buffer"),
            WireError::InvalidTag { context, tag } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            WireError::InvalidUtf8 => f.write_str("invalid UTF-8 in string field"),
            WireError::FieldTooLong(n) => write!(f, "field length {n} exceeds limit"),
            WireError::MessageTooLong(n) => write!(f, "message length {n} exceeds limit"),
            WireError::Invalid(what) => write!(f, "invalid value: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serialises values into a growable buffer — or, built with
/// `WireWriter::counting`, only counts the bytes it would write.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
    /// `Some(n)` on a counting writer: `n` bytes put so far, none kept.
    counted: Option<usize>,
}

impl WireWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        WireWriter { buf: BytesMut::with_capacity(256), counted: None }
    }

    /// A writer that stores nothing: every `put_*` adds its encoded size
    /// to [`len`](WireWriter::len), and the bytes themselves stay empty.
    /// Running a type's one [`Wire::encode`] against it is how a size
    /// is measured ([`Wire::wire_len`]) without allocating, so a size
    /// can never drift from the encoding.
    pub(crate) fn counting() -> Self {
        WireWriter { buf: BytesMut::new(), counted: Some(0) }
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Resets the writer for reuse, keeping the allocated capacity. A
    /// pooled writer cleared between messages reaches a steady state
    /// where encoding performs no growth reallocations.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Freezes the current contents into a [`Bytes`] without consuming
    /// the writer, so a pooled writer can emit message after message.
    /// (One buffer copy per snapshot; the pooled win is eliminating the
    /// growth reallocations of a fresh writer, not this final copy.)
    pub fn snapshot(&self) -> Bytes {
        Bytes::copy_from_slice(&self.buf)
    }

    /// The bytes written so far, borrowed.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written (or, on a counting writer, counted) so far.
    pub fn len(&self) -> usize {
        self.counted.unwrap_or(self.buf.len())
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.put_raw(&v.to_be_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_be_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_be_bytes());
    }

    fn put_u128(&mut self, v: u128) {
        self.put_raw(&v.to_be_bytes());
    }

    pub fn put_uuid(&mut self, v: Uuid) {
        self.put_u128(v.as_u128());
    }

    /// Raw bytes, no length prefix — the one place bytes are written or,
    /// on a counting writer, counted. The v2 codec pairs this with a
    /// varint length it wrote itself.
    pub fn put_raw(&mut self, v: &[u8]) {
        match &mut self.counted {
            Some(counted) => *counted += v.len(),
            None => self.buf.extend_from_slice(v),
        }
    }

    /// Overwrites already-written bytes starting at offset `at` — for a
    /// header whose contents are only known once what follows it has
    /// been written.
    pub fn patch(&mut self, at: usize, v: &[u8]) {
        self.buf[at..at + v.len()].copy_from_slice(v);
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= MAX_FIELD_LEN);
        self.put_u32(v.len() as u32);
        self.put_raw(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// `Option<T>` as a presence byte followed by the value.
    pub fn put_option<T: Wire>(&mut self, v: &Option<T>) {
        match v {
            None => self.put_u8(0),
            Some(inner) => {
                self.put_u8(1);
                inner.encode(self);
            }
        }
    }

    /// `Vec<T>` as a `u32` count followed by the elements.
    pub fn put_vec<T: Wire>(&mut self, v: &[T]) {
        self.put_u32(v.len() as u32);
        for item in v {
            item.encode(self);
        }
    }
}

/// Deserialises values from a byte slice, tracking a cursor.
///
/// Constructed over a plain slice ([`WireReader::new`]) it copies byte
/// fields out; constructed over a shared buffer ([`WireReader::shared`])
/// [`take_bytes`](WireReader::take_bytes) returns zero-copy windows of
/// the backing allocation instead.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The shared backing buffer, when reading out of a `Bytes`; enables
    /// zero-copy `take_bytes`.
    shared: Option<&'a Bytes>,
}

impl<'a> WireReader<'a> {
    /// Reads from `buf` starting at offset zero.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0, shared: None }
    }

    /// Reads from a shared buffer: length-prefixed byte fields taken via
    /// [`take_bytes`](WireReader::take_bytes) alias the backing
    /// allocation (refcount bump + window) instead of copying.
    pub fn shared(buf: &'a Bytes) -> Self {
        WireReader { buf, pos: 0, shared: Some(buf) }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole buffer was consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Exactly `n` raw bytes (the caller already read and validated a
    /// length, e.g. a v2 varint prefix).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Splits off a reader over exactly the next `n` bytes and advances
    /// past them. The sub-reader still addresses the same backing
    /// buffer, so its zero-copy takes alias the one allocation.
    pub fn sub_reader(&mut self, n: usize) -> Result<WireReader<'a>, WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let sub = WireReader { buf: &self.buf[..self.pos + n], pos: self.pos, shared: self.shared };
        self.pos += n;
        Ok(sub)
    }

    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { context: "bool", tag }),
        }
    }

    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_be_bytes(self.take(16)?.try_into().unwrap()))
    }

    pub fn get_uuid(&mut self) -> Result<Uuid, WireError> {
        Ok(Uuid::from_u128(self.get_u128()?))
    }

    /// Length-prefixed byte string (owned).
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(WireError::FieldTooLong(len));
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Length-prefixed byte string as a [`Bytes`]. Zero-copy (a window
    /// over the backing allocation) when the reader was built with
    /// [`WireReader::shared`]; one copy otherwise.
    pub fn take_bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(WireError::FieldTooLong(len));
        }
        if self.remaining() < len {
            return Err(WireError::UnexpectedEof);
        }
        let start = self.pos;
        self.pos += len;
        Ok(match self.shared {
            Some(backing) => backing.slice(start..start + len),
            None => Bytes::copy_from_slice(&self.buf[start..start + len]),
        })
    }

    /// Exactly `len` bytes as a [`Bytes`] — the unprefixed sibling of
    /// [`take_bytes`](WireReader::take_bytes), for lengths the caller
    /// decoded itself (e.g. a v2 varint prefix). Zero-copy on a shared
    /// reader.
    pub fn take_raw_bytes(&mut self, len: usize) -> Result<Bytes, WireError> {
        if len > MAX_FIELD_LEN {
            return Err(WireError::FieldTooLong(len));
        }
        if self.remaining() < len {
            return Err(WireError::UnexpectedEof);
        }
        let start = self.pos;
        self.pos += len;
        Ok(match self.shared {
            Some(backing) => backing.slice(start..start + len),
            None => Bytes::copy_from_slice(&self.buf[start..start + len]),
        })
    }

    /// Length-prefixed UTF-8 string, borrowed from the buffer.
    pub fn get_str_ref(&mut self) -> Result<&'a str, WireError> {
        let len = self.get_u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(WireError::FieldTooLong(len));
        }
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::InvalidUtf8)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        self.get_str_ref().map(str::to_owned)
    }

    /// `Option<T>` as written by [`WireWriter::put_option`].
    pub fn get_option<T: Wire>(&mut self) -> Result<Option<T>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(self)?)),
            tag => Err(WireError::InvalidTag { context: "option", tag }),
        }
    }

    /// `Vec<T>` as written by [`WireWriter::put_vec`].
    pub fn get_vec<T: Wire>(&mut self) -> Result<Vec<T>, WireError> {
        let n = self.get_u32()? as usize;
        if n > MAX_FIELD_LEN {
            return Err(WireError::FieldTooLong(n));
        }
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }
}

thread_local! {
    /// Per-thread encode pool: [`encode_pooled`] reuses this writer's
    /// buffer, so steady-state encodes stop growing an allocation.
    static ENCODE_POOL: std::cell::RefCell<WireWriter> = std::cell::RefCell::new(WireWriter::new());
}

/// Runs `encode` against the per-thread pooled writer, cleared first,
/// and returns a copy of what it wrote: one allocator call, the copy.
/// A nested call (an `encode` that itself calls [`Wire::to_bytes`])
/// finds the pool in use and writes into a fresh writer instead.
pub(crate) fn encode_pooled(encode: impl FnOnce(&mut WireWriter)) -> Bytes {
    ENCODE_POOL.with(|pool| match pool.try_borrow_mut() {
        Ok(mut w) => {
            w.clear();
            encode(&mut w);
            w.snapshot()
        }
        Err(_) => {
            let mut w = WireWriter::new();
            encode(&mut w);
            w.finish()
        }
    })
}

/// Types that cross the wire.
pub trait Wire: Sized {
    /// Appends this value to `w`.
    fn encode(&self, w: &mut WireWriter);
    /// Reads one value from `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Convenience: encode into a shared byte buffer, through the
    /// per-thread pooled writer (see [`encode_pooled`]).
    fn to_bytes(&self) -> Bytes {
        encode_pooled(|w| self.encode(w))
    }

    /// `to_bytes().len()`, counted: the same `encode` run against a
    /// counting [`WireWriter`], so nothing is allocated or written.
    fn wire_len(&self) -> usize {
        let mut w = WireWriter::counting();
        self.encode(&mut w);
        w.len()
    }

    /// Convenience: strict decode of a complete buffer (no trailing bytes).
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }

    /// Strict decode from a shared buffer: byte-string fields come out
    /// as zero-copy slices of `buf` instead of fresh allocations.
    fn from_shared(buf: &Bytes) -> Result<Self, WireError> {
        let mut r = WireReader::shared(buf);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u32()
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u64()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_str()
    }
}

impl Wire for Bytes {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(1 << 100);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_u128().unwrap(), 1 << 100);
        r.expect_end().unwrap();
    }

    #[test]
    fn string_and_bytes_roundtrip() {
        let mut w = WireWriter::new();
        w.put_str("héllo/wörld");
        w.put_bytes(&[0, 1, 2, 255]);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "héllo/wörld");
        assert_eq!(r.get_bytes().unwrap(), vec![0, 1, 2, 255]);
    }

    #[test]
    fn truncated_buffer_is_eof() {
        let mut w = WireWriter::new();
        w.put_u64(7);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn bogus_length_prefix_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX); // absurd length
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(WireError::FieldTooLong(_))));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_str(), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn option_and_vec_roundtrip() {
        let mut w = WireWriter::new();
        w.put_option::<u64>(&None);
        w.put_option(&Some(9u64));
        w.put_vec(&[1u32, 2, 3]);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_option::<u64>().unwrap(), None);
        assert_eq!(r.get_option::<u64>().unwrap(), Some(9));
        assert_eq!(r.get_vec::<u32>().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn strict_from_bytes_rejects_trailing() {
        let mut w = WireWriter::new();
        w.put_u32(5);
        w.put_u8(0);
        let bytes = w.finish();
        assert!(matches!(u32::from_bytes(&bytes), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn bool_rejects_junk_tag() {
        let mut r = WireReader::new(&[7]);
        assert!(matches!(r.get_bool(), Err(WireError::InvalidTag { .. })));
    }

    #[test]
    fn take_bytes_matches_get_bytes_on_both_backings() {
        let mut w = WireWriter::new();
        w.put_bytes(b"abc");
        w.put_bytes(&[]);
        let bytes = w.finish();
        let mut copied = WireReader::new(&bytes);
        let mut zero_copy = WireReader::shared(&bytes);
        for _ in 0..2 {
            let a = copied.take_bytes().unwrap();
            let b = zero_copy.take_bytes().unwrap();
            assert_eq!(a, b);
        }
        copied.expect_end().unwrap();
        zero_copy.expect_end().unwrap();
    }

    #[test]
    fn take_bytes_rejects_bogus_length_and_truncation() {
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.finish();
        let mut r = WireReader::shared(&bytes);
        assert!(matches!(r.take_bytes(), Err(WireError::FieldTooLong(_))));
        let mut w = WireWriter::new();
        w.put_u32(10);
        w.put_u8(1); // only 1 of the promised 10 bytes
        let bytes = w.finish();
        let mut r = WireReader::shared(&bytes);
        assert_eq!(r.take_bytes(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn bytes_wire_roundtrip() {
        let b = Bytes::copy_from_slice(&[5, 6, 7]);
        let enc = b.to_bytes();
        assert_eq!(Bytes::from_bytes(&enc).unwrap(), b);
    }

    #[test]
    fn counting_writer_counts_what_a_writer_writes_and_keeps_nothing() {
        let fill = |w: &mut WireWriter| {
            w.put_u8(1);
            w.put_bool(false);
            w.put_u16(2);
            w.put_u32(3);
            w.put_u64(4);
            w.put_u128(6);
            w.put_uuid(Uuid::from_u128(8));
            w.put_raw(b"raw");
            w.put_str("héllo");
            w.put_option(&Some(9u64));
            w.put_vec(&[10u32, 11]);
        };
        let mut bytes = WireWriter::new();
        fill(&mut bytes);
        let mut counting = WireWriter::counting();
        fill(&mut counting);
        assert_eq!(counting.len(), bytes.len());
        assert!(counting.as_slice().is_empty(), "a counting writer stores nothing");
        assert_eq!(String::from("héllo").wire_len(), String::from("héllo").to_bytes().len());
    }

    #[test]
    fn pooled_writer_clear_and_snapshot() {
        let mut w = WireWriter::new();
        w.put_u32(1);
        assert_eq!(w.as_slice(), &[0, 0, 0, 1]);
        let first = w.snapshot();
        w.clear();
        assert!(w.is_empty());
        w.put_u32(2);
        let second = w.snapshot();
        assert_eq!(first.as_ref(), &[0, 0, 0, 1]);
        assert_eq!(second.as_ref(), &[0, 0, 0, 2]);

        // `to_bytes` encodes through the thread's pool; an `encode` that
        // calls `to_bytes` itself finds the pool busy and gets a fresh
        // writer, so both layers come out whole and equal a fresh
        // writer's bytes.
        struct Nested(u32);
        impl Wire for Nested {
            fn encode(&self, w: &mut WireWriter) {
                w.put_bytes(&self.0.to_bytes());
                w.put_u32(self.0);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let inner = u32::from_bytes(&r.get_bytes()?)?;
                assert_eq!(r.get_u32()?, inner);
                Ok(Nested(inner))
            }
        }
        let mut fresh = WireWriter::new();
        Nested(7).encode(&mut fresh);
        for _ in 0..2 {
            let pooled = Nested(7).to_bytes();
            assert_eq!(pooled.as_ref(), fresh.as_slice());
            assert_eq!(Nested::from_bytes(&pooled).unwrap().0, 7);
        }
    }
}
