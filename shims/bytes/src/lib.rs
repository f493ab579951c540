//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply cloneable, immutable, reference-counted byte
//! buffer (an `Arc<[u8]>` window); [`BytesMut`] is a growable buffer
//! that freezes into a [`Bytes`]. Integer encoding is the wire codec's
//! business, not this crate's.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, cheaply cloneable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// A buffer borrowing a `'static` slice (copied; the distinction
    /// does not matter for this workspace).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// A buffer owning a copy of `bytes`.
    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        Bytes { data: Arc::from(bytes), start: 0, end: bytes.len() }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-window sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies the contents into the shared buffer: one allocation, where
    /// going through a boxed slice first would shrink the `Vec` in place
    /// (a second allocator call) only to copy it anyway.
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes { data: Arc::from(v), start: 0, end: len }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        debug_bytes(self.as_ref(), f)
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().iter()
    }
}

/// Shared `Debug` body for both buffer types: hex dump, abbreviated.
fn debug_bytes(bytes: &[u8], f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes.iter().take(64) {
        write!(f, "\\x{b:02x}")?;
    }
    if bytes.len() > 64 {
        write!(f, "..")?;
    }
    write!(f, "\"")
}

/// A growable byte buffer.
#[derive(Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, other: &[u8]) {
        self.buf.extend_from_slice(other);
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        debug_bytes(&self.buf, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_and_slice() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let s = b.slice(1..4);
        assert_eq!(s.as_ref(), &[2, 3, 4]);
        let c = b.clone();
        assert_eq!(c, b);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn bytesmut_appends_and_freezes() {
        let mut m = BytesMut::with_capacity(2);
        m.extend_from_slice(b"hello");
        m.extend_from_slice(b" world");
        m[0] = b'j';
        assert_eq!((m.len(), &m[..]), (11, &b"jello world"[..]));
        assert_eq!(m.freeze(), Bytes::from_static(b"jello world"));
        let mut m = BytesMut::new();
        m.extend_from_slice(b"x");
        m.clear();
        assert!(m.is_empty());
    }
}
