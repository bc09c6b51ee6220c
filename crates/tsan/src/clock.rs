//! Vector clocks for happens-before reasoning.
//!
//! Clock components are `u32` because epochs are packed into 64-bit shadow
//! slots (see [`crate::shadow`]); components count *release operations*, not
//! individual memory accesses, so 2^32 is far beyond any simulation.

use crate::codec::{put_varint, DecodeError, Scanner};
use crate::fiber::FiberId;

/// A dense vector clock indexed by fiber id.
///
/// The representation is a plain `Vec<u32>` grown on demand: fiber ids are
/// small, densely allocated indices, making a dense clock both simpler and
/// faster than a sparse map for the fiber counts seen in practice (streams +
/// in-flight MPI requests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    c: Vec<u32>,
}

impl VectorClock {
    /// The empty clock (all components zero).
    pub fn new() -> Self {
        VectorClock { c: Vec::new() }
    }

    /// Component for `f` (zero if never set).
    #[inline]
    pub fn get(&self, f: FiberId) -> u32 {
        self.c.get(f.index()).copied().unwrap_or(0)
    }

    /// Set component for `f`.
    #[inline]
    pub fn set(&mut self, f: FiberId, v: u32) {
        let i = f.index();
        if i >= self.c.len() {
            self.c.resize(i + 1, 0);
        }
        self.c[i] = v;
    }

    /// Increment component for `f`, returning the new value.
    #[inline]
    pub fn bump(&mut self, f: FiberId) -> u32 {
        let i = f.index();
        if i >= self.c.len() {
            self.c.resize(i + 1, 0);
        }
        self.c[i] += 1;
        self.c[i]
    }

    /// Overwrite `self` with `other`, reusing the existing allocation
    /// (unlike `clone_from`, which may reallocate when shrinking is
    /// followed by growth elsewhere; this keeps capacity monotonic).
    pub fn copy_from(&mut self, other: &VectorClock) {
        self.c.clear();
        self.c.extend_from_slice(&other.c);
    }

    /// Elementwise maximum: `self = max(self, other)` (the acquire/join op).
    pub fn join(&mut self, other: &VectorClock) {
        let n = self.c.len().min(other.c.len());
        for (a, &b) in self.c.iter_mut().zip(&other.c[..n]) {
            if b > *a {
                *a = b;
            }
        }
        if other.c.len() > self.c.len() {
            self.c.extend_from_slice(&other.c[n..]);
        }
    }

    /// Number of allocated components (for memory accounting).
    pub fn len(&self) -> usize {
        self.c.len()
    }

    /// True if no component was ever set.
    pub fn is_empty(&self) -> bool {
        self.c.is_empty()
    }

    /// Heap bytes this clock's components take (its length, not its
    /// capacity: the charge is a function of state).
    pub fn heap_bytes(&self) -> u64 {
        (self.c.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Append the components, count first (capacity is not observable,
    /// so the components are the whole state).
    pub(crate) fn write_to(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.c.len() as u64);
        for &v in &self.c {
            put_varint(buf, u64::from(v));
        }
    }

    /// Decode [`Self::write_to`] output.
    pub(crate) fn read_from(s: &mut Scanner<'_>) -> Result<Self, DecodeError> {
        let n = s.count(1)?;
        let mut c = Vec::with_capacity(n);
        for _ in 0..n {
            c.push(s.varint_as()?);
        }
        Ok(VectorClock { c })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FiberId {
        FiberId::from_index(i as usize)
    }

    #[test]
    fn get_default_zero() {
        let c = VectorClock::new();
        assert_eq!(c.get(f(5)), 0);
    }

    #[test]
    fn set_and_get() {
        let mut c = VectorClock::new();
        c.set(f(3), 7);
        assert_eq!(c.get(f(3)), 7);
        assert_eq!(c.get(f(0)), 0);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn bump_increments() {
        let mut c = VectorClock::new();
        assert_eq!(c.bump(f(1)), 1);
        assert_eq!(c.bump(f(1)), 2);
        assert_eq!(c.get(f(1)), 2);
    }

    #[test]
    fn join_takes_elementwise_max() {
        let mut a = VectorClock::new();
        a.set(f(0), 5);
        a.set(f(1), 1);
        let mut b = VectorClock::new();
        b.set(f(1), 9);
        b.set(f(2), 2);
        a.join(&b);
        assert_eq!(a.get(f(0)), 5);
        assert_eq!(a.get(f(1)), 9);
        assert_eq!(a.get(f(2)), 2);
    }

    #[test]
    fn join_is_idempotent_and_commutative_on_result() {
        let mut a = VectorClock::new();
        a.set(f(0), 3);
        let mut b = VectorClock::new();
        b.set(f(1), 4);
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        assert_eq!(ab, ba);
        let mut abb = ab.clone();
        abb.join(&b);
        assert_eq!(ab, abb);
    }

    #[test]
    fn clock_roundtrip() {
        let mut c = VectorClock::new();
        c.set(f(0), 3);
        c.set(f(5), u32::MAX);
        let mut buf = Vec::new();
        c.write_to(&mut buf);
        let mut s = Scanner::new(&buf);
        let back = VectorClock::read_from(&mut s).unwrap();
        s.expect_end().unwrap();
        assert_eq!(back, c);
        assert_eq!(back.len(), c.len());
        // A component past u32 is refused, not truncated.
        let mut buf = vec![1];
        put_varint(&mut buf, 1 << 32);
        assert_eq!(
            VectorClock::read_from(&mut Scanner::new(&buf)),
            Err(DecodeError::OutOfRange {
                at: 1,
                value: 1 << 32
            })
        );
    }
}
