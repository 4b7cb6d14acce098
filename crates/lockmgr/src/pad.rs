//! Cache-line padding for words that different threads write.

use std::ops::{Deref, DerefMut};

/// `T` on cache lines of its own: aligned (and so sized) to 128 bytes, which
/// covers a 64-byte line together with the neighbour the adjacent-line
/// prefetcher pulls in, and the 128-byte lines of some ARM cores. Two
/// padded values never share a line, so a thread writing one does not take
/// the other's line away from the threads reading or writing it.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Pads `value`.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}
