//! The one bounded ring: a daemon's span store and its event journal
//! are each one of these.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A bounded FIFO shared between threads: one mutex, an exact capacity,
/// and a count of what fell off the front. Eviction is strictly
/// oldest-first.
///
/// Callers build an item before pushing it, so a push holds the lock
/// only to pop and push. Nothing that can panic runs under it, and a
/// panic hook that records into a ring can never find its own thread
/// holding that ring's lock.
#[derive(Debug)]
pub struct Ring<T> {
    items: Mutex<VecDeque<T>>,
    cap: usize,
    dropped: AtomicU64,
}

impl<T> Ring<T> {
    /// A ring holding at most `cap` items (at least one).
    pub fn new(cap: usize) -> Ring<T> {
        Ring {
            items: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        // Every update leaves the deque whole, so a guard a panicking
        // reader poisoned is still safe to use.
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `item`, evicting the oldest when the ring is full, and
    /// returns what it evicted.
    pub fn push(&self, item: T) -> Option<T> {
        let mut items = self.lock();
        let evicted = if items.len() == self.cap {
            self.dropped.fetch_add(1, Relaxed);
            items.pop_front()
        } else {
            None
        };
        items.push_back(item);
        evicted
    }

    /// Items currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items evicted since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Calls `f` on every held item, oldest first, under the lock.
    pub fn for_each(&self, f: impl FnMut(&T)) {
        self.lock().iter().for_each(f);
    }

    /// Copies of the held items `keep` selects, oldest first.
    pub fn filtered(&self, keep: impl Fn(&T) -> bool) -> Vec<T>
    where
        T: Clone,
    {
        self.lock().iter().filter(|t| keep(t)).cloned().collect()
    }
}
