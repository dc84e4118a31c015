//! Return address stack.

/// A bounded return-address stack (one per hardware thread).
///
/// Pushing beyond capacity wraps around and overwrites the oldest entry, as
/// hardware RAS implementations do; popping an empty stack returns `None`.
///
/// # Examples
///
/// ```
/// use smt_bpred::ReturnAddressStack;
///
/// let mut ras = ReturnAddressStack::new(4);
/// ras.push(0x100);
/// ras.push(0x200);
/// assert_eq!(ras.pop(), Some(0x200));
/// assert_eq!(ras.pop(), Some(0x100));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    slots: Vec<u64>,
    top: usize,
    len: usize,
}

impl ReturnAddressStack {
    /// Creates a stack with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        if let Err(why) = Self::validate(capacity) {
            panic!("{why}");
        }
        ReturnAddressStack {
            slots: vec![0; capacity],
            top: 0,
            len: 0,
        }
    }

    /// Checks the size [`ReturnAddressStack::new`] relies on: a non-zero
    /// capacity.
    pub(crate) fn validate(capacity: usize) -> Result<(), String> {
        if capacity == 0 {
            return Err("RAS capacity must be non-zero".into());
        }
        Ok(())
    }

    /// Pushes a return address, overwriting the oldest entry when full.
    pub fn push(&mut self, addr: u64) {
        self.slots[self.top] = addr;
        self.top = (self.top + 1) % self.slots.len();
        self.len = (self.len + 1).min(self.slots.len());
    }

    /// Pops the most recent return address, or `None` when empty.
    pub fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        self.len -= 1;
        Some(self.slots[self.top])
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no valid entries remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all entries (used on pipeline flush).
    pub fn clear(&mut self) {
        self.len = 0;
        self.top = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnAddressStack::new(8);
        for a in 1..=5u64 {
            ras.push(a * 0x10);
        }
        for a in (1..=5u64).rev() {
            assert_eq!(ras.pop(), Some(a * 0x10));
        }
        assert!(ras.is_empty());
    }

    #[test]
    fn overflow_wraps_and_keeps_newest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // overwrites 1
        assert_eq!(ras.len(), 2);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn clear_empties_stack() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(7);
        ras.clear();
        assert_eq!(ras.pop(), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = ReturnAddressStack::new(0);
    }
}
