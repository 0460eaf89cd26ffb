//! Return address stack.
//!
//! A small circular stack predicting return targets. Under every isolation
//! mechanism the RAS is per-hardware-thread (it is tiny), matching both real
//! designs and the paper's Samsung Exynos discussion (RAS content encryption
//! is mentioned there; here isolation suffices since the structure is
//! replicated per thread anyway).

use bp_common::Addr;

/// A fixed-capacity return address stack with wrap-around overwrite.
///
/// # Examples
///
/// ```
/// use bp_predictors::ras::ReturnAddressStack;
/// use bp_common::Addr;
///
/// let mut ras = ReturnAddressStack::new(16);
/// ras.push(Addr::new(0x1004));
/// assert_eq!(ras.pop(), Some(Addr::new(0x1004)));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: Vec<Addr>,
    top: usize,
    depth: usize,
}

impl ReturnAddressStack {
    /// Creates a stack with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ReturnAddressStack {
            entries: vec![Addr::new(0); capacity],
            top: 0,
            depth: 0,
        }
    }

    /// Pushes a return address (the PC after a call). Overwrites the oldest
    /// entry when full, as hardware does.
    pub fn push(&mut self, return_addr: Addr) {
        self.entries[self.top] = return_addr;
        self.top = (self.top + 1) % self.entries.len();
        self.depth = (self.depth + 1).min(self.entries.len());
    }

    /// Pops the predicted return target, or `None` when empty.
    pub fn pop(&mut self) -> Option<Addr> {
        if self.depth == 0 {
            return None;
        }
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.depth -= 1;
        Some(self.entries[self.top])
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Clears the stack.
    pub fn flush(&mut self) {
        self.top = 0;
        self.depth = 0;
    }

    /// Modeled storage in bits (48-bit return addresses).
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = ReturnAddressStack::new(8);
        r.push(Addr::new(1));
        r.push(Addr::new(2));
        r.push(Addr::new(3));
        assert_eq!(r.pop(), Some(Addr::new(3)));
        assert_eq!(r.pop(), Some(Addr::new(2)));
        assert_eq!(r.pop(), Some(Addr::new(1)));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn overflow_overwrites_oldest() {
        let mut r = ReturnAddressStack::new(2);
        r.push(Addr::new(1));
        r.push(Addr::new(2));
        r.push(Addr::new(3)); // overwrites 1
        assert_eq!(r.depth(), 2);
        assert_eq!(r.pop(), Some(Addr::new(3)));
        assert_eq!(r.pop(), Some(Addr::new(2)));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn flush_empties() {
        let mut r = ReturnAddressStack::new(4);
        r.push(Addr::new(9));
        r.flush();
        assert_eq!(r.pop(), None);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = ReturnAddressStack::new(0);
    }
}
