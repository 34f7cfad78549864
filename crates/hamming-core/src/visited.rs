//! The visited set every candidate generator dedups with (GPH's query
//! pipeline and each baseline), so its epoch wrap-around is handled in
//! this one place.

/// A set of row ids `0..n`, emptied in O(1): an id is a member when
/// its stamp equals the current epoch, and emptying bumps the epoch.
#[derive(Clone, Debug)]
pub struct Visited {
    stamps: Vec<u32>,
    /// Never 0, the value of a stamp that was never set.
    epoch: u32,
}

impl Visited {
    /// An empty set over ids `0..n`.
    pub fn new(n: usize) -> Self {
        Visited { stamps: vec![0; n], epoch: 1 }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: refill with 0, the one value no live epoch takes.
            // Any other fill value is reached again by a later epoch,
            // which would then read every untouched id as already seen.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Adds `id`; true if it was not yet in the set. An id outside
    /// `0..n` is refused (false): untrusted ids are skipped, not indexed.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        match self.stamps.get_mut(id as usize) {
            Some(stamp) if *stamp != self.epoch => {
                *stamp = self.epoch;
                true
            }
            _ => false,
        }
    }

    /// Sets the epoch (not 0), so a test reaches the wrap without 2³²
    /// queries.
    pub fn set_epoch(&mut self, epoch: u32) {
        assert_ne!(epoch, 0, "epoch 0 is the never-set stamp");
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_marks_once_per_epoch() {
        let mut s = Visited::new(4);
        s.clear();
        assert!(s.insert(2));
        assert!(!s.insert(2));
        s.clear();
        assert!(s.insert(2));
    }

    #[test]
    fn stamp_epoch_wraparound_resets() {
        let mut s = Visited::new(2);
        s.epoch = u32::MAX;
        s.clear(); // wraps to 0 -> resets to 1
        assert_eq!(s.epoch, 1);
        assert!(s.insert(0));
        assert!(!s.insert(0));
        // 2³² − 2 epochs on, id 1 has not been marked since the wrap: the
        // epoch that reaches u32::MAX must still see it as unmarked.
        s.epoch = u32::MAX - 1;
        s.clear();
        assert_eq!(s.epoch, u32::MAX);
        assert!(s.insert(1), "an id untouched since the wrap reads as already seen");
        assert!(!s.insert(1));
    }

    #[test]
    fn ids_out_of_range_are_refused() {
        let mut s = Visited::new(2);
        assert!(!s.insert(2));
        assert!(!s.insert(u32::MAX));
    }
}
