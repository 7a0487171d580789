//! Profiling counters with recycling and peak tracking.

use crate::fxhash::FxHashMap;
use crate::sim::faults::CounterFault;
use rsel_program::Addr;
use std::collections::hash_map::Entry;

/// The table of execution counters used by NET and LEI profiling.
///
/// Both algorithms associate a counter with a small subset of taken
/// branch targets and recycle the counter once its threshold is reached
/// (paper §3.2.4). The *maximum number of counters in use at any point*
/// is the profiling-memory metric of Figure 10, so the table tracks its
/// peak occupancy.
#[derive(Clone, Debug, Default)]
pub struct CounterTable {
    counts: FxHashMap<Addr, u32>,
    peak: usize,
}

impl CounterTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        CounterTable::default()
    }

    /// Increments the counter for `addr` (creating it at 1) and returns
    /// the new value. Increments saturate at `u32::MAX` so a counter
    /// corrupted to the ceiling never wraps back below its threshold.
    pub fn increment(&mut self, addr: Addr) -> u32 {
        let live = self.counts.len();
        let c = match self.counts.entry(addr) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                // Only a new counter can raise the occupancy peak.
                self.peak = self.peak.max(live + 1);
                e.insert(0)
            }
        };
        *c = c.saturating_add(1);
        *c
    }

    /// Applies a profiling-counter fault. Saturation forces every live
    /// counter to `u32::MAX`, so every profiled target looks scorching
    /// hot at once. A reset drops every live counter, so accumulation
    /// starts over; the peak high-water mark survives.
    pub fn apply_fault(&mut self, fault: CounterFault) {
        match fault {
            CounterFault::Saturate => self.counts.values_mut().for_each(|c| *c = u32::MAX),
            CounterFault::Reset => self.counts.clear(),
        }
    }

    /// Current value of the counter for `addr`, if present.
    #[cfg(test)]
    fn get(&self, addr: Addr) -> Option<u32> {
        self.counts.get(&addr).copied()
    }

    /// Recycles (removes) the counter for `addr`, returning its final
    /// value if it existed.
    pub fn recycle(&mut self, addr: Addr) -> Option<u32> {
        self.counts.remove(&addr)
    }

    /// Counters currently in use.
    pub fn in_use(&self) -> usize {
        self.counts.len()
    }

    /// Maximum counters in use at any point (Figure 10's metric).
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_accumulate() {
        let mut t = CounterTable::new();
        let a = Addr::new(0x10);
        assert_eq!(t.increment(a), 1);
        assert_eq!(t.increment(a), 2);
        assert_eq!(t.get(a), Some(2));
        assert_eq!(t.get(Addr::new(0x20)), None);
    }

    #[test]
    fn recycle_frees_slot_but_peak_persists() {
        let mut t = CounterTable::new();
        t.increment(Addr::new(1));
        t.increment(Addr::new(2));
        t.increment(Addr::new(3));
        assert_eq!(t.in_use(), 3);
        assert_eq!(t.peak(), 3);
        assert_eq!(t.recycle(Addr::new(2)), Some(1));
        assert_eq!(t.in_use(), 2);
        assert_eq!(t.peak(), 3, "peak is a high-water mark");
        assert_eq!(t.recycle(Addr::new(2)), None);
    }

    #[test]
    fn increment_saturates_at_max() {
        let mut t = CounterTable::new();
        let a = Addr::new(9);
        t.increment(a);
        t.apply_fault(CounterFault::Saturate);
        assert_eq!(t.get(a), Some(u32::MAX));
        assert_eq!(t.increment(a), u32::MAX, "no wraparound");
    }

    #[test]
    fn reset_drops_counters_but_keeps_peak() {
        let mut t = CounterTable::new();
        t.increment(Addr::new(1));
        t.increment(Addr::new(2));
        t.apply_fault(CounterFault::Reset);
        assert_eq!(t.in_use(), 0);
        assert_eq!(t.peak(), 2);
        assert_eq!(t.increment(Addr::new(1)), 1, "profiling starts over");
    }

    #[test]
    fn peak_counts_a_recreated_counter_once() {
        let mut t = CounterTable::new();
        let a = Addr::new(7);
        t.increment(a);
        t.increment(a);
        t.recycle(a);
        t.increment(a);
        t.increment(Addr::new(8));
        assert_eq!(t.peak(), 2);
    }

    #[test]
    fn recycled_counter_restarts_at_one() {
        let mut t = CounterTable::new();
        let a = Addr::new(7);
        t.increment(a);
        t.increment(a);
        t.recycle(a);
        assert_eq!(t.increment(a), 1);
    }
}
